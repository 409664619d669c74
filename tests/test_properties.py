"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LatencyStats
from repro.core.config import base_requirement, minimal_replicas, quorum
from repro.crypto import FastCrypto, encode
from repro.prime.dedup import ClientDedup
from repro.prime.execution import coverage_cutoffs
from repro.scada.modbus import crc16, scale_measurement, unscale_measurement

# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 18), max_value=10 ** 18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@given(values)
def test_encode_total_on_supported_domain(value):
    assert isinstance(encode(value), bytes)


@given(values)
def test_encode_deterministic(value):
    assert encode(value) == encode(value)


@given(st.tuples(values, values))
def test_encode_injective_on_samples(pair):
    a, b = pair
    if encode(a) == encode(b):
        # the only permitted collision is list/tuple container equivalence
        def normalize(v):
            if isinstance(v, (list, tuple)):
                return tuple(normalize(x) for x in v)
            if isinstance(v, dict):
                return {k: normalize(x) for k, x in v.items()}
            return v
        assert normalize(a) == normalize(b)


# ----------------------------------------------------------------------
# Signatures (FastCrypto model)
# ----------------------------------------------------------------------


@given(st.text(min_size=1, max_size=10), values)
def test_sign_verify_roundtrip_property(signer, message):
    crypto = FastCrypto(seed="prop")
    assert crypto.verify(crypto.sign(signer, message), message)


@given(st.text(min_size=1, max_size=10), values, values)
def test_signature_binds_message(signer, message, other):
    crypto = FastCrypto(seed="prop")
    sig = crypto.sign(signer, message)
    if encode(message) != encode(other):
        assert not crypto.verify(sig, other)


# ----------------------------------------------------------------------
# CRC-16
# ----------------------------------------------------------------------


@given(st.binary(max_size=64))
def test_crc_detects_single_bit_flips(data):
    if not data:
        return
    original = crc16(data)
    corrupted = bytearray(data)
    corrupted[0] ^= 0x01
    assert crc16(bytes(corrupted)) != original


@given(st.floats(min_value=0.0, max_value=6000.0))
def test_measurement_scaling_bounded_error(value):
    # Half a register step (0.05 at scale 10), plus one ulp of slack: at
    # exact half-steps (e.g. 0.75) the float subtraction itself rounds a
    # hair above 0.05 even though the fixed-point error is exactly half.
    assert abs(unscale_measurement(scale_measurement(value)) - value) <= 0.05 + 1e-12


# ----------------------------------------------------------------------
# ClientDedup vs a naive set model
# ----------------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.integers(min_value=1, max_value=200)),
                max_size=120))
def test_dedup_matches_set_model(operations):
    dedup = ClientDedup(window=1024)
    model = set()
    for client, seq in operations:
        expected = (client, seq) in model
        assert dedup.is_duplicate(client, seq) == expected
        if not expected:
            dedup.mark(client, seq)
            model.add((client, seq))


@given(st.lists(st.integers(min_value=1, max_value=100),
                min_size=1, max_size=80, unique=True))
def test_dedup_snapshot_roundtrip_property(seqs):
    dedup = ClientDedup()
    for seq in seqs:
        dedup.mark("c", seq)
    restored = ClientDedup()
    restored.restore(dedup.snapshot())
    for seq in range(1, 101):
        assert restored.is_duplicate("c", seq) == (seq in seqs)


# ----------------------------------------------------------------------
# LatencyStats invariants
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=200))
def test_latency_stats_invariants(samples):
    stats = LatencyStats.from_samples(samples)
    assert stats.count == len(samples)
    assert stats.minimum <= stats.median <= stats.p90 <= stats.p99
    assert stats.p99 <= stats.p999 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum + 1e-9


# ----------------------------------------------------------------------
# Configuration math
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_requirement_and_quorum_relation(f, k):
    n = base_requirement(f, k)
    q = quorum(f, k)
    # two quorums overlap in at least f+1 replicas (safety core)
    assert 2 * q - n >= f + 1
    # a quorum survives f Byzantine + k recovering replicas
    assert n - f - k >= q


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2),
       st.integers(min_value=2, max_value=6))
def test_minimal_replicas_site_tolerance_holds(f, k, sites):
    n = minimal_replicas(f, k, sites, tolerate_site_failure=True)
    largest = math.ceil(n / sites)
    assert n - largest >= base_requirement(f, k)
    # minimality: one replica fewer violates the requirement
    if n > base_requirement(f, k):
        smaller = n - 1
        assert smaller - math.ceil(smaller / sites) < base_requirement(f, k)


# ----------------------------------------------------------------------
# Coverage cutoffs
# ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=6))
def test_coverage_cutoff_is_quorum_th_largest(reported):
    from repro.crypto.provider import Signature
    from repro.prime.messages import PoSummary, SignedMessage

    matrix = tuple(
        SignedMessage(PoSummary(f"r{i}", 1, (("o#0", upto),)),
                      Signature(f"r{i}", "x"))
        for i, upto in enumerate(reported)
    )
    cutoffs = coverage_cutoffs(matrix, n=6, quorum=4)
    padded = sorted(reported + [0] * (6 - len(reported)), reverse=True)
    expected = padded[3] if reported else None
    if reported:
        assert cutoffs["o#0"] == expected
        # safety property: at least quorum rows claim >= cutoff
        claims = sum(1 for v in padded if v >= cutoffs["o#0"])
        assert claims >= 4
    else:
        assert cutoffs == {}


# ----------------------------------------------------------------------
# Grid invariants
# ----------------------------------------------------------------------


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=30),
       st.randoms(use_true_random=False))
def test_grid_served_monotone_under_breaker_opening(size, opens, rnd):
    from repro.scada import build_radial_grid

    grid = build_radial_grid(num_substations=size, seed=7)
    previous = grid.served_load_mw()
    total = grid.total_load_mw()
    assert previous <= total + 1e-9
    breakers = [
        (sub, breaker)
        for sub in grid.substations
        for breaker in grid.substations[sub].breakers
    ]
    for _ in range(min(opens, len(breakers))):
        sub, breaker = rnd.choice(breakers)
        grid.set_breaker(sub, breaker, False)
        current = grid.served_load_mw()
        assert current <= previous + 1e-9  # opening only ever sheds load
        previous = current
