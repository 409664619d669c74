"""Batch signature verification: equivalence with per-message verify,
and TimedCrypto accounting."""

import pytest

from repro.crypto import FastCrypto, RealCrypto, Signature, TimedCrypto
from repro.obs import Observability


MESSAGES = [("reading", i, float(i)) for i in range(9)]


@pytest.fixture(params=["fast", "real"])
def provider(request):
    if request.param == "fast":
        return FastCrypto(seed="batch-test")
    return RealCrypto(seed="batch-test", bits=512)


def _signed(provider):
    return [provider.sign("alice", m) for m in MESSAGES]


# ----------------------------------------------------------------------
# verify_batch matches per-message verify
# ----------------------------------------------------------------------


def test_verify_batch_accepts_good_signatures(provider):
    assert provider.verify_batch(_signed(provider), MESSAGES) == [True] * len(MESSAGES)


def test_verify_batch_flags_bad_signatures(provider):
    signatures = _signed(provider)
    # mallory's signature value attributed to alice must not verify
    forged = provider.sign("mallory", MESSAGES[3])
    signatures[3] = Signature("alice", forged.value)
    flags = provider.verify_batch(signatures, MESSAGES)
    assert flags == [i != 3 for i in range(len(MESSAGES))]


def test_verify_batch_length_mismatch_raises(provider):
    signatures = _signed(provider)
    with pytest.raises(ValueError):
        provider.verify_batch(signatures[:-1], MESSAGES)


# ----------------------------------------------------------------------
# TimedCrypto accounting
# ----------------------------------------------------------------------


def test_timed_crypto_counts_link_macs_without_timing_them():
    obs = Observability()
    timed = TimedCrypto(FastCrypto(seed="timed"), obs)
    tag = timed.mac("a", "b", MESSAGES[0])
    assert timed.check_mac("a", "b", MESSAGES[0], tag)
    assert not timed.check_mac("a", "b", MESSAGES[1], tag)
    assert obs.counter("crypto.mac.calls").value == 1
    assert obs.counter("crypto.check_mac.calls").value == 2
    assert not [n for n in obs.registry.names() if n.endswith("mac.wall_ms")]


def test_timed_crypto_counts_batches_and_items():
    obs = Observability()
    timed = TimedCrypto(FastCrypto(seed="timed"), obs)
    timed.verify_batch(_signed(timed), MESSAGES)
    metrics = obs.snapshot()["metrics"]
    assert metrics["crypto.verify_batch.calls"] == 1
    assert metrics["crypto.verify_batch.items"] == len(MESSAGES)


def test_timed_crypto_batch_results_match_inner():
    inner = FastCrypto(seed="timed-eq")
    timed = TimedCrypto(FastCrypto(seed="timed-eq"), Observability())
    signatures = _signed(inner)
    signatures[3] = Signature("alice", inner.sign("mallory", MESSAGES[3]).value)
    assert timed.verify_batch(signatures, MESSAGES) == \
        inner.verify_batch(signatures, MESSAGES)
