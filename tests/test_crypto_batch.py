"""Batch crypto operations: equivalence with per-message ops, and
TimedCrypto accounting."""

import pytest

from repro.crypto import FastCrypto, RealCrypto, Signature, TimedCrypto
from repro.obs import Observability


MESSAGES = [("reading", i, float(i)) for i in range(9)]


@pytest.fixture(params=["fast", "real"])
def provider(request):
    if request.param == "fast":
        return FastCrypto(seed="batch-test")
    return RealCrypto(seed="batch-test", bits=512)


# ----------------------------------------------------------------------
# Batch ops match the per-message ops bit-for-bit
# ----------------------------------------------------------------------


def test_sign_batch_matches_loop(provider):
    looped = [provider.sign("alice", m) for m in MESSAGES]
    batched = provider.sign_batch("alice", MESSAGES)
    assert batched == looped
    assert provider.verify_batch(batched, MESSAGES) == [True] * len(MESSAGES)


def test_verify_batch_flags_bad_signatures(provider):
    signatures = provider.sign_batch("alice", MESSAGES)
    # mallory's signature value attributed to alice must not verify
    forged = provider.sign("mallory", MESSAGES[3])
    signatures[3] = Signature("alice", forged.value)
    flags = provider.verify_batch(signatures, MESSAGES)
    assert flags == [i != 3 for i in range(len(MESSAGES))]


def test_verify_batch_length_mismatch_raises(provider):
    signatures = provider.sign_batch("alice", MESSAGES)
    with pytest.raises(ValueError):
        provider.verify_batch(signatures[:-1], MESSAGES)


def test_threshold_sign_share_batch_matches_loop(provider):
    provider.create_threshold_group("g", 4, 2)
    looped = [provider.threshold_sign_share("g", 2, m) for m in MESSAGES]
    batched = provider.threshold_sign_share_batch("g", 2, MESSAGES)
    assert batched == looped
    # shares from the batch path combine exactly like per-message shares
    other = provider.threshold_sign_share_batch("g", 4, MESSAGES)
    for message, s1, s2 in zip(MESSAGES, batched, other):
        combined = provider.threshold_combine("g", message, [s1, s2])
        assert combined is not None
        assert provider.threshold_verify(combined, message)


def test_threshold_sign_share_batch_bad_index(provider):
    provider.create_threshold_group("g", 4, 2)
    if isinstance(provider, FastCrypto):
        with pytest.raises(ValueError):
            provider.threshold_sign_share_batch("g", 5, MESSAGES)
    else:
        with pytest.raises(KeyError):
            provider.threshold_sign_share_batch("g", 5, MESSAGES)


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
    timed.create_threshold_group("g", 4, 2)

    signatures = timed.sign_batch("alice", MESSAGES)
    timed.verify_batch(signatures, MESSAGES)
    timed.threshold_sign_share_batch("g", 1, MESSAGES)

    metrics = obs.snapshot()["metrics"]
    n = len(MESSAGES)
    for op in ("sign_batch", "verify_batch", "threshold_sign_share_batch"):
        assert metrics[f"crypto.{op}.calls"] == 1, op
        assert metrics[f"crypto.{op}.items"] == n, op


def test_timed_crypto_batch_results_match_inner():
    inner = FastCrypto(seed="timed-eq")
    timed = TimedCrypto(FastCrypto(seed="timed-eq"), Observability())
    assert timed.sign_batch("alice", MESSAGES) == inner.sign_batch("alice", MESSAGES)
