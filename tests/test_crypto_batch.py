"""Batch signature verification: equivalence with per-message verify,
and CountingCrypto accounting."""

import pytest

from repro.crypto import CountingCrypto, FastCrypto, RealCrypto, Signature
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
# CountingCrypto accounting
# ----------------------------------------------------------------------


def test_timed_crypto_counts_link_macs_without_timing_them():
    obs = Observability()
    counting = CountingCrypto(FastCrypto(seed="timed"), obs)
    tag = counting.mac("a", "b", MESSAGES[0])
    assert counting.check_mac("a", "b", MESSAGES[0], tag)
    assert not counting.check_mac("a", "b", MESSAGES[1], tag)
    # a counter exists once its op has been called, and only then
    assert obs.registry.names() == ["crypto.check_mac.calls", "crypto.mac.calls"]
    assert obs.counter("crypto.mac.calls").value == 1
    assert obs.counter("crypto.check_mac.calls").value == 2


def test_timed_crypto_counts_batches_and_items():
    obs = Observability()
    counting = CountingCrypto(FastCrypto(seed="timed"), obs)
    counting.verify_batch(_signed(counting), MESSAGES)
    metrics = obs.snapshot()["metrics"]
    assert metrics["crypto.verify_batch.calls"] == 1
    assert metrics["crypto.verify_batch.items"] == len(MESSAGES)


def test_timed_crypto_batch_results_match_inner():
    inner = FastCrypto(seed="timed-eq")
    counting = CountingCrypto(inner, Observability())
    signatures = _signed(inner)
    signatures[3] = Signature("alice", inner.sign("mallory", MESSAGES[3]).value)
    assert counting.verify_batch(signatures, MESSAGES) == \
        inner.verify_batch(signatures, MESSAGES)
