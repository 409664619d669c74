"""Batch signature verification: equivalence with per-message verify."""

import pytest

from repro.crypto import FastCrypto, RealCrypto, Signature


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
