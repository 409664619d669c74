"""Tests for the pluggable crypto providers.

``any_crypto`` is parametrized over FastCrypto and RealCrypto, so every
test here asserts behavioural parity between the two backends.
"""

import hmac
from hashlib import sha256

import pytest

from repro.crypto import (
    FastCrypto,
    RealCrypto,
    Signature,
    ThresholdShare,
    ThresholdSignature,
    encode,
)
from repro.crypto.encoding import _entry_for


def test_sign_verify_roundtrip(any_crypto):
    sig = any_crypto.sign("alice", ("msg", 1))
    assert any_crypto.verify(sig, ("msg", 1))


def test_verify_rejects_wrong_message(any_crypto):
    sig = any_crypto.sign("alice", ("msg", 1))
    assert not any_crypto.verify(sig, ("msg", 2))


def test_verify_rejects_wrong_signer(any_crypto):
    sig = any_crypto.sign("alice", "m")
    forged = Signature("bob", sig.value)
    assert not any_crypto.verify(forged, "m")


def test_signatures_bound_to_signer(any_crypto):
    assert any_crypto.sign("alice", "m") != any_crypto.sign("bob", "m")


def test_mac_roundtrip(any_crypto):
    tag = any_crypto.mac("a", "b", {"k": 1})
    assert any_crypto.check_mac("a", "b", {"k": 1}, tag)


def test_mac_symmetric_key(any_crypto):
    tag = any_crypto.mac("a", "b", "m")
    assert any_crypto.check_mac("b", "a", "m", tag)


def test_mac_rejects_tamper(any_crypto):
    tag = any_crypto.mac("a", "b", "m")
    assert not any_crypto.check_mac("a", "b", "other", tag)
    assert not any_crypto.check_mac("a", "c", "m", tag)


def test_real_mac_is_hmac_over_the_message_digest():
    message = ("reading", 7, 1.5)
    pair_key = sha256(b"r/mac/a/b").digest()
    assert RealCrypto(seed="r").mac("b", "a", message) == hmac.new(
        pair_key, sha256(encode(message)).digest(), "sha256"
    ).digest()


def test_fast_mac_is_recomputed_not_memoized():
    crypto = FastCrypto()
    message = Signature("reading", 7)  # any frozen message: it keeps an entry
    tag = crypto.mac("a", "b", message)
    assert crypto.check_mac("b", "a", message, tag)
    encoding, raw_digest, _, derived_tags, _ = _entry_for(message)
    assert encoding == encode(message) and raw_digest is not None
    assert derived_tags is None  # the receiver recomputed; nothing was kept


def test_threshold_group_lifecycle(any_crypto):
    any_crypto.create_threshold_group("g", 6, 2)
    assert any_crypto.threshold_parameters("g") == (6, 2)
    # idempotent re-creation with identical parameters
    any_crypto.create_threshold_group("g", 6, 2)
    with pytest.raises(ValueError):
        any_crypto.create_threshold_group("g", 6, 3)


def test_threshold_combine_and_verify(any_crypto):
    any_crypto.create_threshold_group("tg", 6, 2)
    message = ("record", 7)
    shares = [
        any_crypto.threshold_sign_share("tg", index, message)
        for index in (2, 5)
    ]
    combined = any_crypto.threshold_combine("tg", message, shares)
    assert combined is not None
    assert any_crypto.threshold_verify(combined, message)
    assert not any_crypto.threshold_verify(combined, ("record", 8))


def test_threshold_below_threshold_fails(any_crypto):
    any_crypto.create_threshold_group("tg2", 6, 3)
    message = "m"
    shares = [any_crypto.threshold_sign_share("tg2", i, message) for i in (1, 2)]
    assert any_crypto.threshold_combine("tg2", message, shares) is None


def test_threshold_duplicate_indices_do_not_count(any_crypto):
    any_crypto.create_threshold_group("tg3", 6, 2)
    message = "m"
    share = any_crypto.threshold_sign_share("tg3", 1, message)
    assert any_crypto.threshold_combine("tg3", message, [share, share]) is None


def test_threshold_corrupt_share_tolerated(any_crypto):
    any_crypto.create_threshold_group("tg4", 6, 2)
    message = "m"
    shares = [
        any_crypto.threshold_sign_share("tg4", 1, message),
        ThresholdShare("tg4", 2, "garbage"),
        any_crypto.threshold_sign_share("tg4", 3, message),
    ]
    combined = any_crypto.threshold_combine("tg4", message, shares)
    assert combined is not None
    assert any_crypto.threshold_verify(combined, message)


def test_threshold_shares_over_wrong_message_rejected(any_crypto):
    any_crypto.create_threshold_group("tg5", 6, 2)
    shares = [
        any_crypto.threshold_sign_share("tg5", 1, "a"),
        any_crypto.threshold_sign_share("tg5", 2, "b"),
    ]
    assert any_crypto.threshold_combine("tg5", "a", shares) is None


def test_threshold_verify_unknown_group(any_crypto):
    fake = ThresholdSignature("nope", "value")
    assert not any_crypto.threshold_verify(fake, "m")


def test_threshold_share_from_other_group_ignored(any_crypto):
    any_crypto.create_threshold_group("g1", 6, 2)
    any_crypto.create_threshold_group("g2", 6, 2)
    shares = [
        any_crypto.threshold_sign_share("g1", 1, "m"),
        any_crypto.threshold_sign_share("g2", 2, "m"),
    ]
    assert any_crypto.threshold_combine("g1", "m", shares) is None


def test_fast_share_index_out_of_range():
    from repro.crypto import FastCrypto

    provider = FastCrypto()
    provider.create_threshold_group("g", 4, 2)
    with pytest.raises(ValueError):
        provider.threshold_sign_share("g", 9, "m")


def test_providers_deterministic_per_seed():
    from repro.crypto import FastCrypto

    a = FastCrypto(seed="s").sign("x", "m")
    b = FastCrypto(seed="s").sign("x", "m")
    c = FastCrypto(seed="t").sign("x", "m")
    assert a == b
    assert a != c


def test_a_provider_verifies_what_it_signed_after_a_same_seed_twin():
    # verify knows only signers that signed through its provider; a
    # same-seed twin's tag already riding on the message must not hide one
    from repro.prime.messages import Ping

    message = Ping("replica:0", 1, 0.0)
    first, twin = FastCrypto(seed="s"), FastCrypto(seed="s")
    first.sign("replica:0", message)
    assert twin.verify(twin.sign("replica:0", message), message)
    assert not twin.verify(Signature("replica:1", "x"), message)
