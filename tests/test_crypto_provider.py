"""Tests for the pluggable crypto providers.

``any_crypto`` is parametrized over FastCrypto and RealCrypto, so every
test here asserts behavioural parity between the two backends.
"""

import builtins
import dataclasses
import hmac
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    FastCrypto,
    RealCrypto,
    Signature,
    ThresholdShare,
    ThresholdSignature,
    encode,
    rsa,
    threshold,
)
from repro.crypto.encoding import _entry_for
from repro.prime.messages import Ping


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
    message = Ping("replica:0", 1, 0.0)
    first, twin = FastCrypto(seed="s"), FastCrypto(seed="s")
    first.sign("replica:0", message)
    assert twin.verify(twin.sign("replica:0", message), message)
    assert not twin.verify(Signature("replica:1", "x"), message)


# --- RealCrypto checks a value once per message object --------------------

def _record_pows(monkeypatch, module):
    """Every ``(exponent, modulus)`` the module raises to from now on."""
    calls = []

    def recording_pow(base, exponent, modulus=None):
        calls.append((exponent, modulus))
        return builtins.pow(base, exponent, modulus)

    monkeypatch.setattr(module, "pow", recording_pow, raising=False)
    return calls


def _signed(seed="lookup", signer="replica:0"):
    crypto = RealCrypto(seed=seed, bits=256)
    message = Ping("replica:0", 1, 0.0)
    return crypto, message, crypto.sign(signer, message), crypto._keys[signer].public


def test_six_verifies_of_one_message_make_one_modexp(monkeypatch):
    crypto, message, signature, public = _signed()
    pows = _record_pows(monkeypatch, rsa)
    assert [crypto.verify(signature, message) for _ in range(6)] == [True] * 6
    assert pows == [(public.e, public.n)]


def test_the_first_verify_after_sign_makes_its_modexp(monkeypatch):
    crypto, message, signature, public = _signed()
    assert _entry_for(message)[3] is None  # signing recorded nothing
    pows = _record_pows(monkeypatch, rsa)
    assert crypto.verify(signature, message)
    assert pows == [(public.e, public.n)]


def test_a_wrong_value_is_checked_in_full_every_time(monkeypatch):
    crypto, message, signature, public = _signed()
    forged = Signature("replica:0", signature.value ^ 1)
    pows = _record_pows(monkeypatch, rsa)
    assert [crypto.verify(forged, message) for _ in range(2)] == [False, False]
    assert crypto.verify(signature, message)
    assert [crypto.verify(forged, message) for _ in range(2)] == [False, False]
    assert pows == [(public.e, public.n)] * 5


def test_a_value_accepted_for_one_signer_is_not_anothers(monkeypatch):
    crypto, message, signature, _ = _signed()
    crypto.sign("replica:1", ("warm", "up"))  # replica:1 has a key too
    public_b = crypto._keys["replica:1"].public
    assert crypto.verify(signature, message)
    pows = _record_pows(monkeypatch, rsa)
    assert not crypto.verify(Signature("replica:1", signature.value), message)
    assert not crypto.verify(Signature("replica:1", signature.value), message)
    assert pows == [(public_b.e, public_b.n)] * 2


def test_fast_and_real_providers_keep_apart_in_one_entry(monkeypatch):
    fast, real = FastCrypto(seed="same"), RealCrypto(seed="same", bits=256)
    message = Ping("replica:0", 1, 0.0)
    fast_signature = fast.sign("replica:0", message)
    real_signature = real.sign("replica:0", message)
    assert fast.verify(fast_signature, message)
    public = real._keys["replica:0"].public
    pows = _record_pows(monkeypatch, rsa)
    assert real.verify(real_signature, message)  # fast's tag spares no check
    assert pows == [(public.e, public.n)]
    assert not real.verify(Signature("replica:0", fast_signature.value), message)
    assert not fast.verify(Signature("replica:0", real_signature.value), message)
    assert fast.verify(fast_signature, message) and real.verify(real_signature, message)
    assert set(_entry_for(message)[3]) == {(public.n, public.e), ("same", "sig", "replica:0")}


def test_a_replaced_copy_is_checked_again(monkeypatch):
    crypto, message, signature, public = _signed()
    assert crypto.verify(signature, message)
    copy = dataclasses.replace(message)
    pows = _record_pows(monkeypatch, rsa)
    assert crypto.verify(signature, copy) and crypto.verify(signature, copy)
    assert pows == [(public.e, public.n)]


def test_combine_leaves_threshold_verify_no_modexp(monkeypatch):
    crypto = RealCrypto(seed="lookup", bits=256)
    crypto.create_threshold_group("tg", 6, 2)
    message = Ping("replica:0", 1, 0.0)
    shares = [crypto.threshold_sign_share("tg", index, message) for index in (2, 5)]
    assert _entry_for(message)[3] is None  # sharing recorded nothing
    public, _ = crypto._groups["tg"]
    pows = _record_pows(monkeypatch, threshold)
    combined = crypto.threshold_combine("tg", message, shares)
    assert pows.count((public.e, public.n)) == 1
    assert crypto.threshold_verify(combined, message)
    assert crypto.threshold_verify(combined, message)
    assert pows.count((public.e, public.n)) == 1
    forged = ThresholdSignature("tg", combined.value ^ 1)
    assert not crypto.threshold_verify(forged, message)
    assert not crypto.threshold_verify(forged, message)
    assert pows.count((public.e, public.n)) == 3
    assert crypto.threshold_verify(combined, dataclasses.replace(message))
    assert pows.count((public.e, public.n)) == 4


EQUIVALENCE_SIGNERS = ("replica:0", "replica:1", "client:c")
EQUIVALENCE_PROVIDERS = (
    RealCrypto(seed="equivalence/a", bits=256),
    RealCrypto(seed="equivalence/b", bits=256),
)


@settings(max_examples=100, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["sign", "verify", "forge", "tamper"]),
            st.integers(0, 1),  # provider
            st.integers(0, 2),  # signer
            st.integers(0, 2),  # message
            st.integers(0, 7),  # which earlier signature; a tamper's change
        ),
        max_size=40,
    )
)
def test_the_lookup_answers_as_the_unrecorded_check(operations):
    messages = [Ping("replica:0", nonce, 0.0) for nonce in range(3)]
    values = []
    for operation, which, signer, slot, pick in operations:
        crypto, message = EQUIVALENCE_PROVIDERS[which], messages[slot]
        if operation == "sign":
            values.append(crypto.sign(EQUIVALENCE_SIGNERS[signer], message).value)
        elif operation == "tamper":
            # an equal copy (pick 0) or a changed one; neither keeps an entry
            messages[slot] = dataclasses.replace(message, sent_at=float(pick % 2))
        elif values:
            value = values[pick % len(values)]
            if operation == "forge":
                value ^= 1 << pick
            signature = Signature(EQUIVALENCE_SIGNERS[signer], value)
            keypair = crypto._keys.get(signature.signer)
            expected = keypair is not None and keypair.public.verify(encode(message), value)
            keys = len(crypto._keys)
            assert crypto.verify(signature, message) is expected
            assert len(crypto._keys) == keys
