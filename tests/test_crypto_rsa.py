"""Tests for the from-scratch RSA."""

import builtins
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import RealCrypto, generate_keypair, rsa
from repro.crypto.rsa import _fdh, generate_prime, is_probable_prime
from repro.crypto.threshold import ThresholdKeyShare
from repro.prime.messages import Ping


def test_keygen_deterministic_from_seed():
    a = generate_keypair(bits=512, seed="k1")
    b = generate_keypair(bits=512, seed="k1")
    assert a.n == b.n and a.d == b.d


def test_keygen_different_seeds_differ():
    assert generate_keypair(512, "k1").n != generate_keypair(512, "k2").n


def test_modulus_size():
    pair = generate_keypair(bits=512, seed="size")
    assert 500 <= pair.n.bit_length() <= 512


def test_sign_verify_roundtrip():
    pair = generate_keypair(bits=512, seed="sv")
    sig = pair.sign(b"message")
    assert pair.public.verify(b"message", sig)


def test_verify_rejects_other_message():
    pair = generate_keypair(bits=512, seed="sv")
    sig = pair.sign(b"message")
    assert not pair.public.verify(b"other", sig)


def test_verify_rejects_tampered_signature():
    pair = generate_keypair(bits=512, seed="sv")
    sig = pair.sign(b"message")
    assert not pair.public.verify(b"message", sig + 1)


def test_verify_rejects_out_of_range_signature():
    pair = generate_keypair(bits=512, seed="sv")
    assert not pair.public.verify(b"m", 0)
    assert not pair.public.verify(b"m", pair.n)


def test_signatures_differ_per_message():
    pair = generate_keypair(bits=512, seed="sv")
    assert pair.sign(b"a") != pair.sign(b"b")


def test_cross_key_verification_fails():
    a = generate_keypair(bits=512, seed="a")
    b = generate_keypair(bits=512, seed="b")
    sig = a.sign(b"m")
    assert not b.public.verify(b"m", sig)


def test_is_probable_prime_known_values():
    rng = random.Random(0)
    for p in (2, 3, 5, 7, 97, 7919, 2 ** 61 - 1):
        assert is_probable_prime(p, rng)
    for c in (0, 1, 4, 100, 7917, 2 ** 61 - 2):
        assert not is_probable_prime(c, rng)


def test_generate_prime_has_requested_size():
    rng = random.Random(1)
    p = generate_prime(128, rng)
    assert p.bit_length() == 128
    assert is_probable_prime(p, random.Random(2))


def test_small_keys_work_fast():
    pair = generate_keypair(bits=256, seed="small")
    sig = pair.sign(b"x")
    assert pair.public.verify(b"x", sig)


# --- the private-key kernel: CRT signing equals the textbook exponent ---

def reference_sign(pair, data):
    """The textbook private-key operation, one exponent modulo ``n``: what
    ``RsaKeyPair.sign`` computed before it went through the CRT."""
    return builtins.pow(_fdh(data, pair.n), pair.d, pair.n)


PROPERTY_KEYS = [
    generate_keypair(bits=bits, seed=f"crt/{seed}")
    for bits in (256, 512) for seed in range(5)
]


@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(PROPERTY_KEYS), data=st.binary(max_size=200))
def test_sign_equals_the_full_modulus_exponent(pair, data):
    assert pair.sign(data) == reference_sign(pair, data)


@pytest.mark.parametrize("bits", [256, 512])
def test_crt_on_the_edge_residues(bits, monkeypatch):
    """Residues sharing a factor with ``n`` and the ends of ``Z_n``: the
    recombination must not assume ``m`` is a unit."""
    pair = generate_keypair(bits=bits, seed="edges")
    n, p, q = pair.n, pair.p, pair.q
    for residue in (0, 1, p, q, 2 * p, n - 1):
        monkeypatch.setattr(rsa, "_fdh", lambda data, modulus, m=residue: m)
        assert pair.sign(b"") == builtins.pow(residue, pair.d, n), residue


#: ``RealCrypto(seed="spire/7")`` signatures as recorded with ``fdh^d mod n``
GOLDEN_SIGNATURES = {
    ("replica:0", b""): 0x2fdfdaa83b14702ad8033f2b3618ca2031991839b04030515a40bc547596c21cdb6ec696b37c557f8a6473343855d3e854e3c325d7e3b1b4b67dfb81c1f229d7,
    ("replica:0", ("status", 3, 1.5)): 0xa483b35b100d3339c72083ed141841d3dcf64d19d79f77c5f36b0b8001f5dd3ca9cecb040c6ba600f795bfe43107d2d1651fb5c9cc035fd24fca14974018280f,
    ("replica:0", Ping("replica:0", 1, 0.0)): 0x77068b967c88b1b68ac1a5d3db09cf23c47459b810b50f57c9c329e9bf221b793153fe7d9de2c271e8b00ff982b6b179bac5a8ec16201bedd23c7f170de7f05d,
    ("proxy:field", b""): 0x8cb3cf9d17eaa7aa067d1df164262b8d1bd50a596bc68925839c360e34092f2fb1aa5e9d0007c891e4c962f19c9ed65917b8fc12629ddac1ea6c36c57099e79f,
    ("proxy:field", ("status", 3, 1.5)): 0x85d2a82c0a30a8b985d6dd59a327ec1d29b1b58848627f229a9cce4f690ecfde4ba40d6d97ca73f8e5a251e0913d7815fcd0cf5c61586e657abbb2cb3f97e5c1,
    ("proxy:field", Ping("proxy:field", 1, 0.0)): 0x2520018b581833e488e05350cd750ab61a4c3b791590124bb1631be11e984167b39a727815d67281985903630cbc67ad0b86cf0178f3c4594b672ae485f30a24,
}


def test_deployment_signatures_match_the_recorded_values():
    crypto = RealCrypto(seed="spire/7")
    for (signer, message), value in GOLDEN_SIGNATURES.items():
        signature = crypto.sign(signer, message)
        assert signature.value == value, (signer, message)
        assert crypto.verify(signature, message)


def test_sign_exponentiates_modulo_p_and_q_only(monkeypatch):
    pair = generate_keypair(bits=512, seed="recorded")
    moduli = []

    def recording_pow(base, exponent, modulus=None):
        moduli.append(modulus)
        return builtins.pow(base, exponent, modulus)

    monkeypatch.setattr(rsa, "pow", recording_pow, raising=False)
    signature = pair.sign(b"recorded")
    assert moduli == [pair.p, pair.q]
    assert pair.n not in moduli
    monkeypatch.undo()
    assert signature == reference_sign(pair, b"recorded")


def test_threshold_share_holds_no_factorisation():
    """A Shoup share stays a full-modulus exponent: a holder of ``p`` and
    ``q`` could sign without the other replicas."""
    assert [f.name for f in dataclasses.fields(ThresholdKeyShare)] == [
        "index", "secret", "public",
    ]
