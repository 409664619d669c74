"""Minimal pure-Python RSA signatures.

The real Spire uses OpenSSL RSA for replica and client signatures. This is
a from-scratch implementation sufficient for the reproduction: determinstic
Miller-Rabin prime generation from a seeded RNG (so key material is
reproducible per run), full-domain-hash style signing over SHA-256, and
verification. As in OpenSSL, the private-key operation is done by the
Chinese Remainder Theorem (RFC 8017 §5.1.2): two half-size exponents
modulo ``p`` and ``q``, equal to ``fdh^d mod n`` for every residue. Shoup
shares (:mod:`repro.crypto.threshold`) are not: a share holder has no
factorisation, so a share is one full-size exponent modulo ``n``. Key
sizes default to 512 bits — small by production standards but this code
models protocol behaviour, not cryptographic strength margins.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

__all__ = ["RsaKeyPair", "RsaPublicKey", "generate_keypair", "is_probable_prime", "generate_prime"]

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def is_probable_prime(n: int, rng: random.Random, rounds: int = 30) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a probable prime with the top two bits set."""
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    def verify(self, data: bytes, signature: int) -> bool:
        """Verify a full-domain-hash signature over ``data``."""
        if not 0 < signature < self.n:
            return False
        return pow(signature, self.e, self.n) == _fdh(data, self.n)


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key pair; ``d`` is the private exponent. The CRT exponents
    ``dp``, ``dq``, the coefficient ``q_inv`` (RFC 8017 §3.2) and the
    public key are derived from it once, when the pair is built."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False)
    dq: int = field(init=False, repr=False)
    q_inv: int = field(init=False, repr=False)
    public: RsaPublicKey = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, q, d = self.p, self.q, self.d
        object.__setattr__(self, "dp", d % (p - 1))
        object.__setattr__(self, "dq", d % (q - 1))
        object.__setattr__(self, "q_inv", pow(q, -1, p))
        object.__setattr__(self, "public", RsaPublicKey(self.n, self.e))

    def sign(self, data: bytes) -> int:
        """Produce a full-domain-hash signature over ``data``: ``fdh^d mod
        n`` by two half-size exponents and Garner's recombination."""
        m = _fdh(data, self.n)
        p, q = self.p, self.q
        s1 = pow(m, self.dp, p)
        s2 = pow(m, self.dq, q)
        return s2 + q * (self.q_inv * (s1 - s2) % p)


def _fdh(data: bytes, n: int) -> int:
    """Full-domain hash: expand SHA-256 over ``data`` to an element of Z_n."""
    digest = b""
    counter = 0
    target_len = (n.bit_length() + 7) // 8 + 8
    while len(digest) < target_len:
        digest += hashlib.sha256(counter.to_bytes(4, "big") + data).digest()
        counter += 1
    return int.from_bytes(digest, "big") % n


def generate_keypair(bits: int = 512, seed: str = "rsa", e: int = 65537) -> RsaKeyPair:
    """Deterministically generate an RSA key pair from a seed string."""
    rng = random.Random(f"rsa-keygen/{seed}/{bits}")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        lam = (p - 1) * (q - 1) // _gcd(p - 1, q - 1)
        if _gcd(e, lam) != 1:
            continue
        d = pow(e, -1, lam)
        return RsaKeyPair(n=p * q, e=e, d=d, p=p, q=q)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
