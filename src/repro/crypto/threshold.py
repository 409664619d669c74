"""Threshold RSA signatures (Shoup-style, simplified).

In Spire, the replicated SCADA masters *threshold-sign* every ordered state
update so that RTU proxies and HMIs can verify a single compact signature
instead of checking ``f + 1`` individual replica signatures. We implement
the scheme from Shoup's "Practical Threshold Signatures", with one
simplification: instead of per-share zero-knowledge correctness proofs, the
combiner verifies the combined signature and — when given more than
``threshold`` shares, some possibly corrupted by compromised replicas —
searches subsets for a combination that verifies (robust combining). With
the small replica groups the paper uses (6–12), this is cheap and yields
the same observable behaviour: corrupted shares cannot prevent signature
generation as long as ``threshold`` honest shares are available, and no
coalition smaller than ``threshold`` can produce a valid signature.

Mathematical construction
-------------------------
Dealer: RSA modulus ``n = p*q``, Carmichael ``lam = lcm(p-1, q-1)``, public
exponent ``e`` (prime, > group size), ``d = e^-1 mod lam``. ``d`` is
Shamir-shared with a degree ``t-1`` polynomial over ``Z_lam``.

Partial signature of message hash ``x``: ``x_i = x^(2*delta*s_i) mod n``
with ``delta = l!``.

Combination over a share subset ``S`` of size ``t``: integer Lagrange
coefficients ``c_i = delta * lagrange_i(0)``; then
``w = prod x_i^(2*c_i) = x^(4*delta^2*d)``. Since ``gcd(4*delta^2, e) = 1``
extended Euclid gives ``a, b`` with ``a*4*delta^2 + b*e = 1`` and the final
signature is ``w^a * x^b = x^d``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

from .rsa import generate_prime, _fdh, _gcd

__all__ = [
    "ThresholdPublicKey",
    "ThresholdKeyShare",
    "ThresholdGroup",
    "PartialSignature",
    "generate_threshold_group",
]


@dataclass(frozen=True)
class ThresholdPublicKey:
    """Public data of a threshold-RSA group."""

    n: int
    e: int
    players: int
    threshold: int

    def verify(self, data: bytes, signature: int) -> bool:
        """Verify a combined threshold signature."""
        if not 0 < signature < self.n:
            return False
        return pow(signature, self.e, self.n) == _fdh(data, self.n)


@dataclass(frozen=True)
class PartialSignature:
    """A signature share produced by player ``index``."""

    index: int
    value: int


@dataclass(frozen=True)
class ThresholdKeyShare:
    """Secret share held by one player."""

    index: int
    secret: int
    public: ThresholdPublicKey

    def sign(self, data: bytes) -> PartialSignature:
        """Produce this player's partial signature over ``data``."""
        x = _fdh(data, self.public.n)
        delta = math.factorial(self.public.players)
        return PartialSignature(self.index, pow(x, 2 * delta * self.secret, self.public.n))


class ThresholdGroup:
    """Combiner-side view of a threshold group (public key + combining)."""

    def __init__(self, public: ThresholdPublicKey) -> None:
        self.public = public
        self._delta = math.factorial(public.players)

    def _lagrange_numerators(self, subset: Tuple[int, ...]) -> Dict[int, int]:
        """Integer coefficients ``delta * lagrange_i(0)`` for the subset."""
        coefficients: Dict[int, int] = {}
        for i in subset:
            num = 1
            den = 1
            for j in subset:
                if j == i:
                    continue
                num *= -j
                den *= i - j
            value = self._delta * num // den
            if value * den != self._delta * num:
                raise ArithmeticError("lagrange coefficient is not integral")
            coefficients[i] = value
        return coefficients

    def combine_shares_robust(
        self, data: bytes, shares: Iterable[PartialSignature]
    ) -> Optional[int]:
        """Combine in the presence of corrupted shares.

        Tries subsets of size ``threshold`` until one verifies. Returns
        None when no verifying combination exists (fewer than
        ``threshold`` honest shares).
        """
        share_map = {s.index: s.value for s in shares}
        if len(share_map) < self.public.threshold:
            return None
        indices = tuple(sorted(share_map))
        for subset in combinations(indices, self.public.threshold):
            signature = self._combine_subset(data, subset, share_map)
            if signature is not None:
                return signature
        return None

    def _combine_subset(
        self, data: bytes, subset: Tuple[int, ...], share_map: Dict[int, int]
    ) -> Optional[int]:
        n = self.public.n
        x = _fdh(data, n)
        coefficients = self._lagrange_numerators(subset)
        w = 1
        for i in subset:
            try:
                w = (w * pow(share_map[i], 2 * coefficients[i], n)) % n
            except ValueError:
                return None  # share not invertible: corrupted beyond use
        e_prime = 4 * self._delta * self._delta
        a, b = _ext_gcd_bezout(e_prime, self.public.e)
        try:
            signature = (pow(w, a, n) * pow(x, b, n)) % n
        except ValueError:
            return None
        if self.public.verify(data, signature):
            return signature
        return None


def _ext_gcd_bezout(u: int, v: int) -> Tuple[int, int]:
    """Return ``(a, b)`` with ``a*u + b*v == gcd(u, v) == 1``."""
    old_r, r = u, v
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    if old_r != 1:
        raise ArithmeticError(f"exponents not coprime: gcd={old_r}")
    return old_a, old_b


def generate_threshold_group(
    players: int,
    threshold: int,
    bits: int = 512,
    seed: str = "threshold",
    e: int = 65537,
) -> Tuple[ThresholdPublicKey, Dict[int, ThresholdKeyShare]]:
    """Trusted-dealer key generation for a ``threshold``-of-``players`` group.

    Player indices are 1-based (Shamir evaluation points).
    """
    if not 1 <= threshold <= players:
        raise ValueError(f"invalid threshold {threshold} for {players} players")
    if e <= players:
        raise ValueError("public exponent must exceed the number of players")
    rng = random.Random(f"threshold-keygen/{seed}/{players}/{threshold}/{bits}")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        lam = (p - 1) * (q - 1) // _gcd(p - 1, q - 1)
        if _gcd(e, lam) != 1:
            continue
        break
    n = p * q
    d = pow(e, -1, lam)
    coefficients = [d] + [rng.randrange(lam) for _ in range(threshold - 1)]
    public = ThresholdPublicKey(n=n, e=e, players=players, threshold=threshold)
    shares = {}
    for i in range(1, players + 1):
        value = 0
        for power, coefficient in enumerate(coefficients):
            value = (value + coefficient * pow(i, power, lam)) % lam
        shares[i] = ThresholdKeyShare(index=i, secret=value, public=public)
    return public, shares
