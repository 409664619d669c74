"""Pluggable cryptography provider.

Protocol code never touches key material directly; it asks a
:class:`CryptoProvider` to sign/verify/MAC on behalf of named principals
and threshold groups. Two implementations are provided:

* :class:`RealCrypto` — the from-scratch RSA and threshold-RSA of
  :mod:`repro.crypto.rsa` / :mod:`repro.crypto.threshold`. Used by the
  crypto-focused tests and available everywhere.
* :class:`FastCrypto` — a *simulation-faithful* provider: tags are SHA-256
  digests keyed on secret per-principal strings. Within the simulation's
  adversary model (an attacker can only invoke signing for principals it
  controls), tags are unforgeable, and verification behaves identically to
  real signatures. This keeps the virtual-time benchmarks — which replay
  hundreds of thousands of updates — from being dominated by bignum math,
  exactly the substitution DESIGN.md §3 documents.

Both providers share the same threshold semantics: a combined signature
exists iff at least ``threshold`` distinct genuine shares over the same
data are presented, and corrupted shares never block combination when
enough genuine shares are present.

Link MACs
---------
A link MAC authenticates the 32-byte digest of a message, not its
encoding: ``HMAC(pair_key, digest_bytes(message))`` in ``RealCrypto``,
``sha256(link_key || digest_bytes(message))`` in ``FastCrypto``. The
digest is kept on the message object by :mod:`repro.crypto.encoding`, so
a datagram flooded over many links is encoded and hashed once and each
hop pays one 64-byte hash; the tag itself is kept nowhere — the sender
computes it and the receiver recomputes and ``compare_digest``s it. A
tampered or substituted message is a different object, is encoded afresh,
and yields a different digest.

Batch verification
------------------
``verify_batch`` checks a sequence of signatures against their messages
(:func:`repro.prime.messages.verify_client_updates` verifies a pre-order
request's client updates with it). It is a loop over :meth:`verify`.

Checked once per message object
-------------------------------
Every receiver is handed the same message object, so a provider keeps
what it has established in the message's entry (slot 3): ``FastCrypto``
its derived tags, ``RealCrypto`` each value a real modular exponentiation
accepted, keyed by that public key's ``(n, e)``, never by a name.
``RealCrypto`` records a value only once its own check (or
``threshold_combine``'s) passed it; signing, shares and MACs record
nothing. A copy carries no entry, so it is checked afresh.

Ill-typed input
---------------
``verify`` and ``threshold_verify`` answer ``False``, and never raise,
for a signature of the wrong class, a signer or group that is not a
``str``, a ``RealCrypto`` value that is not an ``int`` (``bool``
included) and a message no encoder accepts: a Byzantine peer picks all
of them. The test is by class identity, before any key is looked up or
derived. ``verify`` looks keys up and never creates them: a signer that
never signed through the provider has no signature to check, so the
answer is ``False`` and the per-principal tables (``RealCrypto._keys``,
``FastCrypto._secrets``) do not grow with the names a peer makes up.
"""

from __future__ import annotations

import hmac as hmac_module
from hashlib import sha256 as _sha256
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .encoding import _ENTRY, EncodingError, _entry_for, digest_bytes, encode_cached
from .rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from .threshold import (
    PartialSignature,
    ThresholdGroup,
    ThresholdKeyShare,
    ThresholdPublicKey,
    generate_threshold_group,
)

__all__ = [
    "CryptoProvider",
    "RealCrypto",
    "FastCrypto",
    "Signature",
    "ThresholdShare",
    "ThresholdSignature",
]


class _LinkKeys(dict):
    """``(src, dst)`` -> the symmetric key of that link, derived on first
    use, so a MAC per hop costs one lookup and no ``sorted()``."""

    def __init__(self, seed: str) -> None:
        super().__init__()
        self.seed = seed

    def __missing__(self, link: Tuple[str, str]) -> bytes:
        lo, hi = sorted(link)
        key = self[link] = _sha256(f"{self.seed}/mac/{lo}/{hi}".encode()).digest()
        return key


@dataclass(frozen=True)
class Signature:
    """An individual principal's signature over canonical-encoded data."""

    signer: str
    value: Any


@dataclass(frozen=True)
class ThresholdShare:
    """One replica's share of a threshold signature over some data."""

    group: str
    index: int
    value: Any


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined threshold signature over some data."""

    group: str
    value: Any


class CryptoProvider:
    """Abstract interface; see module docstring."""

    # -- individual signatures -----------------------------------------
    def sign(self, signer: str, message: Any) -> Signature:
        raise NotImplementedError

    def verify(self, signature: Signature, message: Any) -> bool:
        raise NotImplementedError

    # -- pairwise MACs (link authentication) ----------------------------
    def mac(self, src: str, dst: str, message: Any) -> bytes:
        raise NotImplementedError

    def check_mac(self, src: str, dst: str, message: Any, tag: bytes) -> bool:
        raise NotImplementedError

    # -- threshold signatures -------------------------------------------
    def create_threshold_group(self, group: str, players: int, threshold: int) -> None:
        raise NotImplementedError

    def threshold_parameters(self, group: str) -> Tuple[int, int]:
        """Return ``(players, threshold)`` for a group."""
        raise NotImplementedError

    def threshold_sign_share(self, group: str, index: int, message: Any) -> ThresholdShare:
        raise NotImplementedError

    def threshold_combine(
        self, group: str, message: Any, shares: Iterable[ThresholdShare]
    ) -> Optional[ThresholdSignature]:
        raise NotImplementedError

    def threshold_verify(self, signature: ThresholdSignature, message: Any) -> bool:
        raise NotImplementedError

    def verify_batch(
        self, signatures: Sequence[Signature], messages: Sequence[Any]
    ) -> List[bool]:
        if len(signatures) != len(messages):
            raise ValueError(
                f"batch length mismatch: {len(signatures)} signatures vs "
                f"{len(messages)} messages"
            )
        return [
            self.verify(signature, message)
            for signature, message in zip(signatures, messages)
        ]


#: what a value is checked under: a principal's or a threshold group's key
_PublicKey = Union[RsaPublicKey, ThresholdPublicKey]


def _record(entry: list, public: _PublicKey, value: int) -> None:
    """Note in ``entry`` that ``value`` passed a real check under ``public``."""
    checked = entry[3]
    if checked is None:
        checked = entry[3] = {}
    checked[public.n, public.e] = value


def _checked(public: _PublicKey, message: Any, value: int) -> bool:
    """``public.verify(encode(message), value)``, answered from the
    message's entry when this value already passed under this key."""
    try:
        entry = _entry_for(message)
    except EncodingError:
        return False
    checked = entry[3]
    if checked is not None and checked.get((public.n, public.e)) == value:
        return True
    if not public.verify(entry[0], value):
        return False
    _record(entry, public, value)
    return True


class RealCrypto(CryptoProvider):
    """RSA-backed provider (keys generated lazily and deterministically)."""

    def __init__(self, seed: str = "real", bits: int = 512) -> None:
        self.seed = seed
        self.bits = bits
        self._keys: Dict[str, RsaKeyPair] = {}
        self._groups: Dict[str, Tuple[ThresholdPublicKey, Dict[int, ThresholdKeyShare]]] = {}
        self._link_keys = _LinkKeys(seed)

    def _keypair(self, principal: str) -> RsaKeyPair:
        if principal not in self._keys:
            self._keys[principal] = generate_keypair(
                bits=self.bits, seed=f"{self.seed}/{principal}"
            )
        return self._keys[principal]

    def sign(self, signer: str, message: Any) -> Signature:
        return Signature(signer, self._keypair(signer).sign(encode_cached(message)))

    def verify(self, signature: Signature, message: Any) -> bool:
        if (
            signature.__class__ is not Signature
            or signature.signer.__class__ is not str
            or signature.value.__class__ is not int
        ):
            return False
        keypair = self._keys.get(signature.signer)
        if keypair is None:
            return False  # never signed here: no signature of it exists
        return _checked(keypair.public, message, signature.value)

    def mac(self, src: str, dst: str, message: Any) -> bytes:
        return hmac_module.digest(
            self._link_keys[src, dst], digest_bytes(message), "sha256"
        )

    def check_mac(self, src: str, dst: str, message: Any, tag: bytes) -> bool:
        return hmac_module.compare_digest(self.mac(src, dst, message), tag)

    def create_threshold_group(self, group: str, players: int, threshold: int) -> None:
        if group in self._groups:
            public, _ = self._groups[group]
            if (public.players, public.threshold) != (players, threshold):
                raise ValueError(f"group {group!r} exists with different parameters")
            return
        self._groups[group] = generate_threshold_group(
            players, threshold, seed=f"{self.seed}/{group}"
        )

    def threshold_parameters(self, group: str) -> Tuple[int, int]:
        public, _ = self._groups[group]
        return public.players, public.threshold

    def threshold_sign_share(self, group: str, index: int, message: Any) -> ThresholdShare:
        _, shares = self._groups[group]
        partial = shares[index].sign(encode_cached(message))
        return ThresholdShare(group, index, partial.value)

    def threshold_combine(
        self, group: str, message: Any, shares: Iterable[ThresholdShare]
    ) -> Optional[ThresholdSignature]:
        public, _ = self._groups[group]
        combiner = ThresholdGroup(public)
        partials = [
            PartialSignature(s.index, s.value)
            for s in shares
            if s.group == group and s.value.__class__ is int
        ]
        entry = _entry_for(message)
        combined = combiner.combine_shares_robust(entry[0], partials)
        if combined is None:
            return None
        _record(entry, public, combined)  # the combiner has just verified it
        return ThresholdSignature(group, combined)

    def threshold_verify(self, signature: ThresholdSignature, message: Any) -> bool:
        if (
            signature.__class__ is not ThresholdSignature
            or signature.group.__class__ is not str
            or signature.value.__class__ is not int
        ):
            return False
        group = self._groups.get(signature.group)
        if group is None:
            return False
        return _checked(group[0], message, signature.value)


class FastCrypto(CryptoProvider):
    """Hash-based provider with identical observable semantics.

    A signature is ``sha256(secret(signer) || data)``; a threshold share is
    ``sha256(secret(group, index) || data)``; the combined signature is
    ``sha256(group-secret || data || sorted(valid share indices)[:threshold])``
    — but verification only re-derives from the group secret and data, so
    any valid combination verifies. Corrupt shares are detectable because
    they fail share-level re-derivation.
    """

    def __init__(self, seed: str = "fast") -> None:
        self.seed = seed
        self._groups: Dict[str, Tuple[int, int]] = {}
        #: derived secrets are pure functions of (seed, parts) — derive once
        self._secrets: Dict[Tuple[str, ...], bytes] = {}
        self._link_keys = _LinkKeys(seed)

    def _secret(self, *parts: str) -> bytes:
        secret = self._secrets.get(parts)
        if secret is None:
            secret = _sha256("/".join((self.seed,) + parts).encode()).digest()
            self._secrets[parts] = secret
        return secret

    def _derive(self, entry: list, *secret_parts: str) -> str:
        """Hex ``sha256(secret(*secret_parts) || encoding)`` of the message
        whose ``entry`` this is, kept in that entry so sign → verify and
        share → combine on one message object hash once. The key carries
        the seed: two providers never share a tag. Link MACs are not kept
        here: each is one hash over the message's digest."""
        tags = entry[3]
        if tags is None:
            tags = entry[3] = {}
        key = (self.seed,) + secret_parts
        tag = tags.get(key)
        if tag is None:
            tag = tags[key] = _sha256(
                self._secret(*secret_parts) + entry[0]
            ).hexdigest()
        return tag

    def sign(self, signer: str, message: Any) -> Signature:
        if ("sig", signer) not in self._secrets:
            # a same-seed provider may have left the tag on the message;
            # the signer still becomes one that ``verify`` knows
            self._secret("sig", signer)
        return Signature(signer, self._derive(_entry_for(message), "sig", signer))

    def verify(self, signature: Signature, message: Any) -> bool:
        if (
            signature.__class__ is not Signature
            or signature.signer.__class__ is not str
            or ("sig", signature.signer) not in self._secrets
        ):
            return False
        try:
            entry = _entry_for(message)
        except EncodingError:
            return False
        return self._derive(entry, "sig", signature.signer) == signature.value

    def mac(self, src: str, dst: str, message: Any) -> bytes:
        # a flooded datagram carries its digest from the first hop on;
        # the tag is still one fresh hash per call
        entry = getattr(message, _ENTRY, None)
        raw = entry[1] if entry is not None else None
        if raw is None:
            raw = digest_bytes(message)
        return _sha256(self._link_keys[src, dst] + raw).digest()

    def check_mac(self, src: str, dst: str, message: Any, tag: bytes) -> bool:
        return hmac_module.compare_digest(self.mac(src, dst, message), tag)

    def create_threshold_group(self, group: str, players: int, threshold: int) -> None:
        existing = self._groups.get(group)
        if existing is not None and existing != (players, threshold):
            raise ValueError(f"group {group!r} exists with different parameters")
        self._groups[group] = (players, threshold)

    def threshold_parameters(self, group: str) -> Tuple[int, int]:
        return self._groups[group]

    def _share_parts(self, group: str, index: int) -> Tuple[str, str, str]:
        players, _ = self._groups[group]
        if not 1 <= index <= players:
            raise ValueError(f"share index {index} out of range for group {group!r}")
        return "tshare", group, str(index)

    def threshold_sign_share(self, group: str, index: int, message: Any) -> ThresholdShare:
        parts = self._share_parts(group, index)
        return ThresholdShare(group, index, self._derive(_entry_for(message), *parts))

    def threshold_combine(
        self, group: str, message: Any, shares: Iterable[ThresholdShare]
    ) -> Optional[ThresholdSignature]:
        players, threshold = self._groups[group]
        entry = _entry_for(message)
        valid = {
            s.index
            for s in shares
            if s.group == group
            and 1 <= s.index <= players
            and s.value == self._derive(entry, "tshare", group, str(s.index))
        }
        if len(valid) < threshold:
            return None
        return ThresholdSignature(group, self._derive(entry, "tsig", group))

    def threshold_verify(self, signature: ThresholdSignature, message: Any) -> bool:
        if (
            signature.__class__ is not ThresholdSignature
            or signature.group.__class__ is not str
            or signature.group not in self._groups
        ):
            return False
        try:
            entry = _entry_for(message)
        except EncodingError:
            return False
        return signature.value == self._derive(entry, "tsig", signature.group)
