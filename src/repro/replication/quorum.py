"""Quorum math and signed-certificate collection shared by all protocols.

Every agreement step in the reproduction — pre-order certificates,
prepare/commit certificates, stable checkpoints, view-change sets — has
the same shape: collect signed votes keyed by *what* is being voted on
(a round key) and *which value* (a digest), declare success at a
protocol-defined quorum, and keep a deterministic slice of the votes as a
transferable certificate. This module owns that shape once:

* :class:`QuorumTracker` — the two-level vote table
  ``key -> digest -> sender -> signed vote`` (last write per sender wins,
  so duplicates never inflate a count, and an equivocating sender can add
  at most one vote per digest);
* :func:`assemble_certificate` — the canonical certificate slice: the
  quorum-first voters in sender-name order, so every correct replica
  assembles the identical certificate from the same vote set;
* :func:`collect_valid_voters` — the receive side: re-check a
  certificate built elsewhere, either *strictly* (one
  bad vote poisons the whole certificate — the rule for checkpoint and
  reconciliation proofs, whose senders claim the set is wholly valid) or
  *leniently* (bad votes are skipped — the rule for view-change prepared
  entries, where a Byzantine peer must not be able to invalidate honest
  votes by appending garbage).

The thresholds themselves stay in the protocol configs (Prime:
``2f + k + 1`` of ``n = 3f + 2k + 1``; PBFT: ``ceil((n + f + 1) / 2)``) —
callers pass the quorum in, this module enforces it uniformly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..crypto.schema import is_a
from .messages import SignedMessage

__all__ = [
    "QuorumTracker",
    "ThresholdShareTracker",
    "assemble_certificate",
    "collect_valid_voters",
]


def assemble_certificate(
    voters: Dict[str, SignedMessage], quorum: int
) -> Tuple[SignedMessage, ...]:
    """The canonical certificate from a vote map: quorum-first voters in
    sender-name order. Deterministic in the vote *set*, not the arrival
    order, so replicas that saw votes in different orders still assemble
    byte-identical certificates."""
    return tuple(voters[s] for s in sorted(voters))[:quorum]


class QuorumTracker:
    """Vote table ``key -> digest -> sender -> signed vote``.

    ``key`` identifies the decision round (a sequence number, a
    ``(view, seq)`` pair — anything hashable); ``digest`` the value voted
    for. One sender contributes at most one vote per ``(key, digest)``
    (re-votes overwrite), so duplicate deliveries never reach quorum
    early, and an equivocating sender splits its weight across digests
    instead of double-counting any one of them.
    """

    def __init__(self, quorum: Optional[int] = None) -> None:
        #: default threshold for :meth:`has_quorum` / :meth:`certificate`;
        #: pass per-call to track a config whose quorum can be swapped.
        self.quorum = quorum
        self._votes: Dict[Any, Dict[str, Dict[str, SignedMessage]]] = {}

    # -- recording -----------------------------------------------------
    def add(self, key: Any, digest: str, sender: str, signed: SignedMessage) -> int:
        """Record one vote; returns the vote count for ``(key, digest)``."""
        senders = self._votes.setdefault(key, {}).setdefault(digest, {})
        senders[sender] = signed
        return len(senders)

    # -- queries -------------------------------------------------------
    def voters(self, key: Any, digest: str) -> Dict[str, SignedMessage]:
        return self._votes.get(key, {}).get(digest, {})

    def count(self, key: Any, digest: str) -> int:
        return len(self.voters(key, digest))

    def digests(self, key: Any) -> List[str]:
        """Every digest that received at least one vote for ``key``."""
        return list(self._votes.get(key, ()))

    def equivocators(self, key: Any) -> Set[str]:
        """Senders that voted for more than one digest under ``key``."""
        seen: Dict[str, int] = {}
        for senders in self._votes.get(key, {}).values():
            for sender in senders:
                seen[sender] = seen.get(sender, 0) + 1
        return {sender for sender, n in seen.items() if n > 1}

    def _threshold(self, quorum: Optional[int]) -> int:
        if quorum is None:
            quorum = self.quorum
        if quorum is None:
            raise ValueError("no quorum configured or supplied")
        return quorum

    def has_quorum(self, key: Any, digest: str, quorum: Optional[int] = None) -> bool:
        return self.count(key, digest) >= self._threshold(quorum)

    def certificate(
        self, key: Any, digest: str, quorum: Optional[int] = None
    ) -> Optional[Tuple[SignedMessage, ...]]:
        """The canonical certificate once quorum is reached, else None."""
        threshold = self._threshold(quorum)
        voters = self.voters(key, digest)
        if len(voters) < threshold:
            return None
        return assemble_certificate(voters, threshold)

    # -- garbage collection --------------------------------------------
    def drop(self, key: Any) -> None:
        self._votes.pop(key, None)

    def drop_upto(self, bound: Any) -> None:
        """Drop every key ``<= bound`` (ordered keys, e.g. sequence numbers)."""
        for key in [k for k in self._votes if k <= bound]:
            del self._votes[key]

    def clear(self) -> None:
        self._votes.clear()

    # -- mapping-style introspection -----------------------------------
    def __contains__(self, key: Any) -> bool:
        return key in self._votes

    def __iter__(self):
        return iter(self._votes)

    def __len__(self) -> int:
        return len(self._votes)


class ThresholdShareTracker:
    """Share table ``key -> value digest -> sender -> share``.

    The threshold-crypto sibling of :class:`QuorumTracker`: where the
    quorum tracker counts *signed votes* toward a transferable
    certificate, this tracks *threshold-signature shares* toward one
    combined signature. ``key`` identifies the thing being signed (a
    delivery-record key, a batch ``(origin, po_seq)`` pair), ``digest``
    distinguishes content variants (a Byzantine sender may sign a
    different record or Merkle root for the same key — variants must
    never pool their shares), and one sender contributes at most one
    share per ``(key, digest)`` (re-sends overwrite), so duplicates
    cannot fake reaching the combining threshold.

    The tracker is crypto-agnostic: shares are opaque values; callers
    hand :meth:`shares` to their provider's ``threshold_combine`` once
    :meth:`ready` says a combining attempt is worthwhile.
    """

    def __init__(self, threshold: Optional[int] = None) -> None:
        self.threshold = threshold
        self._shares: Dict[Any, Dict[Any, Dict[str, Any]]] = {}

    # -- recording -----------------------------------------------------
    def add(self, key: Any, digest: Any, sender: str, share: Any) -> int:
        """Record one share; returns the count for ``(key, digest)``."""
        senders = self._shares.setdefault(key, {}).setdefault(digest, {})
        senders[sender] = share
        return len(senders)

    # -- queries -------------------------------------------------------
    def shares(self, key: Any, digest: Any) -> List[Any]:
        """All distinct-sender shares for ``(key, digest)``."""
        return list(self._shares.get(key, {}).get(digest, {}).values())

    def count(self, key: Any, digest: Any) -> int:
        return len(self._shares.get(key, {}).get(digest, {}))

    def digests(self, key: Any) -> List[Any]:
        """Every content variant that received at least one share."""
        return list(self._shares.get(key, ()))

    def _bound(self, threshold: Optional[int]) -> int:
        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise ValueError("no threshold configured or supplied")
        return threshold

    def ready(self, key: Any, digest: Any, threshold: Optional[int] = None) -> bool:
        """True once a combining attempt can possibly succeed."""
        return self.count(key, digest) >= self._bound(threshold)

    # -- garbage collection --------------------------------------------
    def drop(self, key: Any) -> None:
        self._shares.pop(key, None)

    def clear(self) -> None:
        self._shares.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._shares

    def __len__(self) -> int:
        return len(self._shares)


def collect_valid_voters(
    proof: Iterable[SignedMessage],
    *,
    membership: Any,
    verify_signed: Callable[[SignedMessage], bool],
    kinds: Tuple[type, ...],
    check: Optional[Callable[[Any], bool]] = None,
    strict: bool = True,
    initial: Iterable[str] = (),
) -> Optional[Set[str]]:
    """Validate a certificate's votes; returns the distinct valid voters.

    A vote is valid when its payload is exactly of one of ``kinds`` and
    well shaped, passes the caller's content ``check``, names its signer
    in its own ``sender`` field, that sender is in ``membership``, and the
    envelope signature verifies.

    ``strict=True``: one invalid vote rejects the whole set (returns
    None) — the rule for proofs whose sender vouches for every vote.
    ``strict=False``: invalid votes are skipped — the rule for embedded
    vote sets where appended garbage must not invalidate honest votes.
    ``initial`` pre-seeds voters counted by construction (e.g. a leader
    whose pre-prepare doubles as its prepare vote).
    """
    voters: Set[str] = set(initial)
    for signed in proof:
        payload = signed.payload
        valid = (
            payload.__class__ in kinds
            and is_a(payload, payload.__class__)
            and (check is None or check(payload))
            and payload.sender == signed.signature.signer
            and payload.sender in membership
            and verify_signed(signed)
        )
        if valid:
            voters.add(payload.sender)
        elif strict:
            return None
    return voters

