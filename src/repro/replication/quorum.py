"""Quorum math and vote collection shared by all protocols.

Every tally in the reproduction — pre-order certificates,
prepare/commit certificates, stable checkpoints, suspects, view-change
sets, an endpoint's threshold shares — has the same shape: collect votes
keyed by *what* is being voted on (a round key) and *which value* (a
digest, a record), act at a threshold, and keep a deterministic slice of
the votes as a transferable certificate. This module owns that shape
once:

* :class:`QuorumTracker` — the one vote table
  ``key -> value -> sender -> vote`` (last write per sender wins, so
  duplicates never inflate a count, and an equivocating sender can add
  at most one vote per value);
* :func:`assemble_certificate` — the canonical certificate slice: the
  quorum-first voters in sender-name order, so every correct replica
  assembles the identical certificate from the same vote set;
* :func:`vouched` — the value ``f + 1`` replicas claim at least, so at
  least one honest replica does;
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

from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from ..crypto.schema import is_a
from .messages import SignedMessage

__all__ = [
    "QuorumTracker",
    "assemble_certificate",
    "collect_valid_voters",
    "vouched",
]


def assemble_certificate(
    voters: Dict[str, Any], quorum: int
) -> Tuple[Any, ...]:
    """The canonical certificate from a vote map: quorum-first voters in
    sender-name order. Deterministic in the vote *set*, not the arrival
    order, so replicas that saw votes in different orders still assemble
    byte-identical certificates."""
    return tuple(voters[s] for s in sorted(voters))[:quorum]


def vouched(claims: Iterable[Any], faults: int) -> Optional[Any]:
    """The ``(faults + 1)``-th largest of one claim per replica, or None
    with fewer claims: any ``faults + 1`` claimants include an honest
    replica, so at least one honest replica claims this value or more."""
    ranked = sorted(claims, reverse=True)
    return ranked[faults] if len(ranked) > faults else None


class QuorumTracker:
    """Vote table ``key -> value -> sender -> vote``.

    ``key`` identifies the decision round (a sequence number, a view, a
    batch key — anything hashable); ``value`` what is voted for (a
    digest, a record). One sender holds at most one vote per
    ``(key, value)`` (the last one wins), so duplicate deliveries never
    reach quorum early, and an equivocating sender splits its weight
    across values instead of double-counting any one of them. A vote is
    opaque: a signed message, a threshold share.
    """

    def __init__(self) -> None:
        self._votes: Dict[Any, Dict[Any, Dict[str, Any]]] = {}

    def add(self, key: Any, value: Any, sender: str, vote: Any) -> Dict[str, Any]:
        """Record one vote; returns the voters for ``(key, value)``."""
        senders = self._votes.setdefault(key, {}).setdefault(value, {})
        senders[sender] = vote
        return senders

    def voters(self, key: Any, value: Any) -> Dict[str, Any]:
        return self._votes.get(key, {}).get(value, {})

    def certificate(
        self, key: Any, value: Any, quorum: int
    ) -> Optional[Tuple[Any, ...]]:
        """The canonical certificate once ``quorum`` voters agree, else None."""
        voters = self.voters(key, value)
        if len(voters) < quorum:
            return None
        return assemble_certificate(voters, quorum)

    # -- garbage collection --------------------------------------------
    def discard(self, key: Any, sender: str) -> None:
        """Forget every vote ``sender`` holds under ``key``."""
        values = self._votes.get(key)
        if values is None:
            return
        for value, senders in list(values.items()):
            senders.pop(sender, None)
            if not senders:
                del values[value]
        if not values:
            del self._votes[key]

    def drop(self, key: Any) -> None:
        self._votes.pop(key, None)

    def drop_upto(self, bound: Any) -> None:
        """Drop every key ``<= bound`` (ordered keys: seqs, views)."""
        for key in [k for k in self._votes if k <= bound]:
            del self._votes[key]

    # -- keys ----------------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        return key in self._votes

    def __iter__(self):
        return iter(self._votes)

    def __len__(self) -> int:
        return len(self._votes)


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

