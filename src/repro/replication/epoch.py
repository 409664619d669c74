"""View-change core shared by leader-based protocols.

Both Prime and the PBFT baseline change leaders the same way: collect
per-epoch votes until thresholds fire, have every replica send a
ViewChange carrying its prepared certificates, and have the incoming
leader derive — deterministically, so every replica can re-check it —
which prepared proposals the new view must re-issue. Vote bookkeeping,
derivation and the validation of everything a Byzantine peer could forge
on this path live here; the protocols keep only *when* a leader is
replaced.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..crypto.schema import is_a
from .messages import Commit, NewView, Prepare, PreparedEntry, SignedMessage
from .ordering import AgreementSpec, ThreePhaseSlot
from .quorum import collect_valid_voters

__all__ = [
    "EpochVoteTable",
    "ViewChangeCore",
    "derive_reproposals",
    "prepared_entries",
]

VerifySigned = Callable[[SignedMessage], bool]


class EpochVoteTable:
    """Vote table ``epoch -> sender -> signed vote``.

    One sender counts once per epoch (re-votes overwrite). Supports
    mapping-style introspection (``epoch in table``, iteration over
    epochs) so tests and monitors can inspect it like the plain dicts it
    replaces.
    """

    def __init__(self) -> None:
        self._epochs: Dict[int, Dict[str, SignedMessage]] = {}

    def record(self, epoch: int, sender: str, signed: SignedMessage) -> int:
        """Record one vote; returns the vote count for ``epoch``."""
        senders = self._epochs.setdefault(epoch, {})
        senders[sender] = signed
        return len(senders)

    def senders(self, epoch: int) -> Dict[str, SignedMessage]:
        return self._epochs.get(epoch, {})

    def count(self, epoch: int) -> int:
        return len(self._epochs.get(epoch, ()))

    def chosen(self, epoch: int, quorum: int) -> List[SignedMessage]:
        """A deterministic quorum-slice of the epoch's votes (sender-name
        order) — the set a new leader embeds in its NewView."""
        senders = self.senders(epoch)
        return [senders[s] for s in sorted(senders)][:quorum]

    def drop_below(self, bound: int) -> None:
        for epoch in [e for e in self._epochs if e < bound]:
            del self._epochs[epoch]

    def clear(self) -> None:
        self._epochs.clear()

    # -- mapping-style introspection -----------------------------------
    def get(self, epoch: int, default: Any = None) -> Any:
        return self._epochs.get(epoch, default)

    def __getitem__(self, epoch: int) -> Dict[str, SignedMessage]:
        return self._epochs[epoch]

    def __contains__(self, epoch: int) -> bool:
        return epoch in self._epochs

    def __iter__(self):
        return iter(self._epochs)

    def __len__(self) -> int:
        return len(self._epochs)


def derive_reproposals(
    spec: AgreementSpec, view_changes: Iterable[Any]
) -> Tuple[int, List[Tuple[int, Any]]]:
    """Deterministically derive a new view's re-proposals.

    For every seq above the highest floor any ViewChange names, the
    prepared entry from the highest view wins (digest as the tie-break);
    gaps become empty (no-op) proposals. Returns
    ``(start_seq, [(seq, proposal), ...])``. Every replica runs this over
    the same ViewChange set, so a Byzantine new leader cannot smuggle in
    proposals the set does not justify.
    """
    vcs = list(view_changes)
    start_seq = max((spec.floor(vc) for vc in vcs), default=0)
    best: Dict[int, PreparedEntry] = {}
    for vc in vcs:
        for entry in vc.prepared:
            if entry.seq <= start_seq:
                continue
            current = best.get(entry.seq)
            if (
                current is None
                or entry.view > current.view
                or (entry.view == current.view and entry.digest < current.digest)
            ):
                best[entry.seq] = entry
    max_seq = max(best.keys(), default=start_seq)
    proposals: List[Tuple[int, Any]] = []
    for seq in range(start_seq + 1, max_seq + 1):
        entry = best.get(seq)
        proposals.append(
            (seq, spec.proposal(entry.pre_prepare.payload) if entry is not None else ())
        )
    return start_seq, proposals


def prepared_entries(
    slots: Dict[int, ThreePhaseSlot], above: int
) -> Tuple[PreparedEntry, ...]:
    """What a ViewChange carries: every prepare certificate this replica
    holds for a seq above its floor, with the pre-prepare it certifies."""
    entries = []
    for seq in sorted(slots):
        slot = slots[seq]
        if seq <= above or slot.prepared_cert is None or slot.prepared_proof is None:
            continue
        view, cert_digest = slot.prepared_cert
        pre_prepare = slot.pre_prepares.get(view)
        if pre_prepare is not None:
            entries.append(
                PreparedEntry(seq, view, cert_digest, pre_prepare, slot.prepared_proof)
            )
    return tuple(entries)


class ViewChangeCore:
    """ViewChange/NewView bookkeeping and validation for one replica.

    Deliberately node-agnostic: the owning replica passes in its
    verification helpers and reacts to the returned decisions, which
    keeps this logic unit-testable without a network.
    """

    def __init__(self, spec: AgreementSpec, config: Any, name: str) -> None:
        self.spec = spec
        self.config = config
        self.name = name
        #: new_view -> sender -> signed ViewChange
        self.view_changes = EpochVoteTable()
        self.sent_new_view_for: Set[int] = set()

    def floor_ok(self, vc: Any, verify_floor: Any) -> bool:
        """Hook: how the floor ``vc`` claims is vouched for. An unproven
        floor is the sender's word only, so it may not come with entries
        at or below it."""
        floor = self.spec.floor(vc)
        return all(entry.seq > floor for entry in vc.prepared)

    # -- ViewChange validation -----------------------------------------
    def validate_view_change(
        self,
        signed: SignedMessage,
        vc: Any,
        verify_signed: VerifySigned,
        verify_floor: Any = None,
    ) -> bool:
        """Full validation of a ViewChange; ``verify_floor`` is handed
        to :meth:`floor_ok`."""
        if vc.sender != signed.signature.signer:
            return False
        if vc.sender not in self.config.replicas:
            return False
        if not self.floor_ok(vc, verify_floor):
            return False
        seen_seqs = set()
        for entry in vc.prepared:
            if entry.seq in seen_seqs:
                return False
            seen_seqs.add(entry.seq)
            if not self.validate_prepared(entry, verify_signed):
                return False
        return True

    def validate_prepared(
        self, entry: PreparedEntry, verify_signed: VerifySigned
    ) -> bool:
        """The embedded pre-prepare must be the view leader's own
        signature over the proposal whose digest the quorum vouched for."""
        pp_signed = entry.pre_prepare
        pp = pp_signed.payload
        if not is_a(pp, self.spec.pre_prepare):
            return False
        if pp.seq != entry.seq or pp.view != entry.view:
            return False
        if pp.leader != self.config.leader_of_view(pp.view):
            return False
        if pp_signed.signature.signer != pp.leader:
            return False
        if not verify_signed(pp_signed):
            return False
        # Bind the claimed digest to the pre-prepare content: without this
        # a Byzantine replica could pair an honestly-prepared digest (and
        # its genuine certificate) with a *different* proposal, and the
        # re-proposal derivation — which reads the proposal, not the
        # digest — would rewrite history.
        if self.spec.digest_of(pp) != entry.digest:
            return False
        # Prepare certificate: quorum of distinct replicas vouching
        # (view, seq, digest); the leader's pre-prepare counts as one.
        # Lenient scan: appended garbage must not invalidate honest votes.
        voters = collect_valid_voters(
            entry.proof,
            membership=self.config.replicas,
            verify_signed=verify_signed,
            kinds=(Prepare, Commit),
            check=lambda p: (
                p.view == entry.view
                and p.seq == entry.seq
                and p.digest == entry.digest
            ),
            strict=False,
            initial=(pp.leader,),
        )
        return voters is not None and len(voters) >= self.config.quorum

    def add_view_change(self, signed: SignedMessage, vc: Any) -> int:
        """Store a validated ViewChange; returns the count for its view."""
        return self.view_changes.record(vc.new_view, vc.sender, signed)

    # -- NewView construction / verification ---------------------------
    def build_new_view(
        self, view: int, sign_pre_prepare: Callable[[Any], SignedMessage]
    ) -> Optional[Tuple[NewView, int]]:
        """``(NewView, max_seq)`` from the stored ViewChanges, or None
        unless this replica leads ``view``, holds a quorum of ViewChanges
        for it and has not built its NewView before."""
        if (
            self.config.leader_of_view(view) != self.name
            or view in self.sent_new_view_for
            or self.view_changes.count(view) < self.config.quorum
        ):
            return None
        chosen = self.view_changes.chosen(view, self.config.quorum)
        start_seq, proposals = derive_reproposals(
            self.spec, [signed.payload for signed in chosen]
        )
        pre_prepares = tuple(
            sign_pre_prepare(self.spec.pre_prepare(self.name, view, seq, proposal))
            for seq, proposal in proposals
        )
        max_seq = proposals[-1][0] if proposals else start_seq
        self.sent_new_view_for.add(view)
        return NewView(self.name, view, tuple(chosen), pre_prepares), max_seq

    def verify_new_view(
        self,
        signed: SignedMessage,
        nv: NewView,
        verify_signed: VerifySigned,
        verify_floor: Any = None,
    ) -> Optional[Tuple[List[SignedMessage], int, int]]:
        """(signed re-proposals, start_seq, max_seq) when ``nv`` is
        valid end-to-end, else None."""
        if nv.leader != self.config.leader_of_view(nv.view):
            return None
        if signed.signature.signer != nv.leader:
            return None
        senders = set()
        payloads = []
        for vc_signed in nv.view_changes:
            vc = vc_signed.payload
            if not is_a(vc, self.spec.view_change) or vc.new_view != nv.view:
                return None
            if not verify_signed(vc_signed):
                return None
            if not self.validate_view_change(
                vc_signed, vc, verify_signed, verify_floor
            ):
                return None
            senders.add(vc.sender)
            payloads.append(vc)
        if len(senders) < self.config.quorum:
            return None
        start_seq, expected = derive_reproposals(self.spec, payloads)
        if len(expected) != len(nv.pre_prepares):
            return None
        for (seq, proposal), pp_signed in zip(expected, nv.pre_prepares):
            pp = pp_signed.payload
            if not is_a(pp, self.spec.pre_prepare):
                return None
            if pp.leader != nv.leader or pp.view != nv.view or pp.seq != seq:
                return None
            if self.spec.proposal(pp) != proposal:
                return None
            # Each re-proposal must be the new leader's own signature: one
            # that equivocates fails the derivation check above; one that
            # relays someone else's signatures fails here.
            if pp_signed.signature.signer != nv.leader:
                return None
            if not verify_signed(pp_signed):
                return None
        max_seq = expected[-1][0] if expected else start_seq
        return list(nv.pre_prepares), start_seq, max_seq

    def garbage_collect(self, below_view: int) -> None:
        """Only the current and higher views are ever consulted again."""
        self.view_changes.drop_below(below_view)
        self.sent_new_view_for = {
            v for v in self.sent_new_view_for if v >= below_view
        }
