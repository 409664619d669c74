"""View changes: replacing a suspected leader while preserving safety.

The flow is PBFT-style, adapted to Prime's matrix proposals:

1. Replicas that detect a TAT violation broadcast ``Suspect(view)``.
   ``f + 1`` suspects make everyone join (amplification); ``2f + k + 1``
   suspects start a view change to ``view + 1``.
2. Each replica broadcasts a signed ``ViewChange`` carrying its stable
   checkpoint (with quorum proof) and every prepared proposal above it
   (with its prepare certificate).
3. The new leader assembles ``2f + k + 1`` valid ViewChanges and derives —
   deterministically — the re-proposals: for every sequence number above
   the highest proven checkpoint, the prepared entry with the highest view
   wins; gaps become empty (no-op) proposals. It broadcasts a ``NewView``
   containing the ViewChanges and the re-issued pre-prepares.
4. Every replica re-runs the same derivation on the embedded ViewChanges
   and accepts the NewView only if the leader's re-proposals match, so a
   Byzantine new leader cannot rewrite history.

If the new leader stalls, the view-change timeout fires and replicas
suspect it in turn, cascading to the next view.

The per-epoch vote tables are shared
:class:`~repro.replication.epoch.EpochVoteTable` instances and the
re-proposal derivation delegates to
:func:`~repro.replication.epoch.derive_reproposals`; Prime keeps only
its validation rules and NewView construction here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..replication.epoch import EpochVoteTable, derive_reproposals
from ..replication.quorum import collect_valid_voters
from .config import PrimeConfig
from .ordering import slot_digest
from .messages import (
    Commit,
    NewView,
    Prepare,
    PreparedEntry,
    PrePrepare,
    SignedMessage,
    Suspect,
    ViewChange,
)

__all__ = ["ViewChangeManager"]


class ViewChangeManager:
    """Suspect/ViewChange/NewView bookkeeping for one replica.

    The manager is deliberately node-agnostic: the owning ``PrimeNode``
    passes in verification helpers and reacts to the returned decisions,
    which keeps this logic unit-testable without a network.
    """

    def __init__(self, config: PrimeConfig, name: str) -> None:
        self.config = config
        self.name = name
        #: view -> sender -> signed Suspect
        self.suspects = EpochVoteTable()
        #: new_view -> sender -> signed ViewChange
        self.view_changes = EpochVoteTable()
        self.sent_suspect_for: set = set()
        self.sent_new_view_for: set = set()
        self.highest_vc_started: int = 0

    # ------------------------------------------------------------------
    # Suspects
    # ------------------------------------------------------------------
    def add_suspect(self, signed: SignedMessage, msg: Suspect, current_view: int
                    ) -> Tuple[bool, bool]:
        """Record a suspect. Returns (should_amplify, should_view_change).

        should_amplify: f+1 distinct suspects for our current view and we
        have not accused it ourselves yet.
        should_view_change: a quorum suspects view >= current_view.
        """
        if msg.view < current_view:
            return (False, False)
        count = self.suspects.record(msg.view, msg.sender, signed)
        amplify = (
            msg.view == current_view
            and count >= self.config.num_faults + 1
            and current_view not in self.sent_suspect_for
        )
        view_change = count >= self.config.quorum
        return (amplify, view_change)

    def note_own_suspect(self, view: int) -> None:
        self.sent_suspect_for.add(view)

    # ------------------------------------------------------------------
    # ViewChange validation
    # ------------------------------------------------------------------
    def validate_view_change(
        self, signed: SignedMessage, vc: ViewChange, verify_signed, verify_checkpoint
    ) -> bool:
        """Full validation of a ViewChange message.

        ``verify_signed(signed) -> bool`` checks an envelope signature and
        that the signer is a replica; ``verify_checkpoint(seq, proof) ->
        bool`` checks a checkpoint quorum proof.
        """
        if vc.sender != signed.signature.signer:
            return False
        if vc.sender not in self.config.replicas:
            return False
        if vc.checkpoint_seq > 0 and not verify_checkpoint(
            vc.checkpoint_seq, vc.checkpoint_proof
        ):
            return False
        seen_seqs = set()
        for entry in vc.prepared:
            if entry.seq in seen_seqs:
                return False
            seen_seqs.add(entry.seq)
            if not self._validate_prepared_entry(entry, verify_signed):
                return False
        return True

    def _validate_prepared_entry(self, entry: PreparedEntry, verify_signed) -> bool:
        pp_signed = entry.pre_prepare
        pp = pp_signed.payload
        if not isinstance(pp, PrePrepare):
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
        # its genuine certificate) with a *different* matrix, and the
        # re-proposal derivation — which reads the matrix, not the digest —
        # would rewrite history.
        if slot_digest(entry.seq, pp.matrix) != entry.digest:
            return False
        # Prepare certificate: quorum of distinct replicas vouching
        # (view, seq, digest); the leader's pre-prepare counts as one.
        # Lenient scan: appended garbage must not invalidate honest votes.
        voters = collect_valid_voters(
            entry.proof,
            membership=self.config.replicas,
            verify_signed=verify_signed,
            expected_kind=(Prepare, Commit),
            check=lambda p: (
                p.view == entry.view
                and p.seq == entry.seq
                and p.digest == entry.digest
            ),
            strict=False,
            initial=(pp.leader,),
        )
        return voters is not None and len(voters) >= self.config.quorum

    def add_view_change(self, signed: SignedMessage, vc: ViewChange) -> int:
        """Store a validated ViewChange; returns the count for its view."""
        return self.view_changes.record(vc.new_view, vc.sender, signed)

    # ------------------------------------------------------------------
    # NewView construction / verification
    # ------------------------------------------------------------------
    @staticmethod
    def derive_re_proposals(
        view_changes: List[ViewChange],
    ) -> Tuple[int, List[Tuple[int, Tuple[SignedMessage, ...]]]]:
        """Deterministically derive re-proposals from a ViewChange set.

        Returns (start_seq, [(seq, matrix), ...]) where matrices for gap
        sequences are empty tuples (no-ops).
        """
        return derive_reproposals(
            view_changes,
            anchor_of=lambda vc: vc.checkpoint_seq,
            entries_of=lambda vc: vc.prepared,
            content_of=lambda entry: entry.pre_prepare.payload.matrix,
            empty=(),
        )

    def build_new_view(
        self, view: int, sign_pre_prepare
    ) -> Optional[Tuple[NewView, int]]:
        """Assemble a NewView from stored ViewChanges (new leader only).

        ``sign_pre_prepare(PrePrepare) -> SignedMessage``. Returns
        (new_view_message, max_seq) or None if below quorum.
        """
        if self.view_changes.count(view) < self.config.quorum:
            return None
        chosen = self.view_changes.chosen(view, self.config.quorum)
        vcs = [signed.payload for signed in chosen]
        start_seq, proposals = self.derive_re_proposals(vcs)
        pre_prepares = tuple(
            sign_pre_prepare(PrePrepare(self.name, view, seq, matrix))
            for seq, matrix in proposals
        )
        max_seq = proposals[-1][0] if proposals else start_seq
        nv = NewView(self.name, view, tuple(chosen), pre_prepares)
        self.sent_new_view_for.add(view)
        return nv, max_seq

    def verify_new_view(
        self, signed: SignedMessage, nv: NewView, verify_signed, verify_checkpoint
    ) -> Optional[Tuple[List[SignedMessage], int, int]]:
        """Verify a NewView end-to-end.

        Returns (signed re-proposals, start_seq, max_seq) when valid,
        else None.
        """
        if nv.leader != self.config.leader_of_view(nv.view):
            return None
        if signed.signature.signer != nv.leader:
            return None
        senders = set()
        payloads = []
        for vc_signed in nv.view_changes:
            vc = vc_signed.payload
            if not isinstance(vc, ViewChange) or vc.new_view != nv.view:
                return None
            if not verify_signed(vc_signed):
                return None
            if not self.validate_view_change(
                vc_signed, vc, verify_signed, verify_checkpoint
            ):
                return None
            senders.add(vc.sender)
            payloads.append(vc)
        if len(senders) < self.config.quorum:
            return None
        start_seq, expected = self.derive_re_proposals(payloads)
        if len(expected) != len(nv.pre_prepares):
            return None
        for (seq, matrix), pp_signed in zip(expected, nv.pre_prepares):
            pp = pp_signed.payload
            if not isinstance(pp, PrePrepare):
                return None
            if pp.leader != nv.leader or pp.view != nv.view or pp.seq != seq:
                return None
            if pp.matrix != matrix:
                return None
            if pp_signed.signature.signer != nv.leader:
                return None
            if not verify_signed(pp_signed):
                return None
        max_seq = expected[-1][0] if expected else start_seq
        return list(nv.pre_prepares), start_seq, max_seq

    # ------------------------------------------------------------------
    def garbage_collect(self, below_view: int) -> None:
        self.suspects.drop_below(below_view)
        self.view_changes.drop_below(below_view)
