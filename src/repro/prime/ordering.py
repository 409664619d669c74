"""Ordering stage: leader proposals and three-phase agreement on matrices.

The second stage of the Prime pipeline: the leader of the current view
periodically proposes a *matrix* of the latest signed PO-summaries (one
per replica), and the replicas run pre-prepare/prepare/commit over the
matrix digest. The per-slot vote state is the shared
:class:`~repro.replication.ordering.ThreePhaseSlot` (specialised as
:class:`~repro.prime.state.OrderingSlot`); this stage owns the Prime
specifics — matrix validation, the leader's pre-prepare doubling as its
prepare vote, and the turnaround-time samples fed to the suspect monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..crypto.encoding import digest
from .messages import Commit, PoSummary, Prepare, PrePrepare, SignedMessage
from .state import OrderingSlot

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["OrderingStage", "slot_digest"]


def slot_digest(seq: int, matrix: Tuple[SignedMessage, ...]) -> str:
    """Digest of a proposal: the sequence number plus the summary content
    (not the signatures, which may legitimately differ per receiver)."""
    content = tuple(
        (entry.payload.sender, entry.payload.summary_seq, entry.payload.vector)
        for entry in matrix
    )
    return digest((seq, content))


class OrderingStage:
    """Global ordering (three-phase agreement) for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Leader proposals
    # ------------------------------------------------------------------
    def propose_tick(self) -> None:
        node = self.node
        if not node.is_leader or node.in_view_change or node.awaiting_state:
            return
        matrix = tuple(
            node._latest_summaries[sender]
            for sender in sorted(node._latest_summaries)
        )
        key = tuple(
            (entry.payload.sender, entry.payload.vector) for entry in matrix
        )
        if key == node._last_proposed_key:
            return
        node._last_proposed_key = key
        pre_prepare = PrePrepare(node.name, node.view, node._next_seq, matrix)
        node._next_seq += 1
        node._broadcast(pre_prepare)

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def validate_matrix(self, matrix: Tuple[SignedMessage, ...]) -> bool:
        node = self.node
        seen = set()
        for entry in matrix:
            payload = entry.payload
            if not isinstance(payload, PoSummary):
                return False
            if payload.sender in seen or payload.sender not in node.config.replicas:
                return False
            if payload.sender != entry.signature.signer:
                return False
            if not node.verify_signed(entry):
                return False
            seen.add(payload.sender)
        return True

    def on_pre_prepare(
        self, signed: SignedMessage, msg: PrePrepare, from_new_view: bool = False
    ) -> None:
        node = self.node
        if msg.view > node.view:
            node.note_higher_view(msg.leader, msg.view)
        if msg.view != node.view or (node.in_view_change and not from_new_view):
            return
        if msg.leader != node.config.leader_of_view(msg.view):
            return
        if msg.seq <= node.checkpoints.stable_seq:
            return
        if not from_new_view and msg.seq < node._min_fresh_seq:
            return
        if not self.validate_matrix(msg.matrix):
            return
        slot = node._slot(msg.seq)
        if msg.view in slot.pre_prepares:
            return  # first proposal per (view, seq) wins
        slot.pre_prepares[msg.view] = signed
        proposal_digest = slot_digest(msg.seq, msg.matrix)
        # The leader's pre-prepare counts as its prepare vote.
        slot.record_prepare(msg.view, proposal_digest, msg.leader, signed)
        # Turnaround-time sample: did this proposal include our summary
        # (from our *current* incarnation)?
        if msg.leader == node.config.leader_of_view(node.view):
            own_seq = 0
            for entry in msg.matrix:
                if (
                    entry.payload.sender == node.name
                    and entry.payload.epoch == node._recoveries
                ):
                    own_seq = max(own_seq, entry.payload.summary_seq)
            if own_seq:
                node.monitor.note_pre_prepare(own_seq, node.simulator.now)
        if slot.should_vote_prepare(msg.view):
            slot.prepared_vote = (msg.view, proposal_digest)
            node._broadcast(Prepare(node.name, msg.view, msg.seq, proposal_digest))
        self.check_prepared(slot, msg.view, proposal_digest)
        self.check_ordered(slot, msg.view, proposal_digest)

    def on_prepare(self, signed: SignedMessage, msg: Prepare) -> None:
        node = self.node
        if msg.view > node.view:
            node.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.checkpoints.stable_seq:
            return
        slot = node._slot(msg.seq)
        slot.record_prepare(msg.view, msg.digest, msg.sender, signed)
        self.check_prepared(slot, msg.view, msg.digest)

    def check_prepared(
        self, slot: OrderingSlot, view: int, proposal_digest: str
    ) -> None:
        node = self.node
        if not slot.note_prepared(view, proposal_digest, node.config.quorum):
            return
        if slot.should_vote_commit(view, proposal_digest):
            slot.committed_vote = (view, proposal_digest)
            node._broadcast(Commit(node.name, view, slot.seq, proposal_digest))

    def on_commit(self, signed: SignedMessage, msg: Commit) -> None:
        node = self.node
        if msg.view > node.view:
            node.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.checkpoints.stable_seq:
            return
        slot = node._slot(msg.seq)
        slot.record_commit(msg.view, msg.digest, msg.sender, signed)
        self.check_ordered(slot, msg.view, msg.digest)

    def check_ordered(
        self, slot: OrderingSlot, view: int, proposal_digest: str
    ) -> None:
        node = self.node
        if slot.is_ordered:
            return
        proof = slot.commit_certificate(view, proposal_digest, node.config.quorum)
        if proof is None:
            return
        pre_prepare = slot.pre_prepares.get(view)
        if pre_prepare is None:
            return
        if slot_digest(slot.seq, pre_prepare.payload.matrix) != proposal_digest:
            return
        slot.ordered = (view, proposal_digest, pre_prepare, proof)
        if slot.prepared_cert is None or slot.prepared_cert[0] < view:
            slot.prepared_cert = (view, proposal_digest)
            slot.prepared_proof = proof
        node._try_execute()
