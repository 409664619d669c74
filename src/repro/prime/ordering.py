"""Ordering stage: leader proposals and three-phase agreement on matrices.

The second stage of the Prime pipeline: the leader of the current view
periodically proposes a *matrix* of the latest signed PO-summaries (one
per replica), and the replicas run pre-prepare/prepare/commit over the
matrix digest. The agreement itself is the shared
:class:`~repro.replication.ordering.ThreePhaseAgreement`; this stage
adds the Prime specifics — the leader's proposals, matrix validation,
the turnaround-time samples fed to the suspect monitor, and the
higher-view evidence laggard rejoin feeds on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..crypto.encoding import digest
from ..crypto.schema import is_a
from ..replication.ordering import AgreementSpec, ThreePhaseAgreement
from .messages import PoSummary, PrePrepare, SignedMessage, ViewChange

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["OrderingStage", "PRIME_AGREEMENT", "slot_digest"]


def slot_digest(seq: int, matrix: Tuple[SignedMessage, ...]) -> str:
    """Digest of a proposal: the sequence number plus the summary content
    (not the signatures, which may legitimately differ per receiver)."""
    content = tuple(
        (entry.payload.sender, entry.payload.summary_seq, entry.payload.vector)
        for entry in matrix
    )
    return digest((seq, content))


PRIME_AGREEMENT = AgreementSpec(
    pre_prepare=PrePrepare,
    view_change=ViewChange,
    proposal_field="matrix",
    floor_field="checkpoint_seq",
    digest=slot_digest,
)


class OrderingStage(ThreePhaseAgreement):
    """Global ordering (three-phase agreement) for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        super().__init__(node, PRIME_AGREEMENT, node.config.recon_interval_ms)

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
    # Agreement hooks
    # ------------------------------------------------------------------
    def valid_proposal(self, matrix: Tuple[SignedMessage, ...]) -> bool:
        node = self.node
        seen = set()
        for entry in matrix:
            payload = entry.payload
            if not is_a(payload, PoSummary):
                return False
            if payload.sender in seen or payload.sender not in node.config.replicas:
                return False
            if payload.sender != entry.signature.signer:
                return False
            if not node.verify_signed(entry):
                return False
            seen.add(payload.sender)
        return True

    def note_proposal(self, msg: PrePrepare) -> None:
        # Turnaround-time sample: did this proposal include our summary
        # (from our *current* incarnation)?
        node = self.node
        own_seq = 0
        for entry in msg.matrix:
            if (
                entry.payload.sender == node.name
                and entry.payload.epoch == node._recoveries
            ):
                own_seq = max(own_seq, entry.payload.summary_seq)
        if own_seq:
            node.monitor.note_pre_prepare(own_seq, node.simulator.now)

    def note_higher_view(self, sender: str, view: int) -> None:
        self.node.note_higher_view(sender, view)
