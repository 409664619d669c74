"""Execution stage: coverage cutoffs over ordered summary matrices.

The third stage of the Prime pipeline: an ordered matrix does not carry
updates itself — it *fixes*, per origin stream, a coverage cutoff (the
quorum-th largest acknowledged po_seq). Every certified update at or
below the cutoff that has not yet executed runs in deterministic order
(origin streams sorted lexicographically, then by po_seq), so all correct
replicas execute the identical update sequence. A slot whose certified
pre-order data has not fully arrived triggers reconciliation instead of
executing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..replication.ordering import ThreePhaseSlot
from .messages import ClientUpdate, SignedMessage, verify_client_updates_batch

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["ExecutionCutoff", "coverage_cutoffs"]


def coverage_cutoffs(
    matrix: Tuple[SignedMessage, ...], n: int, quorum: int
) -> Dict[str, int]:
    """Per-origin cutoffs: the quorum-th largest acknowledged po_seq."""
    values: Dict[str, List[int]] = {}
    rows = 0
    for entry in matrix:
        rows += 1
        for origin, upto in entry.payload.vector:
            values.setdefault(origin, []).append(upto)
    cutoffs: Dict[str, int] = {}
    for origin, reported in values.items():
        padded = reported + [0] * (n - len(reported))
        padded.sort(reverse=True)
        cutoffs[origin] = padded[quorum - 1] if len(padded) >= quorum else 0
    return cutoffs


class ExecutionCutoff:
    """Deterministic execution of ordered slots for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        self.node = node

    def try_execute(self) -> None:
        node = self.node
        while True:
            slot = node.slots.get(node.last_executed_seq + 1)
            if slot is None or not slot.is_ordered:
                break
            if not self.execute_slot(slot):
                break
            node.last_executed_seq += 1
            if node.last_executed_seq % node.config.checkpoint_interval_seqs == 0:
                node.recovery.make_checkpoint(node.last_executed_seq)

    def missing_for_slot(self, slot: ThreePhaseSlot) -> List[Tuple[str, int]]:
        node = self.node
        _, _, pre_prepare, _ = slot.ordered
        cutoffs = coverage_cutoffs(
            pre_prepare.payload.matrix, node.config.n, node.config.quorum
        )
        missing = []
        for origin, cutoff in cutoffs.items():
            state = node._origin_state(origin)
            for po_seq in range(state.executed_upto + 1, cutoff + 1):
                if not (state.has_cert(po_seq) and po_seq in state.requests):
                    missing.append((origin, po_seq))
        return missing

    def execute_slot(self, slot: ThreePhaseSlot) -> bool:
        node = self.node
        missing = self.missing_for_slot(slot)
        if missing:
            node.recovery.request_recon(missing, slot)
            return False
        _, _, pre_prepare, _ = slot.ordered
        cutoffs = coverage_cutoffs(
            pre_prepare.payload.matrix, node.config.n, node.config.quorum
        )
        batch_listeners = node.batch_execution_listeners
        for origin in sorted(cutoffs):
            state = node._origin_state(origin)
            cutoff = cutoffs[origin]
            while state.executed_upto < cutoff:
                po_seq = state.executed_upto + 1
                request = state.requests[po_seq].payload
                # The batch unit is the executed-update set of one
                # certified PoRequest: its contents are fixed by the PO
                # certificate and the executed subset by the agreed
                # dedup/verify rules, so every correct replica forms the
                # identical batch and threshold shares combine.
                verdicts = verify_client_updates_batch(
                    node.crypto, request.updates
                )
                executed = [
                    item
                    for update, ok in zip(request.updates, verdicts)
                    if (item := self.execute_update(update, ok)) is not None
                ]
                if executed:
                    for listener in batch_listeners:
                        listener(request, executed)
                state.executed_upto = po_seq
        return True

    def execute_update(self, update: ClientUpdate, verified: bool):
        node = self.node
        if node.client_dedup.is_duplicate(update.client, update.client_seq):
            return None  # at-most-once per (client, client_seq)
        if not verified:
            return None  # deterministic: all replicas reject the same forgeries
        node.client_dedup.mark(update.client, update.client_seq)
        node.executed_counter += 1
        result = node.app.execute(update, node.executed_counter)
        for listener in node.execution_listeners:
            listener(update, node.executed_counter, result)
        return (update, node.executed_counter, result)
