"""Pre-ordering stage: batching, PO-Request/Ack certificates, summaries.

The first stage of the Prime pipeline (DESIGN.md §1.2 and §8): an origin
replica batches client updates into ``PoRequest``s on its own pre-order
sequence, every replica acknowledges what it holds, and a quorum of
matching acks forms a *pre-order certificate*. Certified frontiers are
gossiped as cumulative ``PoSummary`` vectors, which both feed the
leader's proposal matrix and drive the turnaround-time measurement that
keeps a malicious leader honest.

The stage is mounted on a :class:`~repro.prime.node.PrimeNode`; protocol
state lives on the node (it is shared with the other stages and is part
of the node's test/instrumentation surface), the behaviour lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..crypto.encoding import digest
from ..obs import EV_EQUIVOCATION
from ..replication.quorum import vouched
from .messages import ClientUpdate, PoAck, PoRequest, PoSummary, SignedMessage, verify_client_update

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["PreOrderStage"]


class PreOrderStage:
    """Client-update batching and pre-order certification for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Client updates and batching
    # ------------------------------------------------------------------
    def submit(self, update: ClientUpdate) -> bool:
        """Inject a client update at this replica (its origin)."""
        node = self.node
        if not node.is_up or node.awaiting_state:
            return False
        if not verify_client_update(node.crypto, update):
            return False
        if node.client_dedup.is_duplicate(update.client, update.client_seq):
            return False  # already executed
        node._pending_updates.append(update)
        if not node._batch_timer_set:
            node._batch_timer_set = True
            node.set_timer(node.config.batch_interval_ms, node._flush_batch)
        return True

    def flush_batch(self) -> None:
        node = self.node
        node._batch_timer_set = False
        if not node._pending_updates or node.in_view_change:
            if node._pending_updates:
                # retry after the view change settles
                node._batch_timer_set = True
                node.set_timer(node.config.batch_interval_ms, node._flush_batch)
            return
        # Sort so that per-client sequence order survives network reordering
        # between the client and this origin.
        node._pending_updates.sort(key=lambda u: (u.client, u.client_seq))
        batch = tuple(node._pending_updates[: node.config.batch_max_updates])
        del node._pending_updates[: len(batch)]
        node._own_po_seq += 1
        request = PoRequest(node.origin_id, node._own_po_seq, batch)
        node._broadcast(request)
        if node._pending_updates:
            node._batch_timer_set = True
            node.set_timer(node.config.batch_interval_ms, node._flush_batch)

    # ------------------------------------------------------------------
    # Pre-ordering
    # ------------------------------------------------------------------
    def on_po_request(self, signed: SignedMessage, msg: PoRequest) -> None:
        node = self.node
        state = node._origin_state(msg.origin)
        if msg.po_seq <= state.executed_upto:
            return
        content_digest = digest(msg)
        existing = state.digests.get(msg.po_seq)
        if existing is not None:
            if existing != content_digest:
                node.obs.event(node.name, EV_EQUIVOCATION, origin=msg.origin,
                               po_seq=msg.po_seq)
            return
        state.requests[msg.po_seq] = signed
        state.digests[msg.po_seq] = content_digest
        ack = PoAck(node.name, msg.origin, msg.po_seq, content_digest)
        node._broadcast(ack)
        self.check_po_cert(state, msg.po_seq)

    def on_po_ack(self, signed: SignedMessage, msg: PoAck) -> None:
        state = self.node._origin_state(msg.origin)
        if msg.po_seq <= state.executed_upto or msg.po_seq in state.certs:
            return
        acks = state.acks.add(msg.po_seq, msg.digest, msg.sender, signed)
        if len(acks) >= self.node.config.quorum:
            self.check_po_cert(state, msg.po_seq)

    def check_po_cert(self, state, po_seq: int) -> None:
        """Complete a pre-order certificate when quorum acks match our copy."""
        node = self.node
        if po_seq in state.certs:
            return
        our_digest = state.digests.get(po_seq)
        if our_digest is None:
            return
        proof = state.acks.certificate(po_seq, our_digest, node.config.quorum)
        if proof is not None:
            if state.add_cert(po_seq, (our_digest, proof), node.simulator.now):
                node._summary_dirty = True
            node._try_execute()

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def current_vector(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(
            (origin, st.certified_upto)
            for origin, st in self.node.origins.items()
            if st.certified_upto > 0
        ))

    def summary_tick(self) -> None:
        node = self.node
        keepalive = 10 * node.config.summary_interval_ms
        if not node._summary_dirty and (
            node.simulator.now - node._last_summary_sent < keepalive
        ):
            return
        dirty = node._summary_dirty
        node._summary_dirty = False
        node._last_summary_sent = node.simulator.now
        node._own_summary_seq += 1
        summary = PoSummary(
            node.name, node._own_summary_seq, self.current_vector(),
            node.checkpoints.stable_seq, node._recoveries,
        )
        node._broadcast(summary)
        if dirty:
            node.monitor.note_summary_sent(node._own_summary_seq, node.simulator.now)

    def on_po_summary(self, signed: SignedMessage, msg: PoSummary) -> None:
        node = self.node
        latest = node._latest_summaries.get(msg.sender)
        if latest is None or (
            (latest.payload.epoch, latest.payload.summary_seq)
            < (msg.epoch, msg.summary_seq)
        ):
            node._latest_summaries[msg.sender] = signed
        # Fell behind the garbage-collection horizon: the ordered slots we
        # still need may no longer exist anywhere, so state-transfer. Trust
        # the signal only when f+1 distinct replicas claim it (a lone
        # Byzantine replica must not be able to stall us in fake recovery).
        if not node.awaiting_state:
            horizon = node.config.checkpoint_interval_seqs + node.last_executed_seq
            claimed = vouched(
                [entry.payload.stable_seq for entry in node._latest_summaries.values()],
                node.config.num_faults,
            )
            if claimed is not None and claimed > horizon:
                node.awaiting_state = True
                node._request_state()
