"""Recovery stage: checkpoints, reconciliation, and state transfer.

Everything that lets a replica that missed data — through loss, lag, or a
proactive recovery — converge back onto the agreed state:

* *checkpoint glue*: cut a full snapshot every checkpoint interval,
  broadcast its digest, and garbage-collect below stable checkpoints;
* *reconciliation*: pull certified pre-order data that an ordered slot
  needs (and push it to peers whose summaries show them behind), plus
  ordered-certificate catch-up for whole missing slots;
* *state transfer*: request / serve / install stable checkpoints with
  quorum proofs, with bounded-backoff retries under the shared
  :class:`~repro.replication.retry.RetryPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..crypto.encoding import digest
from ..obs import EV_CHECKPOINT_STABLE, EV_NEW_VIEW, EV_RECOVERY_DONE
from ..replication.ordering import ThreePhaseSlot
from ..replication.quorum import collect_valid_voters
from .messages import (
    CheckpointMsg,
    OrderedReply,
    OrderedRequest,
    PoAck,
    ReconReply,
    ReconRequest,
    SignedMessage,
    StateReply,
    StateRequest,
)

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["RecoveryStage"]


class RecoveryStage:
    """Checkpoint/reconciliation/state-transfer behaviour for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def full_snapshot(self) -> Dict[str, Any]:
        node = self.node
        return {
            "app": node.app.snapshot(),
            "origins": {o: st.executed_upto for o, st in node.origins.items()
                        if st.executed_upto > 0},
            "clients": node.client_dedup.snapshot(),
            "executed_counter": node.executed_counter,
            "last_seq": node.last_executed_seq,
        }

    def make_checkpoint(self, seq: int) -> None:
        node = self.node
        snapshot = self.full_snapshot()
        state_digest = node.checkpoints.record_own(seq, snapshot)
        node._broadcast(CheckpointMsg(node.name, seq, state_digest))

    def on_checkpoint(self, signed: SignedMessage, msg: CheckpointMsg) -> None:
        node = self.node
        stable = node.checkpoints.add_vote(signed, msg)
        if stable is not None:
            node.obs.event(node.name, EV_CHECKPOINT_STABLE, seq=stable)
            self.garbage_collect(stable)

    def garbage_collect(self, stable_seq: int) -> None:
        # Keep one checkpoint window of ordered slots below the stable
        # checkpoint so modestly-lagging replicas can catch up by ordered
        # certificates instead of a full state transfer.
        node = self.node
        horizon = stable_seq - node.config.checkpoint_interval_seqs
        for seq in [s for s in node.slots if s <= horizon]:
            del node.slots[seq]
        for state in node.origins.values():
            state.garbage_collect(state.executed_upto)
        node.view_manager.garbage_collect(node.view)

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def request_recon(
        self, missing: List[Tuple[str, int]], slot: ThreePhaseSlot
    ) -> None:
        """Pull certified pre-order data we lack from replicas that claim it."""
        node = self.node
        _, _, pre_prepare, _ = slot.ordered
        claimants: Dict[str, List[str]] = {}
        for entry in pre_prepare.payload.matrix:
            vector = dict(entry.payload.vector)
            for origin, po_seq in missing:
                if vector.get(origin, 0) >= po_seq:
                    claimants.setdefault(origin, []).append(entry.payload.sender)
        by_origin: Dict[str, List[int]] = {}
        for origin, po_seq in missing:
            by_origin.setdefault(origin, []).append(po_seq)
        for origin, seqs in by_origin.items():
            peers = [p for p in claimants.get(origin, []) if p != node.name]
            if not peers:
                peers = [p for p in node.config.replicas if p != node.name]
            peer = peers[node._recon_rotor % len(peers)]
            node._recon_rotor += 1
            node._send_to(
                peer, ReconRequest(node.name, origin, min(seqs), max(seqs))
            )

    def on_recon_request(self, signed: SignedMessage, msg: ReconRequest) -> None:
        node = self.node
        state = node.origins.get(msg.origin)
        if state is None:
            return
        upper = min(msg.to_seq, msg.from_seq + node.config.recon_window - 1)
        for po_seq in range(msg.from_seq, upper + 1):
            cert = state.certs.get(po_seq)
            request = state.requests.get(po_seq)
            if cert is not None and request is not None:
                _, proof = cert
                node._send_to(msg.sender, ReconReply(node.name, request, proof))

    def on_recon_reply(self, signed: SignedMessage, msg: ReconReply) -> None:
        node = self.node
        request_signed = msg.request
        request = request_signed.payload
        if not node._po_request_check(request, request_signed.signature.signer):
            return
        if not node.verify_signed(request_signed):
            return
        content_digest = digest(request)
        senders = collect_valid_voters(
            msg.acks,
            membership=node.config.replicas,
            verify_signed=node.verify_signed,
            kinds=(PoAck,),
            check=lambda ack: (
                ack.origin == request.origin
                and ack.po_seq == request.po_seq
                and ack.digest == content_digest
            ),
            strict=True,
        )
        if senders is None or len(senders) < node.config.quorum:
            return
        state = node._origin_state(request.origin)
        if request.po_seq <= state.executed_upto or request.po_seq in state.certs:
            return
        state.requests[request.po_seq] = request_signed
        state.digests[request.po_seq] = content_digest
        state.certs[request.po_seq] = (content_digest, tuple(msg.acks))
        if state.advance_certified():
            node._summary_dirty = True
        node._try_execute()

    def recon_tick(self) -> None:
        node = self.node
        if node.awaiting_state:
            return
        # Behind the garbage-collection horizon and unable to make ordering
        # progress: the slots we need may no longer exist anywhere, so fall
        # back to state transfer. (Being merely one checkpoint behind is
        # normal transient lag — those slots are still retained.)
        head = node.slots.get(node.last_executed_seq + 1)
        horizon = node.checkpoints.stable_seq - node.config.checkpoint_interval_seqs
        if horizon > node.last_executed_seq and (
            head is None or not head.is_ordered
        ):
            node.awaiting_state = True
            self.request_state()
            return
        # Laggard rejoin: f+1 distinct peers sending higher-view messages
        # (ordering traffic or suspects) prove the cluster moved past us —
        # at least one of them is honest. We missed the NewView, our
        # old-view messages are being ignored, and no amount of
        # reconciliation will fix that: pull state (and the adopted view,
        # claimed by f+1 StateReplies) instead of stalling. Applies equally
        # to a replica wedged in_view_change for a view the cluster has
        # already left behind.
        ahead = sum(1 for v in node._higher_view_seen.values() if v > node.view)
        if ahead >= node.config.num_faults + 1:
            node._higher_view_seen.clear()
            node.awaiting_state = True
            self.request_state()
            return
        self.retransmit_own_requests()
        self.push_recon()
        self.ordering_catchup()

    def retransmit_own_requests(self) -> None:
        node = self.node
        state = node.origins.get(node.origin_id)
        if state is None or state.certified_upto >= node._own_po_seq:
            return
        upper = min(
            state.certified_upto + node.config.recon_window, node._own_po_seq
        )
        peers = [p for p in node.config.replicas if p != node.name]
        for po_seq in range(state.certified_upto + 1, upper + 1):
            stored = state.requests.get(po_seq)
            if stored is not None:
                node.runtime.resend(
                    stored, peers=peers, size_bytes=node._size_of(stored.payload)
                )

    def push_recon(self, push_window: int = 8) -> None:
        """Push certified data to peers whose summaries show them behind."""
        node = self.node
        for peer, summary in node._latest_summaries.items():
            if peer == node.name:
                continue
            their = dict(summary.payload.vector)
            for origin, state in node.origins.items():
                theirs = their.get(origin, 0)
                if state.certified_upto <= theirs:
                    continue
                upper = min(theirs + push_window, state.certified_upto)
                for po_seq in range(theirs + 1, upper + 1):
                    cert = state.certs.get(po_seq)
                    request = state.requests.get(po_seq)
                    if cert is not None and request is not None:
                        node._send_to(peer, ReconReply(node.name, request, cert[1]))

    def ordering_catchup(self) -> None:
        node = self.node
        next_seq = node.last_executed_seq + 1
        have_later = any(
            s.seq > next_seq and s.is_ordered for s in node.slots.values()
        )
        slot = node.slots.get(next_seq)
        if slot is not None and slot.is_ordered:
            node._try_execute()
            return
        if have_later:
            # fetch a whole window of missing slots, spread across peers,
            # so a replica many slots behind catches up quickly
            peers = [p for p in node.config.replicas if p != node.name]
            highest_ordered = max(
                (s.seq for s in node.slots.values() if s.is_ordered),
                default=next_seq,
            )
            upper = min(next_seq + 16, highest_ordered)
            for seq in range(next_seq, upper + 1):
                # NB: rebinds ``slot`` — the vote rebroadcast below then
                # refers to the tail of the fetch window, not the head.
                slot = node.slots.get(seq)
                if slot is not None and slot.is_ordered:
                    continue
                peer = peers[node._recon_rotor % len(peers)]
                node._recon_rotor += 1
                node._send_to(peer, OrderedRequest(node.name, seq))
        # re-broadcast our votes for the head slot to overcome loss
        if slot is not None and not slot.is_ordered:
            own_pp = slot.pre_prepares.get(node.view)
            if (
                own_pp is not None
                and own_pp.payload.leader == node.name
            ):
                node.runtime.resend(
                    own_pp, size_bytes=node._size_of(own_pp.payload)
                )
            node.ordering.rebroadcast_vote(slot)

    def on_ordered_request(self, signed: SignedMessage, msg: OrderedRequest) -> None:
        node = self.node
        slot = node.slots.get(msg.seq)
        if slot is None or not slot.is_ordered:
            return
        view, _, pre_prepare, proof = slot.ordered
        node._send_to(msg.sender, OrderedReply(node.name, msg.seq, pre_prepare, proof))

    def on_ordered_reply(self, signed: SignedMessage, msg: OrderedReply) -> None:
        node = self.node
        if msg.seq <= node.checkpoints.stable_seq or msg.seq <= node.last_executed_seq:
            return
        node.ordering.install_certified(
            msg.seq, msg.pre_prepare, msg.commits, strict=True
        )

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def request_state(self) -> None:
        node = self.node
        node._broadcast(StateRequest(node.name), include_self=False)
        self.arm_state_retry()

    def arm_state_retry(self) -> None:
        """Schedule the next state-transfer retry under the backoff policy."""
        node = self.node
        if node._state_retry_timer is not None:
            node._state_retry_timer.cancel()
        delay = node._state_retry_policy.delay_ms(
            node._state_retry_attempts,
            node.simulator.rng(f"state-retry/{node.name}"),
        )
        node._state_retry_attempts += 1
        node._state_retry_timer = node.set_timer(delay, node._state_retry_tick)

    def reset_state_retry(self) -> None:
        node = self.node
        node._state_retry_attempts = 0
        if node._state_retry_timer is not None:
            node._state_retry_timer.cancel()
            node._state_retry_timer = None

    def state_retry_tick(self) -> None:
        node = self.node
        node._state_retry_timer = None
        if node.awaiting_state:
            self.request_state()
        else:
            self.reset_state_retry()

    def on_state_request(self, signed: SignedMessage, msg: StateRequest) -> None:
        node = self.node
        if node.awaiting_state:
            return
        serveable = node.checkpoints.best_serveable()
        if serveable is not None:
            seq, snapshot, proof = serveable
            reply = StateReply(node.name, seq, snapshot, proof, node.view)
        else:
            reply = StateReply(node.name, 0, None, (), node.view)
        node._send_to(msg.sender, reply)

    def _maybe_adopt_claimed_view(self) -> None:
        """Adopt the highest view that f+1 distinct StateReplies claim.

        A single reply's ``view`` field is never trusted: any set of f+1
        claimants contains an honest replica, so the (f+1)-th largest claim
        is a view some honest replica truly holds.
        """
        node = self.node
        claims = sorted(node._state_view_claims.values(), reverse=True)
        if len(claims) < node.config.num_faults + 1:
            return
        candidate = claims[node.config.num_faults]
        if candidate <= node.view:
            return
        node.view = candidate
        node.in_view_change = False
        node.monitor.reset_for_new_view()
        node._last_proposed_key = None
        node.view_manager.highest_vc_started = max(
            node.view_manager.highest_vc_started, candidate
        )
        node.obs.event(
            node.name, EV_NEW_VIEW, view=candidate, max_seq=node.last_executed_seq,
            via="state-transfer",
        )

    def on_state_reply(self, signed: SignedMessage, msg: StateReply) -> None:
        node = self.node
        if not node.awaiting_state:
            return
        node._state_view_claims[msg.sender] = msg.view
        self._maybe_adopt_claimed_view()
        # "Nothing newer than what we have" from quorum-1 peers ends a
        # transfer a laggard started for the *view*, not the data —
        # without this a replica that is ahead of every surviving
        # checkpoint would wait out the retry budget doing nothing.
        if 0 < msg.checkpoint_seq <= node.last_executed_seq:
            node._genesis_replies.add(msg.sender)
            if len(node._genesis_replies) >= node.config.quorum - 1:
                node.awaiting_state = False
                node._genesis_replies.clear()
                node._state_view_claims.clear()
                self.reset_state_retry()
                node.obs.event(
                    node.name, EV_RECOVERY_DONE, seq=node.last_executed_seq,
                )
            return
        if msg.checkpoint_seq == 0:
            # "No checkpoint anywhere" is only believable from a quorum —
            # a single early genesis reply must not end recovery while
            # other replicas hold a real checkpoint.
            if node.last_executed_seq == 0:
                node._genesis_replies.add(msg.sender)
                if len(node._genesis_replies) >= node.config.quorum - 1:
                    node.awaiting_state = False
                    node._genesis_replies.clear()
                    self.reset_state_retry()
                    node.obs.event(node.name, EV_RECOVERY_DONE, seq=0)
            return
        if msg.checkpoint_seq <= node.last_executed_seq:
            return
        state_digest = digest(msg.snapshot)
        if not node.checkpoints.verify_proof(
            msg.checkpoint_seq, state_digest, msg.proof, node.verify_signed
        ):
            return
        self.install_snapshot(msg, state_digest)

    def install_snapshot(self, msg: StateReply, state_digest: str) -> None:
        node = self.node
        snapshot = msg.snapshot
        node.app.restore(snapshot["app"])
        node.client_dedup.restore(snapshot["clients"])
        node.executed_counter = int(snapshot["executed_counter"])
        node.last_executed_seq = int(msg.checkpoint_seq)
        for origin, upto in dict(snapshot["origins"]).items():
            state = node._origin_state(origin)
            if state.executed_upto < upto:
                state.executed_upto = upto
                state.certified_upto = max(state.certified_upto, upto)
                state.garbage_collect(upto)
            # certificates collected while the transfer was in flight may
            # extend contiguously past the installed frontier
            state.advance_certified()
        node.checkpoints.adopt_stable(msg.checkpoint_seq, state_digest, msg.proof)
        node.checkpoints.record_own(msg.checkpoint_seq, snapshot)
        for seq in [s for s in node.slots if s <= msg.checkpoint_seq]:
            del node.slots[seq]
        # msg.view is not adopted here: on_state_reply already weighed it
        # as one claim — one lying replica serving a genuine old checkpoint
        # must not drag us to a fake view.
        node.awaiting_state = False
        node._state_view_claims.clear()
        self.reset_state_retry()
        node._summary_dirty = True
        node.obs.event(node.name, EV_RECOVERY_DONE, seq=msg.checkpoint_seq)
        node._try_execute()
