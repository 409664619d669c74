"""A PBFT-style baseline replica (Castro-Liskov shape).

This is the comparison system the paper's evaluation needs: a classical
leader-based BFT protocol whose *only* defence against a slow leader is a
static request timeout. Two consequences the benchmarks demonstrate:

* A network attacker that delays the leader's proposals to just below the
  timeout degrades latency by orders of magnitude **without ever
  triggering a view change** — the "slow leader" attack Prime was designed
  to close.
* Even when the timeout does fire, latency spikes to the full timeout
  value before recovery.

Scope: what is the baseline's own lives here — client forwarding to the
leader, batching, the request timeout and its cascade rules, execution,
checkpoint-based log truncation, and the fetch/retransmission cursor
against loss. How a proposal is prepared, committed, carried through a
view change, re-proposed and handed to a laggard is the shared
:class:`~repro.replication.ordering.ThreePhaseAgreement` and
:class:`~repro.replication.epoch.ViewChangeCore`, the same code Prime
runs, configured by :data:`PBFT_AGREEMENT`. There is no state transfer:
a replica that falls behind a stable checkpoint catches up by fetching
retained commit-certified slots.

Like Prime, the node rides on the shared
:class:`~repro.replication.runtime.ReplicationRuntime` and
:class:`~repro.replication.dispatch.Dispatcher`; head-of-line
retransmission backs off through the shared
:class:`~repro.replication.retry.RetrySchedule`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..crypto.encoding import digest
from ..crypto.provider import CryptoProvider
from ..obs import (
    EV_PBFT_CHECKPOINT,
    EV_PBFT_NEW_VIEW,
    EV_PBFT_TIMEOUT,
    EV_PBFT_VIEW_CHANGE,
    NULL_OBS,
    Observability,
)
from ..prime.app import ReplicatedApplication
from ..prime.dedup import ClientDedup
from ..prime.messages import ClientUpdate, verify_client_update
from ..replication import (
    AgreementSpec,
    Commit,
    Dispatcher,
    DirectTransport,
    NewView,
    Prepare,
    QuorumTracker,
    ReplicationRuntime,
    RetryPolicy,
    RetrySchedule,
    SignedMessage,
    ThreePhaseAgreement,
    ThreePhaseSlot,
    Transport,
    ViewChangeCore,
    prepared_entries,
)
from ..simnet import Network, Process, Simulator
from .messages import (
    ForwardedUpdate,
    PbftCheckpoint,
    PbftFetch,
    PbftOrderProof,
    PbftPrePrepare,
    PbftViewChange,
)

__all__ = ["PBFT_AGREEMENT", "PbftConfig", "PbftNode", "batch_digest"]


def batch_digest(seq: int, batch: Tuple[ClientUpdate, ...]) -> str:
    return digest((seq, tuple((u.client, u.client_seq, digest(u.payload))
                              for u in batch)))


PBFT_AGREEMENT = AgreementSpec(
    pre_prepare=PbftPrePrepare,
    view_change=PbftViewChange,
    proposal_field="batch",
    floor_field="last_executed",
    digest=batch_digest,
)


class PbftConfig:
    """Static configuration for one PBFT group."""

    #: how often the request timeout is evaluated
    check_interval_ms = 100.0
    #: head-of-line retransmission / fetch period
    retrans_interval_ms = 50.0
    #: how often a non-leader re-forwards pending client updates
    forward_interval_ms = 200.0

    def __init__(
        self,
        replicas: Tuple[str, ...],
        num_faults: int = 1,
        batch_interval_ms: float = 5.0,
        batch_max_updates: int = 64,
        request_timeout_ms: float = 2000.0,
        checkpoint_interval: int = 16,
    ) -> None:
        if len(replicas) < 3 * num_faults + 1:
            raise ValueError("PBFT needs n >= 3f + 1")
        self.replicas = tuple(replicas)
        self.num_faults = num_faults
        self.batch_interval_ms = batch_interval_ms
        self.batch_max_updates = batch_max_updates
        self.request_timeout_ms = request_timeout_ms
        #: checkpoint every this many executed slots (0 disables)
        self.checkpoint_interval = checkpoint_interval

    @property
    def n(self) -> int:
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        """ceil((n + f + 1) / 2): intersection of any two quorums contains
        a correct replica."""
        return (self.n + self.num_faults + 2) // 2

    def leader_of_view(self, view: int) -> str:
        return self.replicas[view % self.n]


class PbftNode(Process):
    """One baseline replica."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        config: PbftConfig,
        crypto: CryptoProvider,
        app: ReplicatedApplication,
        transport: Optional[Transport] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(name, simulator, network)
        self.config = config
        self.crypto = crypto
        self.app = app
        self.obs = obs if obs is not None else NULL_OBS
        self.transport: Transport = transport or DirectTransport(self, obs=self.obs)
        self.dispatcher = Dispatcher(
            lambda: self.config.replicas, obs=self.obs, metric_prefix="pbft"
        )
        self.runtime = ReplicationRuntime(
            process=self,
            crypto=crypto,
            replicas_fn=lambda: self.config.replicas,
            dispatcher=self.dispatcher,
            size_of=lambda payload: 200,
            obs=self.obs,
            metric_prefix="pbft",
            # PBFT point-to-point self-sends loop back through dispatch
            # (a leader forwards pending updates to itself).
            loopback_dispatch=True,
        )
        self.view = 0
        self.in_view_change = False
        self.slots: Dict[int, ThreePhaseSlot] = {}
        self.last_executed = 0
        self.executed_counter = 0
        self.client_dedup = ClientDedup()
        self.execution_listeners: List[Callable[[ClientUpdate, int, Any], None]] = []
        #: updates awaiting execution: (client, client_seq) -> (update, since)
        self._pending: Dict[Tuple[str, int], Tuple[ClientUpdate, float]] = {}
        self._leader_buffer: List[ClientUpdate] = []
        self._leader_inflight: set = set()
        self._batch_timer_set = False
        self._next_seq = 1
        self._min_fresh_seq = 1
        self.ordering = ThreePhaseAgreement(self, PBFT_AGREEMENT)
        self.view_manager = ViewChangeCore(PBFT_AGREEMENT, config, name)
        self._sent_vc_for: set = set()
        #: the signed NewView we last adopted (re-served to laggards)
        self._last_new_view: Optional[SignedMessage] = None
        #: checkpoint votes: seq -> digest -> sender -> signed vote
        self._checkpoint_votes = QuorumTracker()
        #: highest seq with a quorum-certified checkpoint; slots at or
        #: below it are truncated
        self.stable_seq = 0
        #: highest peer execution frontier learned from order proofs
        self._known_frontier = 0
        #: head-of-line retransmission backoff (shared RetrySchedule)
        self._retrans_schedule = RetrySchedule(
            RetryPolicy(
                base_ms=config.retrans_interval_ms,
                factor=2.0,
                max_ms=config.retrans_interval_ms * 16,
                max_attempts=8,
            ),
            rng=simulator.rng(f"pbft-retrans/{name}"),
        )
        self._retrans_head: Optional[int] = None
        self._retrans_due = 0.0
        self._started = False
        self._register_handlers()

    def _register_handlers(self) -> None:
        reg = self.dispatcher.register
        reg(ForwardedUpdate, self._on_forwarded)
        # Pre-prepares and NewViews are authenticated in-handler: NewView
        # replay re-enters on_pre_prepare past the dispatcher.
        reg(PbftPrePrepare, self.ordering.on_pre_prepare)
        reg(Prepare, self.ordering.on_prepare, "sender")
        reg(Commit, self.ordering.on_commit, "sender")
        reg(PbftCheckpoint, self._on_checkpoint, "sender")
        reg(PbftFetch, self._on_fetch, "sender")
        reg(PbftOrderProof, self._on_order_proof, "sender")
        reg(PbftViewChange, self._on_view_change, "sender")
        reg(NewView, self._on_new_view)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self._start_timers()

    def _start_timers(self) -> None:
        self.every(self.config.check_interval_ms, self._timeout_tick, jitter=2.0)
        self.every(self.config.retrans_interval_ms, self._retrans_tick, jitter=2.0)
        self.every(self.config.forward_interval_ms, self._forward_tick, jitter=2.0)

    def on_recover(self) -> None:
        """Rejoin after a crash. PBFT assumes stable storage for the
        message log, so the ordering state survives; only the timers (and
        the in-flight batch/retransmission cursors they drive) are
        volatile and must be re-armed for the new incarnation."""
        self._batch_timer_set = False
        self._retrans_head = None
        self._retrans_schedule.reset()
        if self._started:
            self._start_timers()
            # Probe peers for what we missed while down: the order proofs
            # they answer with carry their execution frontier, which arms
            # the fetch-based catch-up loop in _retrans_tick.
            self._broadcast(PbftFetch(self.name, self.last_executed + 1),
                            include_self=False)

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of_view(self.view) == self.name

    @property
    def last_executed_seq(self) -> int:
        """The execution frontier, under the name chaos and control read."""
        return self.last_executed

    def sign_message(self, payload: Any) -> SignedMessage:
        return self.runtime.sign(payload)

    def verify_signed(self, signed: SignedMessage) -> bool:
        return self.runtime.verify(signed)

    def _broadcast(self, payload: Any, include_self: bool = True) -> SignedMessage:
        return self.runtime.broadcast(payload, include_self=include_self)

    def _send_to(self, peer: str, payload: Any) -> None:
        self.runtime.send_to(peer, payload)

    # ------------------------------------------------------------------
    # Client path
    # ------------------------------------------------------------------
    def submit(self, update: ClientUpdate) -> bool:
        if not self.is_up:
            return False
        if not verify_client_update(self.crypto, update):
            return False
        if self.client_dedup.is_duplicate(update.client, update.client_seq):
            return False
        self._pending[(update.client, update.client_seq)] = (
            update, self.simulator.now,
        )
        # PBFT clients broadcast to all replicas so every replica starts a
        # timeout for the request (that is what arms the view change).
        self._broadcast(ForwardedUpdate(self.name, update), include_self=True)
        return True

    def _forward_tick(self) -> None:
        """Re-forward pending updates (leader may have changed or lost them)."""
        if self.in_view_change:
            # No acknowledged leader: re-forwarding mid-view-change would
            # hand the old (possibly faulty) leader fresh ammunition and,
            # worse, let a request straddle the view boundary twice. The
            # post-new-view re-forward covers everything still pending.
            return
        leader = self.config.leader_of_view(self.view)
        for update, _ in list(self._pending.values()):
            self._send_to(leader, ForwardedUpdate(self.name, update))

    def _on_forwarded(self, signed: SignedMessage, msg: ForwardedUpdate) -> None:
        update = msg.update
        if not verify_client_update(self.crypto, update):
            return
        key = (update.client, update.client_seq)
        if self.client_dedup.is_duplicate(update.client, update.client_seq):
            return
        if key not in self._pending:
            self._pending[key] = (update, self.simulator.now)
        if not self.is_leader or self.in_view_change:
            return
        if key in self._leader_inflight:
            return
        self._leader_inflight.add(key)
        self._leader_buffer.append(update)
        if not self._batch_timer_set:
            self._batch_timer_set = True
            self.set_timer(self.config.batch_interval_ms, self._flush_batch)

    def _flush_batch(self) -> None:
        self._batch_timer_set = False
        if not self.is_leader or self.in_view_change or not self._leader_buffer:
            return
        batch = tuple(self._leader_buffer[: self.config.batch_max_updates])
        del self._leader_buffer[: len(batch)]
        self._broadcast(PbftPrePrepare(self.name, self.view, self._next_seq, batch))
        self._next_seq += 1
        if self._leader_buffer:
            self._batch_timer_set = True
            self.set_timer(self.config.batch_interval_ms, self._flush_batch)

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        self.runtime.receive(payload)

    def _dispatch(self, signed: SignedMessage) -> None:
        self.dispatcher.dispatch(signed)

    def _try_execute(self) -> None:
        interval = self.config.checkpoint_interval
        while True:
            slot = self.slots.get(self.last_executed + 1)
            if slot is None or slot.ordered is None:
                break
            for update in slot.ordered[2].payload.batch:
                self._execute_update(update)
            self.last_executed += 1
            # Checkpoint exactly at the interval boundary, inside the
            # loop, so every replica digests the same post-seq state even
            # when several slots execute back to back.
            if interval > 0 and self.last_executed % interval == 0:
                self._send_checkpoint(self.last_executed)

    def _execute_update(self, update: ClientUpdate) -> None:
        key = (update.client, update.client_seq)
        self._pending.pop(key, None)
        self._leader_inflight.discard(key)
        if self.client_dedup.is_duplicate(update.client, update.client_seq):
            return
        if not verify_client_update(self.crypto, update):
            return
        self.client_dedup.mark(update.client, update.client_seq)
        self.executed_counter += 1
        result = self.app.execute(update, self.executed_counter)
        for listener in self.execution_listeners:
            listener(update, self.executed_counter, result)

    # ------------------------------------------------------------------
    # Checkpoints (quorum-certified log truncation)
    # ------------------------------------------------------------------
    def _send_checkpoint(self, seq: int) -> None:
        state = digest((seq, self.app.state_digest(), self.executed_counter))
        self._broadcast(PbftCheckpoint(self.name, seq, state))

    def _on_checkpoint(self, signed: SignedMessage, msg: PbftCheckpoint) -> None:
        if msg.seq <= self.stable_seq:
            return
        self._checkpoint_votes.add(msg.seq, msg.digest, msg.sender, signed)
        proof = self._checkpoint_votes.certificate(
            msg.seq, msg.digest, self.config.quorum
        )
        if proof is not None:
            self._make_stable(msg.seq)

    def _make_stable(self, seq: int) -> None:
        self.stable_seq = seq
        self._checkpoint_votes.drop_upto(seq)
        # Truncate with a retention window (a few checkpoint intervals):
        # the retained ordered slots are what :class:`PbftOrderProof`
        # responses serve to replicas that fell behind the checkpoint —
        # the baseline's stand-in for full state transfer. Never truncate
        # past our own execution frontier.
        retain = 4 * max(1, self.config.checkpoint_interval)
        bound = min(seq - retain, self.last_executed)
        for old in [s for s in self.slots if s <= bound]:
            del self.slots[old]
        self.obs.event(self.name, EV_PBFT_CHECKPOINT, seq=seq)

    # ------------------------------------------------------------------
    # Laggard catch-up: fetch commit-certified slots from peers
    # ------------------------------------------------------------------
    def _on_fetch(self, signed: SignedMessage, msg: PbftFetch) -> None:
        for seq in range(msg.from_seq, msg.from_seq + 8):
            slot = self.slots.get(seq)
            if slot is None or slot.ordered is None:
                continue
            _, _, pre_prepare, proof = slot.ordered
            self._send_to(msg.sender, PbftOrderProof(
                self.name, seq, pre_prepare, proof, frontier=self.last_executed,
            ))

    def _on_order_proof(self, signed: SignedMessage, msg: PbftOrderProof) -> None:
        if msg.seq <= self.last_executed:
            return
        if self.ordering.install_certified(
            msg.seq, msg.pre_prepare, msg.proof, strict=False
        ):
            self._known_frontier = max(self._known_frontier, msg.frontier)

    # ------------------------------------------------------------------
    # Retransmission (bounded backoff over the shared RetrySchedule)
    # ------------------------------------------------------------------
    def _retrans_tick(self) -> None:
        head = self.last_executed + 1
        slot = self.slots.get(head)
        # A quorum checkpointed past our head: the live vote traffic for
        # it is gone, so retransmitting votes cannot unblock us — fetch
        # commit-certified slots from peers instead. This path must run
        # even mid-view-change: it is how a crashed-and-recovered (or
        # view-wedged) replica re-joins execution.
        behind = max(self.stable_seq, self._known_frontier) >= head
        if not behind and (slot is None or slot.ordered is not None):
            if self._retrans_head is not None:
                self._retrans_head = None
                self._retrans_schedule.reset()
            return
        now = self.simulator.now
        if head != self._retrans_head:
            # new head-of-line stall: resend immediately, then back off
            self._retrans_head = head
            self._retrans_schedule.reset()
            self._retrans_due = now
        if now < self._retrans_due:
            return
        self._retrans_due = now + self._retrans_schedule.next_delay_ms()
        if behind:
            self._broadcast(PbftFetch(self.name, head), include_self=False)
            return
        if self.in_view_change:
            return
        pre_prepare = slot.pre_prepares.get(self.view)
        if pre_prepare is not None:
            self.runtime.resend(pre_prepare, size_bytes=300)
        self.ordering.rebroadcast_vote(slot)

    # ------------------------------------------------------------------
    # Timeout-based view change (the baseline's only defence)
    # ------------------------------------------------------------------
    def _timeout_tick(self) -> None:
        if self.in_view_change:
            return
        if self.stable_seq > self.last_executed:
            # A quorum is ahead of us: our stale pending entries are OUR
            # lag, not the leader's fault — accusing it would drag the
            # cluster through spurious views. Catch up (fetch path) first.
            return
        now = self.simulator.now
        oldest = min((since for _, since in self._pending.values()), default=None)
        if oldest is not None and now - oldest > self.config.request_timeout_ms:
            self.obs.event(self.name, EV_PBFT_TIMEOUT, view=self.view,
                           age=now - oldest)
            self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view in self._sent_vc_for or new_view < self.view:
            return
        self._sent_vc_for.add(new_view)
        self.view = max(self.view, new_view)
        self.in_view_change = True
        # Un-proposed buffered work goes back to the pending pool (it is
        # still there — the buffer only mirrors it): the *new* leader must
        # propose it after the view change, or a faulty old leader could
        # make the batch straddle the boundary and execute twice.
        self._leader_buffer.clear()
        self._leader_inflight.clear()
        self.obs.event(self.name, EV_PBFT_VIEW_CHANGE, view=new_view)
        vc = PbftViewChange(
            self.name, new_view, self.last_executed,
            prepared_entries(self.slots, above=self.last_executed),
        )
        self._broadcast(vc)
        self.set_timer(
            self.config.request_timeout_ms, self._view_change_timeout, new_view
        )

    def _view_change_timeout(self, expected_view: int) -> None:
        if not self.in_view_change or self.view != expected_view:
            return
        if not self._pending or self.stable_seq > self.last_executed:
            # Nothing to order, or we are an execution laggard: cascading
            # solo would run our view arbitrarily ahead of the cluster
            # (and our ever-higher ViewChanges would eventually drag
            # everyone along). Sit in this view and re-check; the fetch
            # path or a peer-served NewView re-integrates us.
            self.set_timer(
                self.config.request_timeout_ms, self._view_change_timeout,
                expected_view,
            )
            return
        self._start_view_change(expected_view + 1)

    def _on_view_change(self, signed: SignedMessage, msg: PbftViewChange) -> None:
        if msg.new_view < self.view:
            # A replica still changing into a view we already passed (a
            # crashed leader rejoining, a laggard behind a cascade): hand
            # it the NewView that took us here so it converges instead of
            # cascading its timeout forever.
            if (
                self._last_new_view is not None
                and self._last_new_view.payload.view == self.view
                and msg.sender != self.name
            ):
                self.runtime.resend(
                    self._last_new_view, peers=(msg.sender,), size_bytes=600
                )
            return
        if not self.view_manager.validate_view_change(
            signed, msg, self.verify_signed
        ):
            return
        count = self.view_manager.add_view_change(signed, msg)
        if msg.new_view > self.view and count >= self.config.num_faults + 1:
            self._start_view_change(msg.new_view)
        built = self.view_manager.build_new_view(msg.new_view, self.sign_message)
        if built is not None:
            self._broadcast(built[0])

    def _on_new_view(self, signed: SignedMessage, msg: NewView) -> None:
        if msg.view < self.view or (msg.view == self.view and not self.in_view_change):
            return
        verified = self.view_manager.verify_new_view(
            signed, msg, self.verify_signed
        )
        if verified is None:
            return
        pre_prepares, _, max_seq = verified
        self.view = msg.view
        self.in_view_change = False
        self._last_new_view = signed
        self._min_fresh_seq = max_seq + 1
        self._next_seq = max(self._next_seq, self._min_fresh_seq)
        # Restart the request timers (Castro-Liskov: the timer restarts
        # when a new view is installed): backlogged requests get a full
        # timeout for the new leader to order them, instead of instantly
        # re-accusing it with their pre-view-change age.
        now = self.simulator.now
        self._pending = {
            key: (update, now) for key, (update, _) in self._pending.items()
        }
        self.obs.event(self.name, EV_PBFT_NEW_VIEW, view=msg.view)
        for pp_signed in pre_prepares:
            self.ordering.on_pre_prepare(
                pp_signed, pp_signed.payload, from_new_view=True
            )
        # Adopted: drop vote bookkeeping for every view below this one.
        self.view_manager.garbage_collect(self.view)
        self._sent_vc_for = {v for v in self._sent_vc_for if v >= self.view}
        # re-forward pending work to the new leader
        self._forward_tick()
