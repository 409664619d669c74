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

Scope: the baseline implements the three-phase ordering, batching,
forwarding to the leader, timeout-driven view changes with deterministic
re-proposal derivation and Byzantine-proof validation (prepared
certificates are re-checked, a new leader's re-proposals are re-derived,
and embedded pre-prepares must be the leader's own signatures — an
equivocating new leader cannot rewrite history), checkpoint-based log
truncation, and retransmission against loss. It does not implement state
transfer — a replica that falls behind a stable checkpoint catches up by
replaying retained slots; full snapshot transfer is exercised through
Prime, which is the system under test.

Like Prime, the node rides on the shared
:class:`~repro.replication.runtime.ReplicationRuntime` (envelope
discipline, membership fan-out, send accounting), a
:class:`~repro.replication.dispatch.Dispatcher` for typed routing with
per-kind observability, :class:`~repro.replication.ordering.ThreePhaseSlot`
for per-slot agreement state, and
:class:`~repro.replication.epoch.EpochVoteTable` /
:func:`~repro.replication.epoch.derive_reproposals` for its view-change
bookkeeping. Head-of-line retransmission backs off through the shared
:class:`~repro.replication.retry.RetrySchedule` instead of hammering at a
fixed interval.
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
    Dispatcher,
    DirectTransport,
    EpochVoteTable,
    ReplicationRuntime,
    RetryPolicy,
    RetrySchedule,
    SignedMessage,
    ThreePhaseSlot,
    Transport,
    derive_reproposals,
)
from ..replication.quorum import (
    QuorumTracker,
    collect_valid_voters,
    verify_certificate,
)
from ..simnet import Network, Process, Simulator
from .messages import (
    ForwardedUpdate,
    PbftCheckpoint,
    PbftCommit,
    PbftFetch,
    PbftNewView,
    PbftOrderProof,
    PbftPrepare,
    PbftPrepared,
    PbftPrePrepare,
    PbftViewChange,
)

__all__ = ["PbftConfig", "PbftNode"]


class PbftConfig:
    """Static configuration for one PBFT group."""

    def __init__(
        self,
        replicas: Tuple[str, ...],
        num_faults: int = 1,
        batch_interval_ms: float = 5.0,
        batch_max_updates: int = 64,
        request_timeout_ms: float = 2000.0,
        check_interval_ms: float = 100.0,
        retrans_interval_ms: float = 50.0,
        forward_interval_ms: float = 200.0,
        checkpoint_interval: int = 16,
    ) -> None:
        if len(replicas) < 3 * num_faults + 1:
            raise ValueError("PBFT needs n >= 3f + 1")
        self.replicas = tuple(replicas)
        self.num_faults = num_faults
        self.batch_interval_ms = batch_interval_ms
        self.batch_max_updates = batch_max_updates
        self.request_timeout_ms = request_timeout_ms
        self.check_interval_ms = check_interval_ms
        self.retrans_interval_ms = retrans_interval_ms
        self.forward_interval_ms = forward_interval_ms
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


def _sender_matches_signer(payload: Any, signer: str) -> bool:
    # The baseline deliberately skips the membership half of the standard
    # sender check (non-members cannot produce verifying envelopes under
    # the simulated PKI); Byzantine-proof validation is Prime's job.
    return payload.sender == signer


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
        self.dispatcher = Dispatcher(obs=self.obs, metric_prefix="pbft")
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
        #: new_view -> sender -> signed PbftViewChange
        self._view_changes = EpochVoteTable()
        self._sent_vc_for: set = set()
        self._sent_nv_for: set = set()
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
        # PbftPrePrepare / PbftNewView keep their leader/signer checks
        # in-handler: new-view replay re-enters _on_pre_prepare directly.
        reg(PbftPrePrepare, self._on_pre_prepare)
        reg(PbftPrepare, self._on_prepare, sender_check=_sender_matches_signer)
        reg(PbftCommit, self._on_commit, sender_check=_sender_matches_signer)
        reg(PbftCheckpoint, self._on_checkpoint,
            sender_check=_sender_matches_signer)
        reg(PbftFetch, self._on_fetch, sender_check=_sender_matches_signer)
        reg(PbftOrderProof, self._on_order_proof,
            sender_check=_sender_matches_signer)
        reg(PbftViewChange, self._on_view_change,
            sender_check=_sender_matches_signer)
        reg(PbftNewView, self._on_new_view)

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

    def _slot(self, seq: int) -> ThreePhaseSlot:
        if seq not in self.slots:
            self.slots[seq] = ThreePhaseSlot(seq)
        return self.slots[seq]

    @staticmethod
    def _batch_digest(seq: int, batch: Tuple[ClientUpdate, ...]) -> str:
        return digest((seq, tuple((u.client, u.client_seq, digest(u.payload))
                                  for u in batch)))

    def _on_pre_prepare(
        self, signed: SignedMessage, msg: PbftPrePrepare, from_new_view: bool = False
    ) -> None:
        if msg.view != self.view or (self.in_view_change and not from_new_view):
            return
        if msg.leader != self.config.leader_of_view(msg.view):
            return
        if signed.signature.signer != msg.leader:
            return
        if msg.seq <= self.stable_seq:
            return
        if not from_new_view and msg.seq < self._min_fresh_seq:
            return
        slot = self._slot(msg.seq)
        if msg.view in slot.pre_prepares:
            return
        slot.pre_prepares[msg.view] = signed
        batch_digest = self._batch_digest(msg.seq, msg.batch)
        # the leader's pre-prepare doubles as its prepare vote
        slot.record_prepare(msg.view, batch_digest, msg.leader, signed)
        if slot.should_vote_prepare(msg.view):
            slot.prepared_vote = (msg.view, batch_digest)
            self._broadcast(PbftPrepare(self.name, msg.view, msg.seq, batch_digest))
        self._check_prepared(slot, msg.view, batch_digest)
        self._check_ordered(slot, msg.view, batch_digest)

    def _on_prepare(self, signed: SignedMessage, msg: PbftPrepare) -> None:
        if msg.seq <= self.stable_seq:
            return
        slot = self._slot(msg.seq)
        slot.record_prepare(msg.view, msg.digest, msg.sender, signed)
        self._check_prepared(slot, msg.view, msg.digest)

    def _check_prepared(
        self, slot: ThreePhaseSlot, view: int, batch_digest: str
    ) -> None:
        if not slot.note_prepared(view, batch_digest, self.config.quorum):
            return
        if slot.should_vote_commit(view, batch_digest):
            slot.committed_vote = (view, batch_digest)
            self._broadcast(PbftCommit(self.name, view, slot.seq, batch_digest))

    def _on_commit(self, signed: SignedMessage, msg: PbftCommit) -> None:
        if msg.seq <= self.stable_seq:
            return
        slot = self._slot(msg.seq)
        slot.record_commit(msg.view, msg.digest, msg.sender, signed)
        self._check_ordered(slot, msg.view, msg.digest)

    def _check_ordered(
        self, slot: ThreePhaseSlot, view: int, batch_digest: str
    ) -> None:
        if slot.ordered is not None:
            return
        if len(slot.commit_voters(view, batch_digest)) < self.config.quorum:
            return
        pre_prepare = slot.pre_prepares.get(view)
        if pre_prepare is None:
            return
        if self._batch_digest(slot.seq, pre_prepare.payload.batch) != batch_digest:
            return
        slot.ordered = (view, batch_digest, pre_prepare)
        self._try_execute()

    def _try_execute(self) -> None:
        interval = self.config.checkpoint_interval
        while True:
            slot = self.slots.get(self.last_executed + 1)
            if slot is None or slot.ordered is None:
                break
            _, _, pre_prepare = slot.ordered
            for update in pre_prepare.payload.batch:
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
        if self.obs.enabled:
            self.obs.gauge(f"pbft.stable_seq.{self.name}").set(float(seq))

    # ------------------------------------------------------------------
    # Laggard catch-up: fetch commit-certified slots from peers
    # ------------------------------------------------------------------
    def _on_fetch(self, signed: SignedMessage, msg: PbftFetch) -> None:
        for seq in range(msg.from_seq, msg.from_seq + 8):
            slot = self.slots.get(seq)
            if slot is None or slot.ordered is None:
                continue
            view, batch_digest, pre_prepare = slot.ordered
            proof = slot.commit_certificate(view, batch_digest, self.config.quorum)
            if proof is None:
                continue
            self._send_to(msg.sender, PbftOrderProof(
                self.name, seq, view, batch_digest, pre_prepare, proof,
                frontier=self.last_executed,
            ))

    def _on_order_proof(self, signed: SignedMessage, msg: PbftOrderProof) -> None:
        if msg.seq <= self.last_executed:
            return
        slot = self._slot(msg.seq)
        if slot.ordered is not None:
            return
        pp_signed = msg.pre_prepare
        pp = pp_signed.payload
        if not isinstance(pp, PbftPrePrepare):
            return
        if pp.seq != msg.seq or pp.view != msg.view:
            return
        if pp.leader != self.config.leader_of_view(pp.view):
            return
        if pp_signed.signature.signer != pp.leader:
            return
        if not self.verify_signed(pp_signed):
            return
        if self._batch_digest(msg.seq, pp.batch) != msg.digest:
            return
        # A quorum of commits is transferable: any two quorums intersect
        # in a correct replica, so a certified decision cannot conflict
        # with anything we could still order locally — safe to install
        # whatever view we are in.
        ok = verify_certificate(
            msg.proof,
            quorum=self.config.quorum,
            membership=self.config.replicas,
            verify_signed=self.verify_signed,
            expected_kind=PbftCommit,
            check=lambda p: (
                p.view == msg.view
                and p.seq == msg.seq
                and p.digest == msg.digest
            ),
            strict=False,
        )
        if not ok:
            return
        self._known_frontier = max(self._known_frontier, msg.frontier)
        slot.pre_prepares.setdefault(msg.view, pp_signed)
        slot.ordered = (msg.view, msg.digest, pp_signed)
        self._try_execute()

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
        if slot.committed_vote is not None:
            view, batch_digest = slot.committed_vote
            self._broadcast(
                PbftCommit(self.name, view, slot.seq, batch_digest), include_self=False
            )
        elif slot.prepared_vote is not None:
            view, batch_digest = slot.prepared_vote
            self._broadcast(
                PbftPrepare(self.name, view, slot.seq, batch_digest), include_self=False
            )

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
        if self.obs.enabled:
            self.obs.counter(
                f"replication.view_changes_total.{self.name}").inc()
            self.obs.gauge(f"replication.view.{self.name}").set(float(new_view))
        prepared = []
        for seq in sorted(self.slots):
            slot = self.slots[seq]
            if seq <= self.last_executed:
                continue
            if slot.prepared_cert is None or slot.prepared_proof is None:
                continue
            view, batch_digest = slot.prepared_cert
            pre_prepare = slot.pre_prepares.get(view)
            if pre_prepare is None:
                continue
            prepared.append(
                PbftPrepared(seq, view, batch_digest, pre_prepare, slot.prepared_proof)
            )
        vc = PbftViewChange(self.name, new_view, self.last_executed, tuple(prepared))
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

    @staticmethod
    def _derive(view_changes: List[PbftViewChange]):
        return derive_reproposals(
            view_changes,
            anchor_of=lambda vc: vc.last_executed,
            entries_of=lambda vc: vc.prepared,
            content_of=lambda entry: entry.pre_prepare.payload.batch,
            empty=(),
        )

    # ------------------------------------------------------------------
    # View-change validation (Byzantine-proof, mirrors Prime's)
    # ------------------------------------------------------------------
    def _validate_prepared(self, entry: PbftPrepared) -> bool:
        """A prepared certificate binds (view, seq, digest) to the
        pre-prepare content it claims: the embedded pre-prepare must be
        the view leader's own signature over the batch whose digest the
        quorum vouched for."""
        pp_signed = entry.pre_prepare
        pp = pp_signed.payload
        if not isinstance(pp, PbftPrePrepare):
            return False
        if pp.seq != entry.seq or pp.view != entry.view:
            return False
        if pp.leader != self.config.leader_of_view(pp.view):
            return False
        if pp_signed.signature.signer != pp.leader:
            return False
        if not self.verify_signed(pp_signed):
            return False
        # Bind the claimed digest to the batch: without this a Byzantine
        # replica could pair an honest certificate with a different batch
        # and the re-proposal derivation (which reads the batch, not the
        # digest) would rewrite history.
        if self._batch_digest(entry.seq, pp.batch) != entry.digest:
            return False
        # Lenient voter scan: appended garbage must not invalidate honest
        # votes; the leader's pre-prepare counts as its prepare vote.
        voters = collect_valid_voters(
            entry.proof,
            membership=self.config.replicas,
            verify_signed=self.verify_signed,
            expected_kind=(PbftPrepare, PbftCommit),
            check=lambda p: (
                p.view == entry.view
                and p.seq == entry.seq
                and p.digest == entry.digest
            ),
            strict=False,
            initial=(pp.leader,),
        )
        return voters is not None and len(voters) >= self.config.quorum

    def _validate_view_change(
        self, signed: SignedMessage, vc: PbftViewChange
    ) -> bool:
        if vc.sender != signed.signature.signer:
            return False
        if vc.sender not in self.config.replicas:
            return False
        seen_seqs = set()
        for entry in vc.prepared:
            if entry.seq in seen_seqs or entry.seq <= vc.last_executed:
                return False
            seen_seqs.add(entry.seq)
            if not self._validate_prepared(entry):
                return False
        return True

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
        if not self._validate_view_change(signed, msg):
            return
        count = self._view_changes.record(msg.new_view, msg.sender, signed)
        if msg.new_view > self.view and count >= self.config.num_faults + 1:
            self._start_view_change(msg.new_view)
        if (
            self.config.leader_of_view(msg.new_view) == self.name
            and count >= self.config.quorum
            and msg.new_view not in self._sent_nv_for
        ):
            self._sent_nv_for.add(msg.new_view)
            chosen = self._view_changes.chosen(msg.new_view, self.config.quorum)
            _, proposals = self._derive([s.payload for s in chosen])
            pre_prepares = tuple(
                self.sign_message(PbftPrePrepare(self.name, msg.new_view, seq, batch))
                for seq, batch in proposals
            )
            self._broadcast(
                PbftNewView(self.name, msg.new_view, tuple(chosen), pre_prepares)
            )

    def _on_new_view(self, signed: SignedMessage, msg: PbftNewView) -> None:
        if msg.view < self.view or (msg.view == self.view and not self.in_view_change):
            return
        if msg.leader != self.config.leader_of_view(msg.view):
            return
        if signed.signature.signer != msg.leader:
            return
        senders = set()
        payloads = []
        for vc_signed in msg.view_changes:
            vc = vc_signed.payload
            if not isinstance(vc, PbftViewChange) or vc.new_view != msg.view:
                return
            if not self.verify_signed(vc_signed):
                return
            if not self._validate_view_change(vc_signed, vc):
                return
            senders.add(vc.sender)
            payloads.append(vc)
        if len(senders) < self.config.quorum:
            return
        _, expected = self._derive(payloads)
        if len(expected) != len(msg.pre_prepares):
            return
        for (seq, batch), pp_signed in zip(expected, msg.pre_prepares):
            pp = pp_signed.payload
            if not isinstance(pp, PbftPrePrepare):
                return
            if pp.seq != seq or pp.batch != batch or pp.view != msg.view:
                return
            # Each re-proposal must be the new leader's own signature: a
            # faulty new leader that equivocates (sends different signed
            # batches to different replicas) fails the derivation check
            # above; one that relays someone else's signatures fails here.
            if pp.leader != msg.leader or pp_signed.signature.signer != msg.leader:
                return
            if not self.verify_signed(pp_signed):
                return
        self.view = msg.view
        self.in_view_change = False
        self._last_new_view = signed
        self._min_fresh_seq = (expected[-1][0] if expected else self.last_executed) + 1
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
        if self.obs.enabled:
            self.obs.gauge(f"replication.view.{self.name}").set(float(msg.view))
        for pp_signed in msg.pre_prepares:
            self._on_pre_prepare(pp_signed, pp_signed.payload, from_new_view=True)
        # Adopted: drop vote bookkeeping for every view below this one.
        self._view_changes.drop_below(self.view)
        self._sent_vc_for = {v for v in self._sent_vc_for if v >= self.view}
        self._sent_nv_for = {v for v in self._sent_nv_for if v >= self.view}
        # re-forward pending work to the new leader
        self._forward_tick()
