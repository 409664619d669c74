"""The Prime replica: a composition of protocol stages on the shared
replication runtime.

One :class:`PrimeNode` mounts the full protocol stack described in
DESIGN.md §1.2 and §8 as four stage objects on a
:class:`~repro.replication.runtime.ReplicationRuntime`:

* :class:`~repro.prime.preorder.PreOrderStage` — client-update batching,
  PO-Request/Ack certification, PO-Summary gossip;
* :class:`~repro.prime.ordering.OrderingStage` — leader proposals and
  three-phase agreement over summary matrices;
* :class:`~repro.prime.execution.ExecutionCutoff` — coverage-cutoff
  execution of ordered matrices;
* :class:`~repro.prime.recovery.RecoveryStage` — checkpoints,
  reconciliation, and state transfer;
* :class:`~repro.prime.leadership.LeadershipStage` — RTT/TAT suspect
  monitoring and view changes.

Protocol *state* lives on the node (it is shared between stages and is
the surface tests, benchmarks and attack installers instrument);
*behaviour* lives in the stages. Message routing goes through a
:class:`~repro.replication.dispatch.Dispatcher` that authenticates each
payload's claimed sender before any handler runs, and all sending goes
through the runtime (sign once, fan out, loop back through
``_dispatch`` so instrumentation wrappers intercept local delivery too).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..crypto.provider import CryptoProvider
from ..obs import EV_RECOVERY_START, NULL_OBS, Observability
from ..replication import (
    CertifiedSlot,
    DirectTransport,
    Dispatcher,
    ReplicationRuntime,
    RetryPolicy,
    SlotFetch,
    ThreePhaseSlot,
    Transport,
)
from ..simnet import Network, Process, Simulator
from .app import ReplicatedApplication
from .checkpoint import CheckpointManager
from .config import PrimeConfig
from .dedup import ClientDedup
from .execution import ExecutionCutoff
from .leadership import LeadershipStage
from .messages import (
    CheckpointMsg,
    ClientUpdate,
    Commit,
    NewView,
    Ping,
    PoAck,
    Pong,
    PoRequest,
    PoSummary,
    Prepare,
    PrePrepare,
    ReconReply,
    ReconRequest,
    SignedMessage,
    StateReply,
    StateRequest,
    Suspect,
    ViewChange,
    client_update_body,
    sign_client_update,
    verify_client_update,
)
from .ordering import OrderingStage
from .preorder import PreOrderStage
from .recovery import RecoveryStage
from .state import OriginState
from .suspect import SuspectMonitor
from .viewchange import ViewChangeManager

__all__ = ["PrimeNode", "sign_client_update", "verify_client_update", "client_update_body"]


#: rough wire sizes (bytes) per message type, for bandwidth modelling
_BASE_SIZES = {
    "PoRequest": 300,
    "PoAck": 120,
    "PoSummary": 200,
    "PrePrepare": 400,
    "Prepare": 120,
    "Commit": 120,
    "Suspect": 120,
    "ViewChange": 800,
    "NewView": 2000,
    "CheckpointMsg": 150,
    "Ping": 80,
    "Pong": 80,
    "ReconRequest": 100,
    "ReconReply": 700,
    "SlotFetch": 100,
    "CertifiedSlot": 900,
    "StateRequest": 80,
    "StateReply": 2000,
}


class PrimeNode(Process):
    """One Prime replica process."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        config: PrimeConfig,
        crypto: CryptoProvider,
        app: ReplicatedApplication,
        transport: Optional[Transport] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(name, simulator, network)
        if name not in config.replicas:
            raise ValueError(f"{name} is not in the replica set")
        self.config = config
        self.crypto = crypto
        self.app = app
        self.obs = obs if obs is not None else NULL_OBS
        self.transport: Transport = transport or DirectTransport(self, obs=self.obs)
        self.dispatcher = Dispatcher(self._replicas, obs=self.obs, metric_prefix="prime")
        self.runtime = ReplicationRuntime(
            process=self,
            crypto=crypto,
            replicas_fn=self._replicas,
            dispatcher=self.dispatcher,
            size_of=self._size_of,
            obs=self.obs,
            metric_prefix="prime",
            loopback_dispatch=False,
        )
        # State-transfer requests back off exponentially (with jitter) so a
        # recovering replica behind a lossy or partitioned link does not
        # flood the network with fixed-rate rebroadcasts.
        self._state_retry_policy = RetryPolicy(
            base_ms=config.recon_interval_ms * 2,
            factor=2.0,
            max_ms=max(config.view_change_timeout_ms, config.recon_interval_ms * 2),
            max_attempts=6,
        )
        self._genesis = app.snapshot()
        self._recoveries = 0
        self.execution_listeners: List[Callable[[ClientUpdate, int, Any], None]] = []
        # Batch listeners receive the executed updates of one certified
        # PoRequest at once: (request, [(update, order_index, result),
        # ...]) — the delivery surface. The per-update
        # execution_listeners fire for each of them first (monitors).
        self.batch_execution_listeners: List[
            Callable[[PoRequest, List[Tuple[ClientUpdate, int, Any]]], None]
        ] = []
        self._init_protocol_state()
        self._started = False

    # ------------------------------------------------------------------
    # State (re)initialisation
    # ------------------------------------------------------------------
    def _init_protocol_state(self) -> None:
        self.view = 0
        self.in_view_change = False
        self.awaiting_state = False
        self.origin_id = f"{self.name}#{self._recoveries}"
        self.origins: Dict[str, OriginState] = {}
        self.slots: Dict[int, ThreePhaseSlot] = {}
        self.last_executed_seq = 0
        self.executed_counter = 0
        self.client_dedup = ClientDedup()
        self.monitor = SuspectMonitor(self.config, self.name)
        self.view_manager = ViewChangeManager(self.config, self.name)
        self.checkpoints = CheckpointManager(self.config)
        self._pending_updates: List[ClientUpdate] = []
        self._batch_timer_set = False
        self._own_po_seq = 0
        self._latest_summaries: Dict[str, SignedMessage] = {}
        #: peer -> the summary of theirs that our last reconciliation push
        #: answered (pushed again only once they send a newer one)
        self._recon_answered: Dict[str, SignedMessage] = {}
        self._own_summary_seq = 0
        self._summary_dirty = False
        self._last_summary_sent = 0.0
        self._last_proposed_key: Any = None
        self._next_seq = 1
        self._min_fresh_seq = 1
        self._ping_nonce = 0
        self._recon_rotor = 0
        self._vc_timer = None
        self._vc_retrans_timer = None
        self._last_vc_sent: Optional[ViewChange] = None
        self._last_nv_sent: Optional[NewView] = None
        #: sender -> highest view seen in their ordering-stage messages;
        #: f+1 distinct senders above our view triggers state transfer
        self._higher_view_seen: Dict[str, int] = {}
        #: sender -> view claimed in their StateReply (a view is adopted
        #: only once f+1 replies claim it)
        self._state_view_claims: Dict[str, int] = {}
        self._genesis_replies: Set[str] = set()
        self._state_retry_attempts = 0
        self._state_retry_timer = None
        # Fresh stages per incarnation: recovery must not leak stage-level
        # references to pre-recovery state.
        self.preorder = PreOrderStage(self)
        self.ordering = OrderingStage(self)
        self.execution = ExecutionCutoff(self)
        self.recovery = RecoveryStage(self)
        self.leadership = LeadershipStage(self)
        self._register_handlers()

    def _register_handlers(self) -> None:
        """Bind each wire message to its stage handler and the field the
        dispatcher checks against the envelope signer."""
        register = self.dispatcher.register
        register(PoRequest, self.preorder.on_po_request, rule=self._po_request_check)
        register(PoAck, self.preorder.on_po_ack, "sender")
        register(PoSummary, self.preorder.on_po_summary, "sender")
        register(PrePrepare, self.ordering.on_pre_prepare, "leader")
        register(Prepare, self.ordering.on_prepare, "sender")
        register(Commit, self.ordering.on_commit, "sender")
        register(Suspect, self.leadership.on_suspect, "sender")
        register(ViewChange, self.leadership.on_view_change, "sender")
        register(NewView, self.leadership.on_new_view, "leader")
        register(CheckpointMsg, self.recovery.on_checkpoint, "sender")
        register(Ping, self.leadership.on_ping, "sender")
        register(Pong, self.leadership.on_pong, "sender")
        register(ReconRequest, self.recovery.on_recon_request, "sender")
        register(ReconReply, self.recovery.on_recon_reply, "sender")
        register(SlotFetch, self.ordering.on_fetch, "sender")
        register(CertifiedSlot, self.ordering.on_certified_slot, "sender")
        register(StateRequest, self.recovery.on_state_request, "sender")
        register(StateReply, self.recovery.on_state_reply, "sender")

    def _replicas(self) -> Tuple[str, ...]:
        return self.config.replicas

    def _po_request_check(self, payload: PoRequest, signer: str) -> bool:
        # signed by the replica owning the origin stream (``replica#epoch``)
        owner = payload.origin.split("#", 1)[0]
        return owner == signer and owner in self.config.replicas

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the protocol timers; call once wiring is complete."""
        self._started = True
        self._start_timers()

    def _start_timers(self) -> None:
        cfg = self.config
        self.every(cfg.summary_interval_ms, self._summary_tick, jitter=1.0)
        self.every(cfg.pre_prepare_interval_ms, self._propose_tick, jitter=0.5)
        self.every(cfg.ping_interval_ms, self._ping_tick, jitter=5.0)
        self.every(cfg.tat_check_interval_ms, self._tat_tick, jitter=1.0)
        self.every(cfg.recon_interval_ms, self._recon_tick, jitter=2.0)
        self.set_timer(1.0, self._ping_tick)  # fast RTT warm-up

    def on_recover(self) -> None:
        """Proactive recovery: volatile state is gone; rebuild from peers."""
        self._recoveries += 1
        self.app.restore(self._genesis)
        self._init_protocol_state()
        self.awaiting_state = True
        self.obs.event(self.name, EV_RECOVERY_START, epoch=self._recoveries)
        if self._started:
            self._start_timers()
            self._request_state()

    # ------------------------------------------------------------------
    # Runtime facade: signing, sending, dispatch
    #
    # These stay methods on the node — attack installers wrap them and
    # tests call them, and the stages route every send through them so
    # such wrappers always intercept.
    # ------------------------------------------------------------------
    def sign_message(self, payload: Any) -> SignedMessage:
        return self.runtime.sign(payload)

    def verify_signed(self, signed: SignedMessage) -> bool:
        return self.runtime.verify(signed)

    @staticmethod
    def _size_of(payload: Any) -> int:
        return _BASE_SIZES.get(type(payload).__name__, 150)

    def _broadcast(self, payload: Any, include_self: bool = True) -> SignedMessage:
        return self.runtime.broadcast(payload, include_self=include_self)

    def _send_to(self, peer: str, payload: Any) -> None:
        self.runtime.send_to(peer, payload)

    def on_message(self, src: str, payload: Any) -> None:
        self.runtime.receive(payload)

    def _dispatch(self, signed: SignedMessage) -> None:
        self.dispatcher.dispatch(signed)

    # ------------------------------------------------------------------
    # Shared state helpers
    # ------------------------------------------------------------------
    def note_higher_view(self, sender: str, view: int) -> None:
        """Bookkeep evidence that a peer moved to a higher view.

        Pure bookkeeping (no sends, no trace events): the recovery stage
        reads this to pull a laggard that missed a NewView back into the
        adopted view via state transfer.
        """
        if view > self._higher_view_seen.get(sender, -1):
            self._higher_view_seen[sender] = view

    def _origin_state(self, origin: str) -> OriginState:
        state = self.origins.get(origin)
        if state is None:
            state = OriginState(origin)
            self.origins[origin] = state
        return state

    @property
    def stable_seq(self) -> int:
        return self.checkpoints.stable_seq

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of_view(self.view) == self.name

    # ------------------------------------------------------------------
    # Stage entry points
    #
    # Timer callbacks and cross-stage calls go through these thin
    # delegators so they resolve the *current* stage objects (recovery
    # replaces the stages) and remain monkeypatchable per node.
    # ------------------------------------------------------------------
    def submit(self, update: ClientUpdate) -> bool:
        """Inject a client update at this replica (its origin)."""
        return self.preorder.submit(update)

    def _flush_batch(self) -> None:
        self.preorder.flush_batch()

    def _summary_tick(self) -> None:
        self.preorder.summary_tick()

    def _propose_tick(self) -> None:
        self.ordering.propose_tick()

    def _try_execute(self) -> None:
        self.execution.try_execute()

    def _ping_tick(self) -> None:
        self.leadership.ping_tick()

    def _tat_tick(self) -> None:
        self.leadership.tat_tick()

    def _recon_tick(self) -> None:
        self.recovery.recon_tick()

    def _request_state(self) -> None:
        self.recovery.request_state()

    def _state_retry_tick(self) -> None:
        self.recovery.state_retry_tick()

    def _view_change_timeout(self, expected_view: int) -> None:
        self.leadership.view_change_timeout(expected_view)

    def _vc_retransmit_tick(self) -> None:
        self.leadership.vc_retransmit_tick()
