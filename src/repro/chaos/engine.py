"""The chaos engine: seeded fault schedules + invariant monitors, one run.

One :class:`ChaosEngine` run is a pure function of ``(options, schedule,
mutator)``: it builds a full Spire deployment, applies the fault schedule
against the virtual clock, attaches every invariant monitor, runs, and
returns a :class:`ChaosResult` carrying the monitor verdicts and a trace
*fingerprint* — a digest over the structured trace, network counters and
final replica state. Two runs of the same ``(seed, schedule)`` produce
byte-identical fingerprints; that property is what makes dumped scenarios
replayable and shrinkable.

What each fault kind does lives in the fault table
(:mod:`repro.chaos.faults`); each action draws from its own named RNG
stream (``chaos/<kind>/<index>``), so removing one action during shrinking
never perturbs the randomness of the others.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from ..control import ControlOptions
from ..core.deployment import SpireDeployment, SpireOptions
from ..crypto.encoding import digest
from ..obs import (
    COMP_CHAOS,
    COMP_RECOVERY_SCHEDULER,
    EV_FAULT_SCHEDULED,
    EV_NEW_VIEW,
    EV_REJUVENATE_DONE,
    EV_REJUVENATE_START,
)
from ..simnet import FailureInjector
from .faults import LEADER_PROFILE_KINDS, OVERLAY_FAULT_KINDS, ChaosSystem, inject
from .generator import ChaosProfile, generate_schedule
from .monitors import (
    BoundedDelayMonitor,
    ProxyGateMonitor,
    QuorumAvailabilityMonitor,
    QuorumFloorMonitor,
    RerouteBoundMonitor,
    SafetyMonitor,
    ViewRecoveryMonitor,
    Violation,
)
from .schedule import FaultSchedule

__all__ = ["ChaosOptions", "ChaosResult", "ChaosEngine"]

#: deployment mutator applied before monitors attach (test-only hooks that
#: deliberately weaken a component to prove the monitors catch it)
Mutator = Callable[[SpireDeployment], None]


@dataclass(frozen=True)
class ChaosOptions:
    """Everything that, together with a schedule, defines one chaos run."""

    seed: int = 1
    f: int = 1
    k: int = 1
    num_substations: int = 2
    warmup_ms: float = 1000.0
    chaos_ms: float = 6000.0
    settle_ms: float = 3000.0
    poll_interval_ms: float = 150.0
    resubmit_timeout_ms: float = 400.0
    overlay_mode: str = "shortest"
    #: enable the Spines self-healing control plane for this run
    self_healing: bool = False
    #: per-source forward queue bound passed through to the overlay daemons
    overlay_queue_limit: int = 0
    prime_preset: str = "wan"
    #: (period_ms, duration_ms); None disables proactive recovery
    proactive_recovery: Optional[Tuple[float, float]] = (4000.0, 500.0)
    #: run proactive recovery under the ``repro.control`` feedback
    #: controller (default-off: the periodic schedule, bit-identical)
    feedback_control: bool = False
    #: controller knob overrides, serialized with the scenario; None with
    #: ``feedback_control=True`` uses :class:`~repro.control.ControlOptions`
    #: defaults
    control_overrides: Optional[Dict[str, Any]] = None
    #: draw ``leader_kill``/``leader_partition`` faults into generated
    #: schedules (default-off: existing seeds keep their schedules)
    leader_faults: bool = False
    min_actions: int = 3
    max_actions: int = 8

    # --- monitor bounds: properties of the claim checked, not of a run ---
    #: with self-healing on, each overlay fault must see a verified
    #: delivery within this bound of its start (detection + reroute +
    #: protocol settling); checked by :class:`RerouteBoundMonitor`
    reroute_bound_ms: ClassVar[float] = 1500.0
    #: bounded-delay watchdog: max gap between verified deliveries in a
    #: quiet interval (generous: covers resubmit backoff + one view change)
    max_delivery_gap_ms: ClassVar[float] = 2000.0
    #: how long after a fault window ends before the system must be
    #: re-bounded (budget: one view-change timeout plus settling)
    quiet_grace_ms: ClassVar[float] = 2500.0
    #: every leader-affecting fault must see a quorum adopt a higher view
    #: *and* a verified delivery within this bound of the fault firing
    #: (TAT suspicion + view-change round + settling); checked by
    #: :class:`ViewRecoveryMonitor`
    view_recovery_bound_ms: ClassVar[float] = 3000.0

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.chaos_ms + self.settle_ms

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if data["proactive_recovery"] is not None:
            data["proactive_recovery"] = list(data["proactive_recovery"])
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ChaosOptions":
        names = {f.name for f in dataclasses.fields(ChaosOptions)}
        kwargs = {key: value for key, value in data.items() if key in names}
        if kwargs.get("proactive_recovery") is not None:
            kwargs["proactive_recovery"] = tuple(kwargs["proactive_recovery"])
        return ChaosOptions(**kwargs)


#: stat keys that measure the *host* (wall clock), not the simulation —
#: excluded from deterministic dumps, fingerprints and replay comparison,
#: mirroring the ``ScenarioReport`` convention from PR 5
HOST_STAT_KEYS = frozenset({"wall_runtime_s"})


@dataclass
class ChaosResult:
    """Outcome of one chaos run, of either harness."""

    #: ``ChaosOptions``, or ``PbftChaosOptions`` from ``run_pbft_chaos``
    options: Any
    schedule: FaultSchedule
    violations: List[Violation]
    fingerprint: str
    stats: Dict[str, Any]
    injector_log: List[str] = field(default_factory=list)
    #: deterministic-only ``Observability.snapshot()`` image of the run's
    #: deployment, carried so campaign aggregation can merge per-scenario
    #: observability without holding live simulator handles
    obs_snapshot: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def deterministic_stats(self) -> Dict[str, Any]:
        """The stats minus host-dependent entries (wall-clock timing)."""
        return {
            key: value for key, value in self.stats.items()
            if key not in HOST_STAT_KEYS
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "options": self.options.to_dict(),
            "schedule": self.schedule.to_list(),
            "violations": [v.to_dict() for v in self.violations],
            "fingerprint": self.fingerprint,
            "stats": self.deterministic_stats,
        }


class ChaosEngine:
    """Runs one ``(options, schedule)`` scenario with monitors attached."""

    def __init__(
        self,
        options: Optional[ChaosOptions] = None,
        schedule: Optional[FaultSchedule] = None,
        mutator: Optional[Mutator] = None,
    ) -> None:
        self.options = options or ChaosOptions()
        self.schedule = schedule
        self.mutator = mutator

    # ------------------------------------------------------------------
    def run(self) -> ChaosResult:
        opts = self.options
        control: Optional[ControlOptions] = None
        if opts.feedback_control:
            control = (
                ControlOptions.from_dict(opts.control_overrides)
                if opts.control_overrides is not None else ControlOptions()
            )
        deployment = SpireDeployment(SpireOptions(
            f=opts.f,
            k=opts.k,
            num_substations=opts.num_substations,
            poll_interval_ms=opts.poll_interval_ms,
            resubmit_timeout_ms=opts.resubmit_timeout_ms,
            overlay_mode=opts.overlay_mode,
            overlay_self_healing=opts.self_healing,
            overlay_queue_limit=opts.overlay_queue_limit,
            prime_preset=opts.prime_preset,
            seed=opts.seed,
            proactive_recovery=opts.proactive_recovery,
            control=control,
        ))
        replica_names = deployment.replica_names()
        endpoints = [deployment.proxy.name] + [h.name for h in deployment.hmis]

        schedule = self.schedule
        if schedule is None:
            kinds = ChaosProfile().kinds
            if opts.leader_faults:
                kinds = kinds + LEADER_PROFILE_KINDS
            profile = ChaosProfile(
                window_start_ms=opts.warmup_ms,
                window_end_ms=opts.warmup_ms + opts.chaos_ms,
                min_actions=opts.min_actions,
                max_actions=opts.max_actions,
                max_concurrent_crashes=max(1, opts.f),
                max_partition_minority=max(1, opts.f),
                kinds=kinds,
            )
            schedule = generate_schedule(
                opts.seed, replica_names, endpoints=endpoints, profile=profile,
            )
            self.schedule = schedule

        if self.mutator is not None:
            self.mutator(deployment)

        # --- monitors -------------------------------------------------
        safety = SafetyMonitor(deployment.simulator)
        safety.attach(deployment.replicas)
        gate = ProxyGateMonitor(deployment.simulator, deployment.crypto)
        gate.attach(deployment.proxy)
        for hmi in deployment.hmis:
            gate.attach(hmi)
        quorum = QuorumAvailabilityMonitor(
            deployment.simulator, deployment.replicas,
            min_live=deployment.prime_config.quorum,
        )
        quorum.attach(deployment.recovery_scheduler)
        floor = QuorumFloorMonitor(
            deployment.simulator, deployment.replicas, f=opts.f, k=opts.k,
        )
        floor.attach(deployment.recovery_scheduler)
        watchdog = BoundedDelayMonitor(
            deployment.simulator, max_gap_ms=opts.max_delivery_gap_ms,
        )
        reroute: Optional[RerouteBoundMonitor] = None
        if opts.self_healing:
            reroute = RerouteBoundMonitor(
                deployment.simulator, bound_ms=opts.reroute_bound_ms,
            )
        view_recovery = ViewRecoveryMonitor(
            deployment.simulator,
            bound_ms=opts.view_recovery_bound_ms,
            quorum=deployment.prime_config.quorum,
        )
        monitors = [safety, gate, quorum, floor, watchdog, view_recovery]
        if reroute is not None:
            monitors.append(reroute)
        for monitor in monitors:
            monitor.bind_obs(deployment.obs)

        # --- fault schedule -------------------------------------------
        for index, action in enumerate(schedule):
            # Deterministic per (seed, schedule): emitted at sim time 0 with
            # content drawn only from the schedule, so it is fingerprint-safe.
            deployment.obs.event(
                COMP_CHAOS, EV_FAULT_SCHEDULED,
                index=index, fault=action.kind, targets=",".join(action.targets),
                start_ms=action.start_ms, duration_ms=action.duration_ms,
            )
        injector = FailureInjector(deployment.simulator, deployment.network)
        inject(schedule, ChaosSystem(
            deployment.current_leader, deployment.current_view,
            deployment.dos_peers_of, view_recovery.note_fault,
        ), injector)

        # --- run ------------------------------------------------------
        deployment.start()
        deployment.run_for(opts.total_ms)

        # --- post-run checks ------------------------------------------
        delivery_times = [at for at, _ in deployment.status_recorder.samples]
        watchdog.evaluate(
            delivery_times,
            self._quiet_intervals(schedule, deployment),
        )
        if reroute is not None:
            reroute.evaluate(
                delivery_times,
                [action.start_ms for action in schedule
                 if action.kind in OVERLAY_FAULT_KINDS],
                opts.total_ms,
            )
        adoptions = [
            (event.time, event.component, int(event.details.get("view", -1)))
            for event in deployment.obs.log.events(None, EV_NEW_VIEW)
        ]
        view_recovery.evaluate(adoptions, delivery_times, opts.total_ms)

        violations: List[Violation] = []
        for monitor in monitors:
            violations.extend(monitor.violations())
        violations.sort(key=lambda v: (v.time_ms, v.monitor, v.kind))

        stats = self._stats(deployment, safety, gate, quorum, watchdog)
        stats["wall_runtime_s"] = round(deployment.wall_runtime_s, 4)
        stats["fault_kinds"] = sorted({action.kind for action in schedule})
        stats["floor_rejuvenations_checked"] = floor.rejuvenations_checked
        stats["view_faults_checked"] = view_recovery.faults_checked
        stats["view_recovery_latencies_ms"] = [
            round(latency, 3) for latency in view_recovery.recovery_latencies_ms
        ]
        if reroute is not None:
            stats["reroute_faults_checked"] = reroute.faults_checked
            if deployment.overlay.control_plane is not None:
                stats["overlay_reroutes"] = (
                    deployment.overlay.control_plane.reroutes
                )
        fingerprint = self._fingerprint(deployment, violations)
        return ChaosResult(
            options=opts,
            schedule=schedule,
            violations=violations,
            fingerprint=fingerprint,
            stats=stats,
            injector_log=injector.log,
            obs_snapshot=deployment.obs.snapshot(deterministic_only=True),
        )

    # ------------------------------------------------------------------
    # Bounded-delay quiet windows
    # ------------------------------------------------------------------
    def _quiet_intervals(
        self, schedule: FaultSchedule, deployment: SpireDeployment,
    ) -> List[Tuple[float, float]]:
        """Sub-intervals of the run with no fault active (plus grace).

        Scheduled fault windows *and* proactive-rejuvenation windows (read
        back from the trace, since deferral shifts them) suppress the
        watchdog; each suppression extends ``quiet_grace_ms`` past the
        window end to budget re-stabilization (at most one view change).
        """
        opts = self.options
        busy: List[Tuple[float, float]] = [
            (action.start_ms, action.end_ms + opts.quiet_grace_ms)
            for action in schedule
        ]
        log = deployment.obs.log
        starts = log.events(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_START)
        ends = log.events(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_DONE)
        for event in starts:
            done = min(
                (e.time for e in ends
                 if e.details.get("replica") == event.details.get("replica")
                 and e.time >= event.time),
                default=opts.total_ms,
            )
            busy.append((event.time, done + opts.quiet_grace_ms))
        busy.sort()
        quiet: List[Tuple[float, float]] = []
        cursor = opts.warmup_ms  # ignore cold-start before first deliveries
        for start, end in busy:
            if start > cursor:
                quiet.append((cursor, min(start, opts.total_ms)))
            cursor = max(cursor, end)
        if cursor < opts.total_ms:
            quiet.append((cursor, opts.total_ms))
        return [(s, e) for s, e in quiet if e > s]

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _stats(deployment, safety, gate, quorum, watchdog) -> Dict[str, Any]:
        net = deployment.network.stats
        return {
            "events_processed": deployment.simulator.events_processed,
            "messages_sent": net.sent,
            "messages_delivered": net.delivered,
            "dropped_loss": net.dropped_loss,
            "dropped_filter": net.dropped_filter,
            "replica_views": [r.view for r in deployment.replicas],
            "last_executed": [r.last_executed_seq for r in deployment.replicas],
            "hmi_verified": deployment.hmis[0].collector.verified,
            "proxy_verified": deployment.proxy.collector.verified,
            "executions_checked": safety.checked,
            "deliveries_checked": gate.deliveries_checked,
            "min_live_seen": quorum.min_live_seen,
            "deferred_rejuvenations": (
                deployment.recovery_scheduler.deferred_rounds
                if deployment.recovery_scheduler is not None else 0
            ),
            "quiet_checked_ms": round(watchdog.quiet_checked_ms, 3),
            "trace_events": deployment.obs.log.count(),
            "trace_dropped": deployment.obs.log.dropped,
        }

    @staticmethod
    def _fingerprint(deployment, violations: List[Violation]) -> str:
        trace_image = tuple(
            (event.time, event.component, event.kind,
             tuple(sorted(event.details.items())))
            for event in deployment.obs.log
        )
        net = deployment.network.stats
        state_image = tuple(
            (replica.name, replica.view, replica.last_executed_seq,
             replica.executed_counter)
            for replica in deployment.replicas
        )
        violation_image = tuple(
            (v.monitor, v.kind, v.time_ms, v.details) for v in violations
        )
        return digest((
            trace_image,
            (net.sent, net.delivered, net.dropped_loss, net.dropped_partition,
             net.dropped_filter, net.dropped_down, net.bytes_sent),
            state_image,
            deployment.hmis[0].collector.verified,
            deployment.proxy.collector.verified,
            violation_image,
        ))
