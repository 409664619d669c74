"""The chaos runner: seeded fault schedules, the judges and the monitors, one run.

One chaos run is a pure function of ``(system under chaos, options,
schedule)``: :func:`run_chaos` attaches the output oracle and the monitors
to a :class:`~repro.chaos.faults.ChaosSystem`, applies the fault schedule
against the virtual clock, runs, has the oracle and the liveness judge
read the outputs, and returns a :class:`ChaosResult` carrying the verdicts
and a trace *fingerprint* — a digest over the structured trace, network
counters and final replica state. Two runs of the same ``(seed, schedule)``
produce byte-identical fingerprints; that property is what makes dumped
scenarios replayable and shrinkable.
:class:`ChaosEngine` builds the system for Prime inside a full Spire
deployment, :func:`repro.chaos.pbft.run_pbft_chaos` for the flat PBFT
baseline cluster; neither does anything else.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

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
from ..simnet.graph import dijkstra
from ..spines.monitor import LinkMonitorConfig
from .faults import (
    DEFAULT_PROFILE_KINDS,
    FAULTS,
    LEADER_PROFILE_KINDS,
    ChaosSystem,
    inject,
)
from .generator import ChaosProfile, generate_schedule
from .liveness import Liveness
from .monitors import ProxyGateMonitor, QuorumAvailabilityMonitor, Verdict, Violation
from .oracle import Oracle
from .schedule import FaultSchedule

__all__ = ["ChaosOptions", "ChaosResult", "ChaosEngine", "run_chaos", "schedule_profile"]

#: deployment mutator applied before monitors attach (test-only hooks that
#: deliberately weaken a component to prove the judges and monitors catch it)
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
    prime_preset: str = "wan"
    #: (period_ms, duration_ms); None disables proactive recovery
    proactive_recovery: Optional[Tuple[float, float]] = (4000.0, 500.0)
    #: run proactive recovery under the ``repro.control`` feedback controller
    feedback_control: bool = False
    #: draw ``leader_kill``/``leader_partition`` into generated schedules
    leader_faults: bool = False

    #: how many actions a generated schedule holds
    min_actions: ClassVar[int] = 3
    max_actions: ClassVar[int] = 8

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.chaos_ms + self.settle_ms

    @property
    def profile_kinds(self) -> Tuple[str, ...]:
        """The kinds a generated schedule draws from, repeated by weight."""
        return DEFAULT_PROFILE_KINDS + (LEADER_PROFILE_KINDS if self.leader_faults else ())

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
#: excluded from deterministic dumps, fingerprints and replay comparison
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
    #: deterministic-only ``Observability.snapshot()`` image of the run, so
    #: campaign aggregation merges it without live simulator handles
    obs_snapshot: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def deterministic_stats(self) -> Dict[str, Any]:
        """The stats minus host-dependent entries (wall-clock timing)."""
        return {k: v for k, v in self.stats.items() if k not in HOST_STAT_KEYS}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "options": self.options.to_dict(),
            "schedule": self.schedule.to_list(),
            "violations": [v.to_dict() for v in self.violations],
            "fingerprint": self.fingerprint,
            "stats": self.deterministic_stats,
        }


def schedule_profile(options: Any) -> ChaosProfile:
    """The profile either harness draws its schedule from when given none:
    faults start inside the chaos window, crashes and partitions are
    budgeted by ``f``, and the options say which kinds are in play."""
    return ChaosProfile(
        window_start_ms=options.warmup_ms,
        window_end_ms=options.warmup_ms + options.chaos_ms,
        min_actions=options.min_actions,
        max_actions=options.max_actions,
        max_concurrent_crashes=max(1, options.f),
        max_partition_minority=max(1, options.f),
        kinds=options.profile_kinds,
    )


def run_chaos(system: ChaosSystem, options: Any, schedule: FaultSchedule) -> ChaosResult:
    """The one chaos run: attach the oracle and the monitors, inject
    ``schedule``, run ``system`` for ``options.total_ms``, judge, fingerprint.

    A monitor is built where the system has what it watches (endpoints: the
    proxy gate; a recovery strategy: the quorum floor); the oracle and the
    liveness judge, against ``system.liveness_bound_ms``, read every run. A
    perturbed simulator attaches here and nowhere else. ``options`` is a
    ``ChaosOptions`` or a ``PbftChaosOptions``.
    """
    simulator, log = system.simulator, system.obs.log
    oracle = Oracle(lambda: simulator.now)
    oracle.watch(system.replicas, system.endpoints)
    liveness = Liveness(system.liveness_bound_ms, system.quorum, system.tolerated,
                        [replica.name for replica in system.replicas])
    verdicts = [Verdict(simulator, oracle), Verdict(simulator, liveness)]
    gate = quorum = None
    if system.endpoints:
        gate = ProxyGateMonitor(simulator, system.crypto)
        for endpoint in system.endpoints:
            gate.attach(endpoint)
    if system.recovery is not None:
        quorum = QuorumAvailabilityMonitor(simulator, system.replicas, f=options.f, k=options.k)
        quorum.attach(system.recovery)
    monitors = [m for m in (*verdicts, gate, quorum) if m]
    # obs reads each count; monitors emit no trace *events*, since the trace
    # feeds the fingerprint and must not change with monitors attached
    for monitor in monitors:
        system.obs.read(f"chaos.violations.{monitor.name}",
                        lambda monitor=monitor: len(monitor._violations))

    injector = FailureInjector(simulator, system.network)
    leader_faults: List[Tuple[float, str, int]] = []
    judged = dataclasses.replace(system, note_leader_fault=lambda target, view: (
        leader_faults.append((simulator.now, target, view))))
    inject(schedule, judged, injector)
    system.start()
    wall_start = time.perf_counter()
    simulator.run_for(options.total_ms)
    wall_runtime_s = time.perf_counter() - wall_start

    # --- post-run: the judges read the outputs ---
    oracle.check_states(system.replicas)
    adoptions = [(event.time, event.component, int(event.details.get("view", -1)))
                 for event in log.events(None, system.new_view_event)]
    struck = {at: (target,) for at, target, _ in leader_faults}
    # rejuvenations are read back from the trace, since deferral shifts them
    ends = log.events(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_DONE)
    rejuvenations = [(event.details["replica"], event.time, min(
        (e.time for e in ends if e.details == event.details and e.time >= event.time),
        default=options.total_ms))
        for event in log.events(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_START)]
    liveness.judge(
        options.warmup_ms, options.total_ms,
        blocking=[
            (a.start_ms, a.end_ms, struck.get(a.start_ms, ()) if FAULTS[a.kind].leader
             else a.targets[:FAULTS[a.kind].targets_used])
            for a in schedule if FAULTS[a.kind].blocks
        ],
        rejuvenations=rejuvenations, adoptions=adoptions, leader_faults=leader_faults,
        deliveries=system.delivery_times() if system.delivery_times else oracle.ordered_at,
        overlay_faults=[a.start_ms for a in schedule
                        if FAULTS[a.kind].overlay and system.overlay_control is not None],
        detection_ms=LinkMonitorConfig.detection_bound_ms,
    )
    for verdict in verdicts:
        verdict.judge()
    stats = system.stats()
    stats["executions_checked"] = oracle.executions_checked
    if gate is not None:
        stats["deliveries_checked"] = gate.deliveries_checked
    if quorum is not None:
        stats["min_live_seen"] = quorum.min_live_seen
        stats["floor_rejuvenations_checked"] = quorum.rejuvenations_checked
    stats["quiet_checked_ms"] = round(liveness.quiet_checked_ms, 3)
    if system.overlay_control is not None:
        stats["reroute_faults_checked"] = liveness.reroute_faults_checked
    stats["view_faults_checked"] = liveness.view_faults_checked
    stats["view_recovery_latencies_ms"] = [round(t, 3) for t in liveness.recovery_latencies_ms]
    stats["liveness_margin_ms"] = (
        None if liveness.margin_ms is None else round(liveness.margin_ms, 3))
    stats["new_view_adoptions"] = len(adoptions)
    stats["fault_kinds"] = sorted({action.kind for action in schedule})
    stats["wall_runtime_s"] = round(wall_runtime_s, 4)

    violations = [v for monitor in monitors for v in monitor.violations()]
    violations.sort(key=lambda v: (v.time_ms, v.monitor, v.kind))
    return ChaosResult(
        options=options,
        schedule=schedule,
        violations=violations,
        fingerprint=_fingerprint(system, violations),
        stats=stats,
        injector_log=injector.log,
        obs_snapshot=system.obs.snapshot(),
    )


def _fingerprint(system: ChaosSystem, violations: List[Violation]) -> str:
    """Digest of the trace, the network counters, the replicas' final
    state, what each endpoint verified and the violations."""
    trace_image = tuple(
        (event.time, event.component, event.kind, tuple(sorted(event.details.items())))
        for event in system.obs.log
    )
    net = system.network.stats
    state_image = tuple(
        (replica.name, replica.view, replica.last_executed_seq, replica.executed_counter)
        for replica in system.replicas
    )
    return digest((
        trace_image,
        (net.sent, net.delivered, net.dropped_loss, net.dropped_partition,
         net.dropped_filter, net.dropped_down, net.bytes_sent),
        state_image,
        *(endpoint.collector.verified for endpoint in system.endpoints),
        tuple((v.monitor, v.kind, v.time_ms, v.details) for v in violations),
    ))


def _liveness_bound_ms(deployment: SpireDeployment, poll_interval_ms: float) -> float:
    """B for Prime: the suspect-leader bound over the achievable overlay RTT
    (the ``f+k+1``-th smallest RTT to the others, of the replica for which
    it is largest) plus its check period, one view-change timeout and one
    poll interval, in which the next update is submitted."""
    config, sites = deployment.prime_config, deployment.replica_sites
    needed = config.num_faults + config.num_recovering + 1
    graph = deployment.topology.graph
    one_way = {site: dijkstra(graph, site, "latency_ms")[0] for site in graph.nodes}
    achievable = max(sorted(
        2 * (one_way[site][sites[peer]] + 2 * deployment.overlay.last_mile_latency_ms)
        for peer in sites if peer != name)[needed - 1] for name, site in sites.items())
    suspect = max(config.tat_floor_ms, config.tat_latency_factor * achievable
                  + config.pre_prepare_interval_ms + config.tat_slack_ms)
    return (suspect + config.tat_check_interval_ms + config.view_change_timeout_ms
            + poll_interval_ms)


class ChaosEngine:
    """Runs one ``(options, schedule)`` scenario against Prime inside a
    full Spire deployment."""

    def __init__(
        self,
        options: Optional[ChaosOptions] = None,
        schedule: Optional[FaultSchedule] = None,
        mutator: Optional[Mutator] = None,
    ) -> None:
        self.options = options or ChaosOptions()
        self.schedule = schedule
        self.mutator = mutator

    def _deployment(self) -> SpireDeployment:
        opts = self.options
        return SpireDeployment(SpireOptions(
            seed=opts.seed, f=opts.f, k=opts.k, num_substations=opts.num_substations,
            poll_interval_ms=opts.poll_interval_ms,
            resubmit_timeout_ms=opts.resubmit_timeout_ms,
            overlay_mode=opts.overlay_mode, overlay_self_healing=opts.self_healing,
            prime_preset=opts.prime_preset, proactive_recovery=opts.proactive_recovery,
            feedback_control=opts.feedback_control,
        ))

    def draw_schedule(self, deployment: Optional[SpireDeployment] = None) -> FaultSchedule:
        """The schedule the run applies: the one given, or the one drawn from
        the options against the deployment's replicas and endpoints."""
        if self.schedule is None:
            deployment = deployment or self._deployment()
            self.schedule = generate_schedule(
                self.options.seed, deployment.replica_names(),
                endpoints=[deployment.proxy.name, deployment.hmis[0].name],
                profile=schedule_profile(self.options),
            )
        return self.schedule

    def run(self) -> ChaosResult:
        opts = self.options
        deployment = self._deployment()
        proxy, hmi = deployment.proxy, deployment.hmis[0]
        self.draw_schedule(deployment)
        if self.mutator is not None:
            self.mutator(deployment)
        for index, action in enumerate(self.schedule):
            # Deterministic per (seed, schedule): emitted at sim time 0 with
            # content drawn only from the schedule, so it is fingerprint-safe.
            deployment.obs.event(
                COMP_CHAOS, EV_FAULT_SCHEDULED,
                index=index, fault=action.kind, targets=",".join(action.targets),
                start_ms=action.start_ms, duration_ms=action.duration_ms,
            )
        net, log = deployment.network.stats, deployment.obs.log
        recovery = deployment.recovery_scheduler
        control_plane = deployment.overlay.control_plane

        def stats() -> Dict[str, Any]:
            counted = {
                "events_processed": deployment.simulator.events_processed,
                "messages_sent": net.sent,
                "messages_delivered": net.delivered,
                "dropped_loss": net.dropped_loss,
                "dropped_filter": net.dropped_filter,
                "replica_views": [r.view for r in deployment.replicas],
                "last_executed": [r.last_executed_seq for r in deployment.replicas],
                "hmi_verified": hmi.collector.verified,
                "proxy_verified": proxy.collector.verified,
                "deferred_rejuvenations": recovery.deferred_rounds if recovery else 0,
                "trace_events": log.count(),
                "trace_dropped": log.dropped,
            }
            if control_plane is not None:
                counted["overlay_reroutes"] = control_plane.reroutes
            return counted

        return run_chaos(ChaosSystem(
            simulator=deployment.simulator, network=deployment.network,
            obs=deployment.obs, replicas=deployment.replicas,
            quorum=deployment.prime_config.quorum,
            tolerated=opts.f + opts.k,
            new_view_event=EV_NEW_VIEW,
            start=deployment.start,
            stats=stats,
            current_leader=deployment.current_leader, current_view=deployment.current_view,
            access_peers=deployment.dos_peers_of,
            liveness_bound_ms=_liveness_bound_ms(deployment, opts.poll_interval_ms),
            # in the order the fingerprint has always read them
            endpoints=(hmi, proxy),
            crypto=deployment.crypto,
            delivery_times=lambda: [at for at, _ in deployment.status_recorder.samples],
            recovery=recovery,
            overlay_control=control_plane,
        ), opts, self.schedule)
