"""PBFT-baseline chaos harness: leader faults against a flat cluster.

The Spire chaos engine exercises Prime inside the full deployment; this
harness points the same fault vocabulary (``leader_kill`` /
``leader_partition`` with fire-time leader resolution) and the same
invariant monitors (:class:`~repro.chaos.monitors.SafetyMonitor`,
:class:`~repro.chaos.monitors.ViewRecoveryMonitor`) at the PBFT baseline,
so leader-failure recovery is pinned in *both* protocols. The cluster is
flat — ``n`` replicas on one switched network with a periodic traffic
source submitting through whichever replica is up — matching the topology
the baseline's benchmarks use.

A run is a pure function of ``(options, schedule)``: the schedule is
drawn by the shared seeded generator restricted to leader-fault kinds,
and every fault resolves its target (the *current* leader) only at fire
time, so cascades land on whoever actually leads by then.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..crypto import FastCrypto
from ..crypto.encoding import digest
from ..obs import EV_PBFT_NEW_VIEW, Observability
from ..pbft import PbftConfig, PbftNode
from ..prime import LoggingApp, sign_client_update
from ..simnet import FailureInjector, LinkSpec, Network, Simulator
from .engine import ChaosResult
from .faults import LEADER_FAULT_KINDS, LEADER_PROFILE_KINDS, ChaosSystem, inject
from .generator import ChaosProfile, generate_schedule
from .monitors import SafetyMonitor, ViewRecoveryMonitor, Violation
from .schedule import FaultSchedule

__all__ = ["PbftChaosOptions", "run_pbft_chaos"]


@dataclass(frozen=True)
class PbftChaosOptions:
    """One PBFT leader-fault chaos run."""

    seed: int = 1
    n: int = 6
    f: int = 1
    warmup_ms: float = 1000.0
    chaos_ms: float = 5000.0
    settle_ms: float = 4000.0
    #: traffic source period; every request arms the request timeout on
    #: every replica, which is what drives the baseline's view changes
    request_interval_ms: float = 150.0
    request_timeout_ms: float = 800.0
    #: per leader fault: quorum must adopt a higher view and an update
    #: must execute within this budget (timeout detection + one VC round)
    view_recovery_bound_ms: float = 3000.0
    checkpoint_interval: int = 16
    min_actions: int = 1
    max_actions: int = 3

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.chaos_ms + self.settle_ms

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _majority_view(nodes: List[PbftNode]) -> int:
    views = [node.view for node in nodes if node.is_up]
    return max(set(views), key=views.count) if views else 0


def run_pbft_chaos(
    options: Optional[PbftChaosOptions] = None,
    schedule: Optional[FaultSchedule] = None,
) -> ChaosResult:
    opts = options or PbftChaosOptions()
    stray = sorted({a.kind for a in schedule or () if a.kind not in LEADER_FAULT_KINDS})
    if stray:
        raise ValueError(f"the PBFT harness runs leader faults only, not {stray}")
    wall_start = time.perf_counter()
    simulator = Simulator(seed=opts.seed)
    network = Network(simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1))
    crypto = FastCrypto(seed=f"pbft-chaos/{opts.seed}")
    obs = Observability(now_fn=lambda: simulator.now)
    names = tuple(f"replica:{i}" for i in range(opts.n))
    config = PbftConfig(
        names,
        num_faults=opts.f,
        request_timeout_ms=opts.request_timeout_ms,
        checkpoint_interval=opts.checkpoint_interval,
    )
    nodes = [
        PbftNode(name, simulator, network, config, crypto, LoggingApp(),
                 obs=obs)
        for name in names
    ]

    # --- monitors ----------------------------------------------------
    safety = SafetyMonitor(simulator)
    safety.attach(nodes)
    view_recovery = ViewRecoveryMonitor(
        simulator, bound_ms=opts.view_recovery_bound_ms, quorum=config.quorum,
    )

    # Exactly-once bookkeeping: per replica, no update may execute twice;
    # globally, record each update's first execution for the resume check.
    exec_counts: Dict[str, Dict[Tuple[str, int], int]] = {
        name: {} for name in names
    }
    first_executed: Dict[Tuple[str, int], float] = {}

    def listener_for(replica: str):
        def on_execute(update, order_index, result):
            key = (update.client, update.client_seq)
            exec_counts[replica][key] = exec_counts[replica].get(key, 0) + 1
            first_executed.setdefault(key, simulator.now)
        return on_execute

    for node in nodes:
        node.execution_listeners.append(listener_for(node.name))

    # --- fault schedule ----------------------------------------------
    if schedule is None:
        profile = ChaosProfile(
            window_start_ms=opts.warmup_ms,
            window_end_ms=opts.warmup_ms + opts.chaos_ms,
            min_actions=opts.min_actions,
            max_actions=opts.max_actions,
            max_concurrent_crashes=max(1, opts.f),
            kinds=LEADER_PROFILE_KINDS,
        )
        schedule = generate_schedule(opts.seed, names, profile=profile)

    # flat cluster: a replica's connectivity surface is every other replica
    injector = FailureInjector(simulator, network)
    inject(schedule, ChaosSystem(
        current_leader=lambda: config.leader_of_view(_majority_view(nodes)),
        current_view=lambda: _majority_view(nodes),
        access_peers=lambda name: [peer for peer in names if peer != name],
        note_leader_fault=view_recovery.note_fault,
    ), injector)

    # --- traffic source ----------------------------------------------
    state = {"seq": 0, "submitted": 0}

    def submit_tick() -> None:
        state["seq"] += 1
        update = sign_client_update(
            crypto, "client:chaos", state["seq"], ("op", state["seq"]),
        )
        # Rotate the ingress replica; skip ahead past crashed ones.
        for offset in range(opts.n):
            node = nodes[(state["seq"] + offset) % opts.n]
            if node.is_up:
                if node.submit(update):
                    state["submitted"] += 1
                return

    simulator.call_every(
        opts.request_interval_ms, submit_tick,
        jitter=5.0, rng_name="pbft-chaos/client",
    )

    # --- run ----------------------------------------------------------
    for node in nodes:
        node.start()
    simulator.run_for(opts.total_ms)

    # --- post-run checks ----------------------------------------------
    adoptions = [
        (event.time, event.component, int(event.details.get("view", -1)))
        for event in obs.log.events(None, EV_PBFT_NEW_VIEW)
    ]
    view_recovery.evaluate(
        adoptions, sorted(first_executed.values()), opts.total_ms,
    )

    violations: List[Violation] = []
    violations.extend(safety.violations())
    violations.extend(view_recovery.violations())
    for replica, counts in exec_counts.items():
        for key, count in counts.items():
            if count > 1:
                violations.append(Violation(
                    "exactly-once", "double-execution", opts.total_ms,
                    (("client", key[0]), ("client_seq", key[1]),
                     ("count", count), ("replica", replica)),
                ))
    violations.sort(key=lambda v: (v.time_ms, v.monitor, v.kind))

    stats = {
        "submitted": state["submitted"],
        "executed": {node.name: node.executed_counter for node in nodes},
        "views": [node.view for node in nodes],
        "stable_seqs": [node.stable_seq for node in nodes],
        "view_faults_checked": view_recovery.faults_checked,
        "view_recovery_latencies_ms": [
            round(latency, 3)
            for latency in view_recovery.recovery_latencies_ms
        ],
        "executions_checked": safety.checked,
        "new_view_adoptions": len(adoptions),
        "fault_kinds": sorted({action.kind for action in schedule}),
    }
    stats["wall_runtime_s"] = round(time.perf_counter() - wall_start, 4)
    result = ChaosResult(
        options=opts,
        schedule=schedule,
        violations=violations,
        fingerprint="",
        stats=stats,
        injector_log=injector.log,
        obs_snapshot=obs.snapshot(deterministic_only=True),
    )
    # the fingerprint covers the result's whole deterministic image
    image = result.to_dict()
    del image["fingerprint"]
    result.fingerprint = digest("pbft-chaos:" + json.dumps(image, sort_keys=True))
    return result
