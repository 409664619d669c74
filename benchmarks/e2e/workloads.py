"""The five Spire workloads and the one measured round each of them runs.

A *round* is what one child interpreter does: build the scenario from
``(workload, seed)``, warm it up, run the timed horizon, and read every
number back through public accessors (``deployment.simulator``,
``network.stats``, ``overlay.total_stats()``, proxies/HMIs, the latency
recorders, ``ChaosResult``).  Nothing here reaches into ``src/`` for
control flow and nothing under ``src/`` knows it is being benchmarked:
the program sees only the options generated below.

Load is open-loop on the *simulated* clock (periodic RTU polls, Poisson
operator commands), so the generator is never late and a stall shows up
as latency or as an undelivered update, never as less offered load.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import HostSpeed
from repro.chaos import ChaosEngine, ChaosOptions, FaultAction, FaultSchedule
from repro.core import BatchingOptions, SpireDeployment, SpireOptions
from repro.crypto import digest
from repro.fleet import FleetSpec, TrafficSpec
from repro.spines import lan_topology

#: candidate tail percentiles, highest first; a run reports the highest
#: one that still has at least ``MIN_BEYOND`` samples above it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10
#: RTU poll period of the small-n workloads (≈10.75 Hz).  Deliberately
#: not a multiple of Prime's 5/10/20 ms aggregation ticks: at exactly
#: 100 ms every poll of a run meets the leader's proposal timer in the
#: same phase, and the median latency of a seed is set by that one phase
#: (38 ms or 52 ms on the WAN) instead of by the system.
POLL_INTERVAL_MS = 93.0


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario; sizes are simulated milliseconds.

    After ``warmup_ms`` the *window* opens: the updates submitted in it
    are the ones attempted, timed and required to be delivered.  It is a
    whole number of poll periods long, so every seed offers the same
    load.  The timed horizon runs ``drain_ms`` past the window's end to
    let its last updates arrive.
    """

    name: str
    warmup_ms: float
    window_ms: float
    drain_ms: float
    #: the tail percentile the full-size window supports (≥10 samples
    #: beyond it); a full-size run whose sample cannot support it fails
    tail_percentile: float
    quick_window_ms: float
    run: Callable[["Workload", int, bool, Any, Any], Dict[str, Any]]

    def sizes(self, quick: bool) -> Tuple[float, float, float]:
        """(warm-up, window, timed horizon) for a full or a quick round."""
        window_ms = self.quick_window_ms if quick else self.window_ms
        return self.warmup_ms, window_ms, window_ms + self.drain_ms


# ----------------------------------------------------------------------
# Options, built so they survive the ROADMAP-3 deletions
# ----------------------------------------------------------------------
def batching_options(max_batch_size: int, max_batch_delay_ms: float):
    """Delivery batching on; ``enabled`` is passed only while it exists
    (ROADMAP 3(c) makes batching the one delivery path and drops it)."""
    kwargs: Dict[str, Any] = dict(
        max_batch_size=max_batch_size, max_batch_delay_ms=max_batch_delay_ms
    )
    if any(field.name == "enabled" for field in dataclasses.fields(BatchingOptions)):
        kwargs["enabled"] = True
    return BatchingOptions(**kwargs)


def chaos_options(seed: int, warmup_ms: float, chaos_ms: float,
                  settle_ms: float) -> ChaosOptions:
    """Leader-fault chaos options; ``leader_faults`` implies view-change
    hardening today and hardening is unconditional after ROADMAP 3(d), so
    ``view_change_hardening`` is never named here."""
    return ChaosOptions(
        seed=seed,
        num_substations=5,
        poll_interval_ms=POLL_INTERVAL_MS,
        warmup_ms=warmup_ms,
        chaos_ms=chaos_ms,
        settle_ms=settle_ms,
        proactive_recovery=(2500.0, 400.0),
        leader_faults=True,
    )


def _lan_options(seed: int, **overrides) -> SpireOptions:
    return SpireOptions.lan(
        seed=seed, num_substations=10, poll_interval_ms=POLL_INTERVAL_MS,
        placement={"lan0": 6}, **overrides,
    )


# ----------------------------------------------------------------------
# Reading a deployment from outside
# ----------------------------------------------------------------------
def _recorder(deployment, attribute: str, metric: str):
    """The latency recorder, by its deployment attribute while that view
    exists and by its ``obs`` name otherwise."""
    recorder = getattr(deployment, attribute, None)
    return recorder if recorder is not None else deployment.obs.latency(metric)


def _event_log(deployment):
    log = getattr(deployment, "trace", None)
    return log if log is not None else deployment.obs.log


def _proxies(deployment) -> List[Any]:
    return list(deployment.region_proxies) or [deployment.proxy]


class Probe:
    """Counter snapshots and latency samples of one deployment.

    ``begin()`` fixes the baseline every count is a difference against;
    ``open_window()`` starts the interval whose updates are judged
    (attempted / failed / latency), ``close_window()`` ends the part of
    it whose submissions must be delivered by the end of the run.
    """

    def __init__(self, deployment) -> None:
        self.d = deployment
        self.status = _recorder(deployment, "status_recorder", "proxy.status_latency")
        self.commands = _recorder(deployment, "command_recorder", "hmi.command_latency")
        self.base: Dict[str, float] = {}
        self.window_open_ms = 0.0
        self.window_close_ms = 0.0
        self._at_open: Dict[str, float] = {}
        self._at_close: Dict[str, float] = {}
        self._transit_seen = 0

    # -- snapshots -----------------------------------------------------
    def counters(self) -> Dict[str, float]:
        d = self.d
        net = d.network.stats
        overlay = d.overlay.total_stats()
        proxies = _proxies(d)
        log = _event_log(d)
        shards = d.fleet_topology.regions if d.fleet_topology is not None else ()
        scheduler = d.recovery_scheduler
        return {
            "simnet.events": d.simulator.events_processed,
            "simnet.msgs_sent": net.sent,
            "simnet.bytes_sent": net.bytes_sent,
            "spines.ingress": overlay.get("ingress", 0),
            "spines.forwarded": overlay.get("forwarded", 0),
            "spines.dropped_dup": overlay.get("dropped_dup", 0),
            "prime.view_changes": max(r.view for r in d.replicas),
            "prime.executed": sum(r.executed_counter for r in d.replicas),
            "core.deliveries_sent": sum(r.deliveries_sent for r in d.replicas),
            "core.rejuvenations_completed": (
                scheduler.recoveries_completed if scheduler is not None else 0
            ),
            "scada.polls": sum(p.readings_submitted for p in proxies),
            "scada.commands_executed": sum(p.commands_executed for p in proxies),
            "scada.devices_materialized": (
                sum(shard.materialized for shard in shards) if shards
                else len(d.rtus)
            ),
            "obs.events_logged": log.count(),
            "obs.events_dropped": log.dropped,
            "status_submitted": sum(p.submissions.submitted_total for p in proxies),
            "status_acked": sum(p.submissions.acked_total for p in proxies),
            "commands_submitted": sum(h.submissions.submitted_total for h in d.hmis),
            "hmi_status_seen": sum(h.status_updates_seen for h in d.hmis[:1]),
            "endpoint_verified": sum(
                e.collector.verified for e in proxies + list(d.hmis)
            ),
        }

    def begin(self) -> None:
        self.base = self.counters()
        if self.d.obs.enabled:
            transit = self.d.obs.histogram("spines.transit_latency_ms")
            self._transit_seen = len(transit.samples)

    def open_window(self) -> None:
        self.window_open_ms = self.d.simulator.now
        self._at_open = self.counters()

    def close_window(self) -> None:
        self.window_close_ms = self.d.simulator.now
        self._at_close = self.counters()

    # -- results -------------------------------------------------------
    def finish(self, workload: Workload, quick: bool,
               violations: List[str]) -> Dict[str, Any]:
        d = self.d
        end = self.counters()
        opened, closed = self.window_open_ms, self.window_close_ms

        def judged(recorder) -> List[float]:
            """Latencies of the updates submitted inside the window."""
            return sorted(
                lat for at, lat in recorder.samples if opened < at - lat <= closed
            )

        latencies = judged(self.status)
        command_latencies = judged(self.commands)
        attempted = int(
            self._at_close["status_submitted"] - self._at_open["status_submitted"]
            + self._at_close["commands_submitted"] - self._at_open["commands_submitted"]
        )
        failed = attempted - len(latencies) - len(command_latencies)

        tail = _tail_percentile(len(latencies))
        if not latencies:
            violations.append("no status update was verified in the window")
        elif not quick and tail != workload.tail_percentile:
            violations.append(
                f"{len(latencies)} samples support p{tail:g}, not the "
                f"declared p{workload.tail_percentile:g}"
            )
        times = [at for at, _ in self.status.samples if at > opened]
        gaps = [b - a for a, b in zip(times, times[1:])]

        # what the proxies had verified when the window closed must be on
        # the HMI by the end of the run, and the other way round
        if self._at_close["status_acked"] > end["hmi_status_seen"]:
            violations.append("HMI is missing updates the proxies verified")
        if self._at_close["hmi_status_seen"] > end["status_acked"]:
            violations.append("proxies are missing updates the HMI verified")
        _check_replica_agreement(d, violations)

        sim = {
            "update_latency_p50_ms": _percentile(latencies, 50.0),
            "update_latency_tail_ms": _percentile(latencies, tail),
            "tail_percentile": tail,
            "update_samples": len(latencies),
            "updates_per_sim_s": len(latencies) / ((closed - opened) / 1000.0),
            "service_gap_max_ms": max(gaps, default=0.0),
            "command_latency_p50_ms": _percentile(command_latencies, 50.0),
            "command_samples": len(command_latencies),
        }
        counts = {key: end[key] - self.base[key] for key in end}
        counts["replicas"] = len(d.replicas)
        counts["scada.devices_materialized"] = end["scada.devices_materialized"]
        counts["spines.transit_ms_p50"] = 0.0
        if d.obs.enabled:
            transit = d.obs.histogram("spines.transit_latency_ms").samples
            counts["spines.transit_ms_p50"] = _percentile(
                sorted(transit[self._transit_seen:]), 50.0
            )
        fingerprint = hashlib.sha256(json.dumps([
            end["simnet.events"], [repr(lat) for lat in latencies],
            [repr(lat) for lat in command_latencies],
            [r.view for r in d.replicas], [r.executed_counter for r in d.replicas],
        ]).encode()).hexdigest()
        return {
            "attempted": attempted,
            "failed": failed,
            "sim": sim,
            "counts": counts,
            "sim_fingerprint": fingerprint,
        }


def _tail_percentile(samples: int) -> float:
    for candidate in TAIL_CANDIDATES:
        if samples * (100.0 - candidate) / 100.0 >= MIN_BEYOND:
            return candidate
    return 50.0


def _percentile(ordered: List[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def _check_replica_agreement(deployment, violations: List[str]) -> None:
    """Replicas that executed the same number of updates hold the same
    application state (a replica mid-recovery is judged once it is back)."""
    states: Dict[int, str] = {}
    for replica in deployment.replicas:
        if not replica.is_up or replica.awaiting_state:
            continue
        image = digest(replica.app.snapshot())
        seen = states.setdefault(replica.executed_counter, image)
        if seen != image:
            violations.append(
                f"replicas disagree after {replica.executed_counter} updates"
            )
            return


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def _timed(profiler, speed: HostSpeed, horizon: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
    """Run ``horizon`` as the timed part of a round: bracketed by the
    calibration kernel, and under the profiler when this round is traced."""
    setup_done_at = time.time()
    speed.probe()
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    outcome = horizon()
    run_wall_s = time.perf_counter() - started - speed.inside_s
    if profiler is not None:
        profiler.disable()
    host = {
        "setup_done_at": setup_done_at,
        "run_wall_s": run_wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "live_objects": len(gc.get_objects()),
    }
    speed.probe()
    host["kernel_s"] = speed.samples
    return outcome, host


def _run_deployment(options_for: Callable[[int], Tuple[SpireOptions, Any]]):
    """Round body for a plain deployment: start, warm up, time the horizon."""

    def run(workload: Workload, seed: int, quick: bool, profiler, mutator):
        warmup_ms, window_ms, horizon_ms = workload.sizes(quick)
        options, topology = options_for(seed)
        deployment = SpireDeployment(options, topology=topology)
        deployment.start()
        deployment.run_for(warmup_ms)
        probe = Probe(deployment)
        probe.begin()
        probe.open_window()
        deployment.simulator.schedule_at(warmup_ms + window_ms, probe.close_window)
        speed = HostSpeed(inside=profiler is None)
        speed.spread_over(deployment.simulator, warmup_ms, horizon_ms)
        _, host = _timed(profiler, speed, lambda: deployment.run_for(horizon_ms))
        violations: List[str] = []
        result = probe.finish(workload, quick, violations)
        result["counts"]["chaos.monitor_checks"] = 0
        result["sim"]["view_recovery_max_ms"] = 0.0
        result["violations"] = violations
        result["host"] = host
        return result

    return run


def _run_chaos(workload: Workload, seed: int, quick: bool, profiler, mutator):
    """Round body for the chaos engine: ``ChaosEngine.run`` is one call,
    so it *is* the timed horizon (build and cold start included) and the
    judged window opens at ``warmup_ms`` through a scheduled callback."""
    warmup_ms, window_ms, horizon_ms = workload.sizes(quick)
    settle_ms = horizon_ms / 4.0
    chaos_ms = horizon_ms - settle_ms
    options = chaos_options(seed, warmup_ms, chaos_ms, settle_ms)
    # pinned faults: a kill and a partition of whoever leads when they
    # fire, each 1.5 s long with 1.5 s to recover before the next
    fault_ms = chaos_ms / 4.0
    schedule = FaultSchedule((
        FaultAction("leader_kill", warmup_ms + fault_ms / 3.0, fault_ms),
        FaultAction("leader_partition", warmup_ms + fault_ms * 7.0 / 3.0, fault_ms),
    ))
    probes: List[Probe] = []
    speed = HostSpeed(inside=profiler is None)

    def attach(deployment) -> None:
        if mutator is not None:
            mutator(deployment)
        probe = Probe(deployment)
        probe.begin()
        deployment.simulator.schedule_at(warmup_ms, probe.open_window)
        deployment.simulator.schedule_at(warmup_ms + window_ms, probe.close_window)
        speed.spread_over(deployment.simulator, 0.0, options.total_ms)
        probes.append(probe)

    engine = ChaosEngine(options, schedule=schedule, mutator=attach)
    outcome, host = _timed(profiler, speed, engine.run)
    violations = [f"{v.monitor}:{v.kind}@{v.time_ms:g}" for v in outcome.violations]
    stats = outcome.stats
    result = probes[0].finish(workload, quick, violations)
    recoveries = stats.get("view_recovery_latencies_ms", [])
    if not quick:
        if stats.get("view_faults_checked", 0) != len(schedule.actions):
            violations.append("a leader fault was not judged by the view monitor")
        if len(recoveries) != len(schedule.actions):
            violations.append("a leader fault did not end in a higher view")
        if result["counts"]["core.rejuvenations_completed"] < 1:
            violations.append("no proactive rejuvenation completed")
    result["counts"]["chaos.monitor_checks"] = (
        stats.get("executions_checked", 0) + stats.get("deliveries_checked", 0)
    )
    result["sim"]["view_recovery_max_ms"] = max(recoveries, default=0.0)
    result["violations"] = violations
    result["host"] = host
    return result


def _ticks(count: int) -> float:
    return count * POLL_INTERVAL_MS


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # table-2 shape: Prime stages, replication and core do the most
        # work, Spines the least (one daemon, nothing to forward)
        Workload(
            "lan_steady", warmup_ms=_ticks(10), window_ms=_ticks(150),
            drain_ms=_ticks(5), tail_percentile=99.0, quick_window_ms=_ticks(15),
            run=_run_deployment(lambda seed: (_lan_options(seed), lan_topology(1))),
        ),
        # fig-3 WAN shape on the flooding overlay: forwarding and one MAC
        # per hop per message dominate
        Workload(
            "wan_flood", warmup_ms=_ticks(5), window_ms=_ticks(20),
            drain_ms=_ticks(4), tail_percentile=95.0, quick_window_ms=_ticks(5),
            run=_run_deployment(lambda seed: (
                SpireOptions.wan(
                    seed=seed, num_substations=20, poll_interval_ms=POLL_INTERVAL_MS,
                ),
                None,
            )),
        ),
        # the fleet polls on a 100 ms base tick with 100/500/2000 ms
        # classes: the window is one full 500 ms cycle.  Batched delivery,
        # obs off, and the only workload with operator commands.
        Workload(
            "fleet_1k_batched", warmup_ms=200.0, window_ms=500.0,
            drain_ms=150.0, tail_percentile=99.0, quick_window_ms=100.0,
            run=_run_deployment(lambda seed: (
                SpireOptions.wan(
                    seed=seed,
                    fleet=FleetSpec.sized(1000, traffic=TrafficSpec("poisson", 40.0)),
                    observability=False,
                    batching=batching_options(64, 20.0),
                ),
                None,
            )),
        ),
        # lan_steady behind the RSA / Shoup-threshold provider
        Workload(
            "lan_realcrypto", warmup_ms=_ticks(5), window_ms=_ticks(22),
            drain_ms=_ticks(2), tail_percentile=95.0, quick_window_ms=_ticks(3),
            run=_run_deployment(lambda seed: (
                _lan_options(seed, crypto_kind="real"), lan_topology(1),
            )),
        ),
        # leader kill and leader partition under proactive recovery
        Workload(
            "chaos_leader_faults", warmup_ms=_ticks(10), window_ms=_ticks(75),
            drain_ms=_ticks(11), tail_percentile=95.0, quick_window_ms=_ticks(24),
            run=_run_chaos,
        ),
    )
}


def run_round(name: str, seed: int, quick: bool = False, profiler=None,
              mutator: Optional[Callable[[Any], None]] = None) -> Dict[str, Any]:
    """Run one round of workload ``name``; see the module docstring."""
    workload = WORKLOADS[name]
    return workload.run(workload, seed, quick, profiler, mutator)
