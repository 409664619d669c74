"""Chaos sweep — randomized fault schedules vs. the judges and the monitors.

Runs a large matrix of seeded chaos scenarios (default 200) against the
paper's baseline configuration — f=1, k=1, 6 replicas across the 4-site
wide-area topology — judged by the output oracle (no divergent or
duplicate execution), the liveness judge (progress owed by the schedule
arrives within B, computed from Prime's timers) and the runtime monitors
(proxy gate: no unverified delivery; quorum availability: no rejuvenation
below 2f+k+1). Every violation is dumped as a replayable scenario file
under ``benchmarks/results/`` and shrunk to a minimal reproducer. Seeds
0–59 are clean, and CI runs them (``CHAOS_SWEEP_COUNT=60``). Seeds 9, 34,
38, 39 and 50 used to stall after the faults cleared: a slot short of its
Commits, which nothing sent again, until the shared agreement's
head-of-line repair re-sent them (the seed-9 shape is pinned in
``tests/test_chaos_smoke.py``).

The sweep executes through the shared :mod:`repro.parallel` campaign
runner: serial by default, fanned across cores with ``CHAOS_WORKERS=n``
(the merged report is identical at any worker count — see
``tests/test_parallel_campaign.py``).

This sweep is opt-in (``pytest benchmarks/bench_chaos_sweep.py --chaos``)
because it runs minutes of simulation; the tier-1 smoke version lives in
``tests/test_chaos_smoke.py``. Scale with ``CHAOS_SWEEP_COUNT``.
"""

import os
import time
from collections import Counter

import pytest

from repro.chaos import (
    LEADER_FAULT_KINDS,
    ChaosEngine,
    ChaosOptions,
    dump_scenario,
    shrink_schedule,
)
from repro.parallel import resolve_workers, run_campaign, seed_tasks

from common import RESULTS_DIR, reporter

SWEEP_COUNT = int(os.environ.get("CHAOS_SWEEP_COUNT", "200"))


@pytest.mark.chaos
def test_chaos_sweep():
    emit = reporter("chaos_sweep")
    workers = resolve_workers(default=1)
    started = time.time()
    report = run_campaign(
        seed_tasks("chaos", ChaosOptions(), range(SWEEP_COUNT)),
        workers=workers,
    )
    wall = time.time() - started

    kind_coverage = Counter()
    totals = Counter()
    failures = []
    margins = []
    for result in report.results:
        stats = result.stats
        totals["quiet_checked_ms"] += stats["quiet_checked_ms"]
        totals["leader_faults_judged"] += stats["view_faults_checked"]
        if stats["liveness_margin_ms"] is not None:
            margins.append(stats["liveness_margin_ms"])
    for record in report.records:
        if not record.ok:
            failures.append(record)
            continue
        stats = record.stats
        kind_coverage.update(stats["fault_kinds"])
        totals["executions_checked"] += stats["executions_checked"]
        totals["deliveries_verified"] += (
            stats["hmi_verified"] + stats["proxy_verified"]
        )
        totals["deferred_rejuvenations"] += stats["deferred_rejuvenations"]

    # Violating seeds get a replayable dump + minimal reproducer. The
    # campaign record carries violations but not the live result, so the
    # (expected-never) failure path re-runs the scenario in-process.
    failed_seeds = []
    for record in failures:
        seed = getattr(record, "seed", None)
        if seed is None:
            seed = int(record.task_id.rsplit("-", 1)[1])
        failed_seeds.append(seed)
        result = ChaosEngine(ChaosOptions(seed=seed)).run()
        if result.violations:
            path = dump_scenario(
                result, os.path.join(RESULTS_DIR, f"chaos_violation_{seed}.json")
            )
            shrunk = shrink_schedule(result.options, result.schedule)
            emit(f"seed {seed}: {len(result.violations)} violation(s), "
                 f"scenario dumped to {path}, "
                 f"shrunk to {len(shrunk.schedule)} action(s)")
        else:
            emit(f"seed {seed}: campaign failure {record.to_dict()}")

    percentiles = report.wall_percentiles_ms()
    emit(f"chaos sweep: {SWEEP_COUNT} scenarios, f=1 k=1 (6 replicas, "
         f"4-site WAN), {wall:.0f}s wall at {workers} worker(s) "
         f"({SWEEP_COUNT / wall:.2f} scenarios/s, per-scenario "
         f"p50 {percentiles['p50']:.0f} ms / p99 {percentiles['p99']:.0f} ms)")
    emit(f"merged campaign fingerprint: {report.fingerprint}")
    emit(f"fault kind coverage (scenarios touched): "
         f"{dict(sorted(kind_coverage.items()))}")
    emit(f"executions cross-checked: {totals['executions_checked']}  "
         f"threshold-verified deliveries: {totals['deliveries_verified']}")
    leader_faults = sum(
        action.kind in LEADER_FAULT_KINDS
        for seed in range(SWEEP_COUNT)
        for action in ChaosEngine(ChaosOptions(seed=seed)).draw_schedule()
    )
    emit(f"rejuvenations deferred for quorum: {totals['deferred_rejuvenations']}")
    emit(f"liveness judge: {totals['quiet_checked_ms'] / 1000.0:.1f}s of owed time judged, "
         f"{totals['leader_faults_judged']} of {leader_faults} leader faults judged, "
         f"smallest margin {min(margins, default=float('nan')):.1f} ms")
    emit(f"invariant violations: {len(failures)} (expected 0)")
    assert not failures, f"violations in seeds {failed_seeds}"
