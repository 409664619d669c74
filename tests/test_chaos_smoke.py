"""Tier-1 chaos smoke suite.

Runs a batch of seeded randomized fault scenarios against full Spire
deployments with every invariant monitor armed, and exercises the
dump → replay → shrink loop end to end, including a deliberately weakened
proxy gate that the monitors must catch. Scenarios here use a compact
deployment (f=1, k=1, 6 replicas on the 4-site WAN, 2 substations) and
short windows to stay inside the tier-1 wall-clock budget; the full-scale
200-scenario sweep lives in ``benchmarks/bench_chaos_sweep.py`` behind the
``chaos`` marker.
"""

import time

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosOptions,
    ReplayMismatch,
    dump_scenario,
    replay_scenario,
    scenario_dict,
    shrink_schedule,
)
from repro.crypto.provider import ThresholdSignature
from repro.parallel import resolve_workers, run_campaign, seed_tasks

#: compact-but-complete scenario shape for the smoke budget
SMOKE = dict(
    warmup_ms=800.0,
    chaos_ms=3000.0,
    settle_ms=2000.0,
    poll_interval_ms=250.0,
    proactive_recovery=(5000.0, 400.0),
)
SMOKE_SEEDS = range(25)
WALL_BUDGET_S = 240.0


def smoke_options(seed: int) -> ChaosOptions:
    return ChaosOptions(seed=seed, **SMOKE)


def test_chaos_smoke_sweep():
    """>= 25 seeded scenarios, zero invariant violations, bounded wall time.

    Runs through the shared campaign runner (serial by default; set
    ``CHAOS_WORKERS`` to fan the sweep across cores, as CI does)."""
    started = time.time()
    report = run_campaign(
        seed_tasks("chaos", ChaosOptions(**SMOKE), SMOKE_SEEDS),
        workers=resolve_workers(default=1),
    )
    wall = time.time() - started
    failures = [
        (result.task_id, [str(v) for v in result.violations])
        for result in report.records
        if not result.ok
    ]
    assert not failures, f"invariant violations in seeds: {failures}"
    # the sweep must be non-vacuous: monitors saw real traffic and the
    # generator exercised a healthy slice of the fault taxonomy
    results = report.results
    assert sum(r.stats["executions_checked"] for r in results) > 1000
    assert sum(
        r.stats["hmi_verified"] + r.stats["proxy_verified"] for r in results
    ) > 100
    fault_kinds_seen = set()
    for result in results:
        fault_kinds_seen.update(result.stats["fault_kinds"])
    assert len(fault_kinds_seen) >= 6
    assert wall < WALL_BUDGET_S, f"smoke sweep too slow: {wall:.0f}s"


def test_the_liveness_judge_flags_the_stall_after_the_faults_clear():
    """The judge flags nothing here since Prime repairs its head slot. The
    stall it flagged before: the last delivery was at 2,194 ms, every
    scheduled fault had ended by 4,965 ms and all six replicas were up
    from 6,000 ms, yet every replica sat at ``last_executed`` 23 in view 1
    until the leader was rejuvenated at 10,000 ms. Slot 24 held 2 of the 4
    Commits it needed: ``drop`` faults ate the others, and nothing sent a
    vote again. Each replica now re-sends its Prepare and Commit for a
    stalled head."""
    result = ChaosEngine(ChaosOptions(seed=9, **{**SMOKE, "settle_ms": 12_000.0})).run()
    assert max(action.end_ms for action in result.schedule) < 4_965.0
    assert result.violations == []
    assert result.stats["liveness_margin_ms"] > 0


def test_chaos_run_is_deterministic():
    """Same (seed, schedule) => identical trace fingerprint and verdicts."""
    first = ChaosEngine(smoke_options(3)).run()
    second = ChaosEngine(smoke_options(3)).run()
    assert first.schedule == second.schedule
    assert first.fingerprint == second.fingerprint
    assert [v.to_dict() for v in first.violations] == \
        [v.to_dict() for v in second.violations]
    # wall_runtime_s is a host fact and excluded from the deterministic view
    assert first.deterministic_stats == second.deterministic_stats


def test_scenario_dump_replays_byte_for_byte(tmp_path):
    result = ChaosEngine(smoke_options(5)).run()
    path = dump_scenario(result, tmp_path / "scenario.json")
    replayed = replay_scenario(path)  # raises ReplayMismatch on divergence
    assert replayed.fingerprint == result.fingerprint
    assert [v.to_dict() for v in replayed.violations] == \
        [v.to_dict() for v in result.violations]
    # re-dumping the replay reproduces the scenario file byte-for-byte
    again = dump_scenario(replayed, tmp_path / "scenario-replayed.json")
    assert path.read_text() == again.read_text()


def test_replay_detects_divergence():
    result = ChaosEngine(smoke_options(2)).run()
    stale = scenario_dict(result)
    stale["fingerprint"] = "0" * 32
    with pytest.raises(ReplayMismatch):
        replay_scenario(stale)


def weaken_proxy_gate(deployment):
    """Test-only mutant (the one ``benchmarks/e2e/mutants.py`` applies): the
    proxy's collector passes its f+1 gate after a single share and vouches
    with a forged combined signature — the bug class the proxy-gate monitor
    exists to catch (the records are genuine, so the oracle cannot)."""
    collector = deployment.proxy.collector
    accepted = set()

    def gullible_add(share):
        record = share.record
        if record.key() in accepted:
            return None
        accepted.add(record.key())
        return record, ThresholdSignature(collector.group, "forged")

    collector.add = gullible_add


def test_weakened_gate_caught_replayed_and_shrunk(tmp_path):
    result = ChaosEngine(smoke_options(8), mutator=weaken_proxy_gate).run()
    kinds = {v.kind for v in result.violations}
    assert "unverified-delivery" in kinds

    # the violation dumps to a scenario file that replays exactly...
    path = dump_scenario(result, tmp_path / "weak-gate.json")
    replayed = replay_scenario(path, mutator=weaken_proxy_gate)
    assert replayed.fingerprint == result.fingerprint
    assert {v.kind for v in replayed.violations} == kinds

    # ...and shrinks to the minimal reproducer: the violation does not
    # depend on any scheduled fault, so ddmin collapses the schedule
    shrunk = shrink_schedule(
        result.options, result.schedule, mutator=weaken_proxy_gate, max_runs=8,
    )
    assert shrunk.reproduced
    assert len(shrunk.schedule) == 0
