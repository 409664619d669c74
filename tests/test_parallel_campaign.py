"""The multiprocess campaign runner: spawn-safety, determinism, failures.

Pins the contract DESIGN §15 promises: the merged campaign report is a
pure function of the task list — byte-identical between serial and
parallel runs at any worker count, under shuffled completion order and
at any string-hash seed — and a misbehaving worker (crash, hang,
exception, unpicklable result) surfaces as a structured failure record
instead of hanging the pool.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosOptions,
    FaultAction,
    FaultSchedule,
    PbftChaosOptions,
    Violation,
    run_pbft_chaos,
)
from repro.control import ControlOptions
from repro.core.batching import BatchingOptions
from repro.core.deployment import SpireOptions
from repro.fleet import FleetSpec
from repro.parallel import (
    CampaignFailure,
    CampaignReport,
    CampaignResult,
    CampaignTask,
    resolve_runner,
    resolve_workers,
    run_campaign,
    seed_tasks,
)

from test_chaos_leader import PINNED_PRIME_LEADER
from test_simnet_network import PINNED_TRACES

#: compact chaos shape — a real deployment per task, small enough that a
#: multi-worker matrix stays inside the tier-1 budget
TINY = dict(warmup_ms=500.0, chaos_ms=1000.0, settle_ms=500.0)


def tiny_chaos_tasks(seeds):
    return seed_tasks("chaos", ChaosOptions(**TINY), seeds)


# ---------------------------------------------------------------------------
# spawn-safety: everything that crosses the process boundary pickles
# ---------------------------------------------------------------------------

PICKLE_CASES = [
    ChaosOptions(seed=7, **TINY),
    PbftChaosOptions(seed=9),
    SpireOptions(),
    BatchingOptions(),
    ControlOptions(),
    FleetSpec(total_devices=100, regions=2),
    FaultAction(kind="crash", start_ms=100.0, duration_ms=50.0,
                targets=("replica:1",)),
    FaultSchedule((FaultAction(kind="leader_kill", start_ms=10.0,
                               duration_ms=5.0),)),
    Violation("safety", "divergence", 123.0, (("index", 4),)),
    CampaignTask("t", "chaos", ChaosOptions(**TINY)),
    CampaignResult("t", "chaos", ok=True, fingerprint="fp",
                   stats={"a": 1, "wall_runtime_s": 0.5}),
    CampaignFailure("t", "chaos", kind="crash", error="boom", seed=3),
]


@pytest.mark.parametrize(
    "value", PICKLE_CASES, ids=lambda v: type(v).__name__
)
def test_pickle_round_trip(value):
    assert pickle.loads(pickle.dumps(value)) == value


def test_chaos_results_pickle_with_full_payload():
    """Live results (not just options) survive the queue round-trip."""
    result = ChaosEngine(ChaosOptions(seed=1, **TINY)).run()
    clone = pickle.loads(pickle.dumps(result))
    assert clone.fingerprint == result.fingerprint
    assert clone.deterministic_stats == result.deterministic_stats
    assert clone.obs_snapshot == result.obs_snapshot

    pbft = run_pbft_chaos(PbftChaosOptions(
        seed=2, warmup_ms=300.0, chaos_ms=800.0, settle_ms=400.0))
    clone = pickle.loads(pickle.dumps(pbft))
    assert clone.fingerprint == pbft.fingerprint
    assert clone.deterministic_stats == pbft.deterministic_stats


# ---------------------------------------------------------------------------
# task construction and validation
# ---------------------------------------------------------------------------

def test_seed_tasks_shape():
    tasks = seed_tasks("chaos", ChaosOptions(**TINY), seeds=(3, 1))
    assert [t.task_id for t in tasks] == ["chaos/seed-3", "chaos/seed-1"]
    assert tasks[0].options.seed == 3 and tasks[1].options.seed == 1


def test_run_campaign_validates_inputs():
    task = CampaignTask("a", "chaos", ChaosOptions(**TINY))
    with pytest.raises(ValueError, match="workers"):
        run_campaign([task], workers=0)
    with pytest.raises(ValueError, match="duplicate"):
        run_campaign([task, task], workers=1)
    with pytest.raises(ValueError, match="unknown runner"):
        run_campaign([CampaignTask("b", "nope", None)], workers=1)
    with pytest.raises(ValueError, match="unknown runner kind"):
        resolve_runner("nope")


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("CHAOS_WORKERS", raising=False)
    assert resolve_workers(default=3) == 3
    monkeypatch.setenv("CHAOS_WORKERS", "4")
    assert resolve_workers() == 4
    monkeypatch.setenv("CHAOS_WORKERS", "zero")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("CHAOS_WORKERS", "0")
    with pytest.raises(ValueError):
        resolve_workers()


def test_empty_campaign():
    report = run_campaign([], workers=4)
    assert report.records == [] and report.ok
    assert report.fingerprint  # still a stable digest of the empty image


# ---------------------------------------------------------------------------
# determinism: serial ≡ parallel, any worker count, shuffled completion
# ---------------------------------------------------------------------------

def test_merged_report_byte_identical_across_worker_counts():
    """The ISSUE acceptance pin: serial and parallel merged reports are
    byte-identical at workers ∈ {1, 2, 4}, and the campaign fingerprint
    is independent of worker count."""
    tasks = tiny_chaos_tasks(seeds=range(3))
    reports = {
        workers: run_campaign(tasks, workers=workers)
        for workers in (1, 2, 4)
    }
    images = {
        workers: json.dumps(
            report.to_dict(deterministic_only=True), sort_keys=True
        )
        for workers, report in reports.items()
    }
    assert images[1] == images[2] == images[4]
    fingerprints = {r.fingerprint for r in reports.values()}
    assert len(fingerprints) == 1
    report = reports[2]
    assert report.ok and len(report.results) == 3
    # per-scenario wall time is present but lives outside the image
    assert all(r.wall_s > 0 for r in report.results)
    assert all(
        "wall_runtime_s" not in r.deterministic_stats
        for r in report.results
    )
    assert "wall_s" not in images[2]


def test_shuffled_completion_order_does_not_leak_into_report():
    """Inverted per-task delays force out-of-order completion; the merged
    report still comes back in task order and matches the serial run."""
    tasks = [
        CampaignTask(
            task_id=f"echo-{value}",
            runner="campaign_runners:echo",
            options={"value": value, "delay_s": (5 - value) * 0.15},
        )
        for value in range(5)
    ]
    serial = run_campaign(tasks, workers=1)
    parallel = run_campaign(tasks, workers=4)
    assert [r.task_id for r in parallel.records] == \
        [t.task_id for t in tasks]
    assert json.dumps(serial.to_dict(deterministic_only=True),
                      sort_keys=True) == \
        json.dumps(parallel.to_dict(deterministic_only=True), sort_keys=True)
    assert serial.fingerprint == parallel.fingerprint
    # the host-dependent stat was stripped from the deterministic image
    # even though the delays differ per task
    for record in parallel.results:
        assert record.deterministic_stats == {"value": int(
            record.task_id.split("-")[1])}
    # obs snapshots merged in task order with per-task attribution
    merged = parallel.merged_obs()
    assert merged["metrics"]["echo.calls"] == 5
    assert merged["events"]["recorded"] == 10
    assert list(merged["events"]["by_task"]) == [t.task_id for t in tasks]


_AT_ANOTHER_SEED = """
import json, sys
sys.path[:0] = sys.argv[1:]
from repro.chaos import ChaosEngine
from repro.core import SpireOptions
from test_chaos_leader import leader_options
from test_simnet_network import PINNED_TRACES, _trace_fingerprint
chaos = ChaosEngine(leader_options(2)).run()
overrides, run_ms, _ = PINNED_TRACES["lan21"]
trace = _trace_fingerprint(SpireOptions.lan(**overrides), run_ms)
print(json.dumps([chaos.fingerprint, chaos.stats["events_processed"], trace]))
"""


def test_pins_hold_at_another_hash_seed():
    # the suite's pins hold whatever the interpreter's string-hash seed:
    # a child at another seed reproduces a chaos and a trace-image pin
    import repro

    src = pathlib.Path(repro.__file__).parents[1]
    tests = pathlib.Path(__file__).parent
    run = subprocess.run(
        [sys.executable, "-c", _AT_ANOTHER_SEED, str(src), str(tests)],
        env=dict(os.environ, PYTHONHASHSEED="12345"),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    fingerprint, events, trace = json.loads(run.stdout)
    assert (fingerprint, events) == PINNED_PRIME_LEADER[2]
    assert trace == PINNED_TRACES["lan21"][2]


def test_pbft_campaign_matches_direct_runs():
    options = PbftChaosOptions(warmup_ms=300.0, chaos_ms=800.0,
                               settle_ms=400.0)
    tasks = seed_tasks("pbft_chaos", options, seeds=range(3))
    report = run_campaign(tasks, workers=2)
    assert report.ok
    inline = run_campaign(tasks, workers=1)
    assert report.fingerprint == inline.fingerprint


# ---------------------------------------------------------------------------
# failure story: crashes, hangs, exceptions, unpicklable results
# ---------------------------------------------------------------------------

def test_worker_crash_surfaces_failure_and_pool_survives():
    tasks = [
        CampaignTask("crash", "campaign_runners:crash", {"value": 0}),
        CampaignTask("ok-1", "campaign_runners:echo", {"value": 1}),
        CampaignTask("ok-2", "campaign_runners:echo", {"value": 2}),
    ]
    report = run_campaign(tasks, workers=2)
    assert not report.ok
    failure, = report.failures
    assert failure.task_id == "crash"
    assert failure.kind == "crash"
    assert failure.attempts == 2  # re-dispatched once before reporting
    assert "exitcode 23" in failure.error
    assert len(report.results) == 2
    assert all(r.ok for r in report.results)


def _hang_times_out_beside_an_echo(workers):
    tasks = [
        CampaignTask("hang", "campaign_runners:hang", {"value": 0}),
        CampaignTask("ok", "campaign_runners:echo", {"value": 1}),
    ]
    report = run_campaign(tasks, workers=workers, task_timeout_s=1.5)
    failure, = report.failures
    assert failure.task_id == "hang"
    assert failure.kind == "timeout"
    assert failure.attempts == 2
    ok_result, = report.results
    assert ok_result.ok and ok_result.task_id == "ok"


def test_worker_timeout_redispatches_then_reports():
    _hang_times_out_beside_an_echo(workers=2)


def test_serial_campaign_keeps_its_task_deadline():
    # a deadline sends even one worker's campaign to a spawned process:
    # inline, the hang would hang the harness
    _hang_times_out_beside_an_echo(workers=1)


def test_runner_exception_is_structured_not_fatal():
    tasks = [
        CampaignTask("boom", "campaign_runners:boom", {"value": 0}),
        CampaignTask("ok", "campaign_runners:echo", {"value": 1}),
    ]
    # exceptions are caught in-worker: no re-dispatch, full traceback
    report = run_campaign(tasks, workers=1)
    failure, = report.failures
    assert failure.kind == "exception"
    assert failure.attempts == 1
    assert "ValueError" in failure.error
    assert "scripted runner failure" in failure.traceback
    assert report.results[0].task_id == "ok"


def test_unpicklable_result_becomes_structured_failure():
    tasks = [CampaignTask("bad", "campaign_runners:unpicklable", {"value": 0})]
    # two workers for one task: the pool spawns one, whose queue pickles
    report = run_campaign(tasks, workers=2)
    failure, = report.failures
    assert failure.kind == "exception"
    assert "not picklable" in failure.error


# ---------------------------------------------------------------------------
# report surface
# ---------------------------------------------------------------------------

def test_report_violation_counts_and_percentiles():
    records = [
        CampaignResult(
            "a", "chaos", ok=False,
            violations=[Violation("safety", "divergence", 1.0).to_dict()],
            wall_s=0.010,
        ),
        CampaignResult(
            "b", "chaos", ok=False,
            violations=[Violation("safety", "divergence", 2.0).to_dict(),
                        Violation("gate", "unverified-delivery", 3.0).to_dict()],
            wall_s=0.030,
        ),
    ]
    report = CampaignReport(records=records, workers=1)
    assert report.violation_counts == {
        "gate/unverified-delivery": 1,
        "safety/divergence": 2,
    }
    assert report.wall_percentiles_ms() == {"p50": 30.0, "p99": 30.0}
    assert not report.ok
