"""Leader-failure chaos smoke: view-change recovery pinned under faults.

Drives ``leader_kill`` / ``leader_partition`` faults — resolved against
the *current* leader at fire time — through both protocols:

* **Prime** inside the full Spire deployment (``ChaosEngine`` with
  ``leader_faults=True``).
* **PBFT** on the flat baseline cluster (``run_pbft_chaos``).

Every run is gated on the :class:`~repro.chaos.Liveness` judge (a quorum
must adopt a strictly higher view and ordering must resume within B per
view change, B computed from each protocol's timers), and the output
:class:`~repro.chaos.Oracle` (agreement, and exactly-once both over the
global order and per replica).
"""

import time

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosOptions,
    FaultAction,
    FaultSchedule,
    PbftChaosOptions,
    run_pbft_chaos,
)
from repro.parallel import resolve_workers, run_campaign, seed_tasks

#: compact scenario shape shared with test_chaos_smoke.py
SMOKE = dict(
    warmup_ms=800.0,
    chaos_ms=3000.0,
    settle_ms=2000.0,
    poll_interval_ms=250.0,
    proactive_recovery=(5000.0, 400.0),
    leader_faults=True,
)
SMOKE_SEEDS = range(25)
WALL_BUDGET_S = 240.0

#: the view-change path pinned: seed -> (fingerprint,
#: events processed) of ``leader_options(seed)``. Recorded at the parent
#: of PR 16; re-pinned once when both protocols took one head-of-line
#: repair path, again when a routed overlay took one datagram per
#: destination site, when it took one per multicast, when Prime's
#: reconciliation pushed only on evidence, when a new view stopped
#: re-agreeing slots a replica had ordered, and when a proxy submitted
#: each poll round in one message (CHANGES.md)
PINNED_PRIME_LEADER = {
    2: ("204afa88fee542efb2bd85483a996930b861f19efd42bc518601b0c7630eb7fb",
        24_331),
    7: ("33e7e8fbc7e312fe204e2bc1f8734b0de5afc469af75a130f80a572b48729685",
        21_111),
}
#: seed -> fingerprint of ``PbftChaosOptions(seed=seed)``; seed 5 has
#: three judged leader faults, and its partitioned view-2 leader cascades
#: alone past the cluster's view 3. Re-pinned at PR 23 (the harness took
#: the Spire engine's fingerprint formula) and with the shared repair path
PINNED_PBFT_LEADER = {
    1: "690d9cfe95b9e3d319d293064555ebce09a0ba594bff7e752a354142a6b45e14",
    5: "bc65e2654e691a53f0f5f5004179089b4f420b892da7415418f0cafc2f9b68ac",
}


def leader_options(seed: int) -> ChaosOptions:
    return ChaosOptions(seed=seed, **SMOKE)


def test_prime_leader_smoke_sweep():
    """25 seeded leader-fault scenarios against full Spire deployments:
    zero violations, and the sweep actually checks leader recoveries.

    Runs through the shared campaign runner (``CHAOS_WORKERS`` fans it
    across cores in CI)."""
    started = time.time()
    report = run_campaign(
        seed_tasks("chaos", leader_options(0), SMOKE_SEEDS, id_prefix="leader"),
        workers=resolve_workers(default=1),
    )
    wall = time.time() - started
    failures = [
        (record.task_id, [str(v) for v in record.violations])
        for record in report.records
        if not record.ok
    ]
    assert not failures, f"violations in seeds: {failures}"
    # non-vacuous: the monitor judged real leader faults of both kinds
    results = report.results
    assert sum(r.stats["view_faults_checked"] for r in results) >= 10
    leader_kinds_seen = set()
    for result in results:
        leader_kinds_seen.update(
            kind for kind in result.stats["fault_kinds"]
            if kind.startswith("leader_")
        )
    assert {"leader_kill", "leader_partition"} <= leader_kinds_seen
    assert wall < WALL_BUDGET_S, f"leader sweep too slow: {wall:.0f}s"


def test_prime_leader_chaos_deterministic():
    """Fire-time leader resolution stays a pure function of the seed."""
    first = ChaosEngine(leader_options(4)).run()
    second = ChaosEngine(leader_options(4)).run()
    assert first.schedule == second.schedule
    assert first.fingerprint == second.fingerprint
    assert first.deterministic_stats == second.deterministic_stats


def test_prime_mid_batch_leader_kill_exactly_once():
    """Pinned scenario: the leader dies mid-run with traffic in flight.
    In-flight records are re-proposed and executed exactly once (no
    duplicate-execution safety violations)."""
    schedule = FaultSchedule((
        FaultAction("leader_kill", 1500.0, 2000.0),
    ))
    result = ChaosEngine(leader_options(6), schedule=schedule).run()
    assert result.ok, [str(v) for v in result.violations]
    assert result.stats["view_faults_checked"] == 1
    assert result.stats["executions_checked"] > 50


def test_pbft_leader_smoke_sweep():
    """25 seeded leader-fault runs against the PBFT baseline: zero
    safety/view-recovery/exactly-once violations."""
    started = time.time()
    report = run_campaign(
        seed_tasks("pbft_chaos", PbftChaosOptions(), SMOKE_SEEDS),
        workers=resolve_workers(default=1),
    )
    wall = time.time() - started
    failures = [
        (record.task_id, [str(v) for v in record.violations])
        for record in report.records
        if not record.ok
    ]
    assert not failures, f"violations in seeds: {failures}"
    results = report.results
    assert sum(r.stats["view_faults_checked"] for r in results) >= 15
    assert sum(r.stats["new_view_adoptions"] for r in results) >= 25
    assert wall < WALL_BUDGET_S, f"pbft sweep too slow: {wall:.0f}s"


def test_pbft_leader_chaos_deterministic():
    first = run_pbft_chaos(PbftChaosOptions(seed=5))
    second = run_pbft_chaos(PbftChaosOptions(seed=5))
    assert first.schedule == second.schedule
    assert first.fingerprint == second.fingerprint
    assert first.deterministic_stats == second.deterministic_stats
    assert [v.to_dict() for v in first.violations] == \
        [v.to_dict() for v in second.violations]


@pytest.mark.parametrize("seed", sorted(PINNED_PRIME_LEADER))
def test_prime_leader_fault_fingerprints_unchanged(seed):
    fingerprint, events = PINNED_PRIME_LEADER[seed]
    result = ChaosEngine(leader_options(seed)).run()
    assert result.fingerprint == fingerprint
    assert result.stats["events_processed"] == events


@pytest.mark.parametrize("seed", sorted(PINNED_PBFT_LEADER))
def test_pbft_leader_fault_fingerprints_unchanged(seed):
    result = run_pbft_chaos(PbftChaosOptions(seed=seed))
    assert result.fingerprint == PINNED_PBFT_LEADER[seed]
