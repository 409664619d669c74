"""Tie-order perturbation: a verdict must not hang on same-instant order.

``simnet.engine`` orders events by ``(time, priority, seq)``, so every pin
certifies one order of the events that share an instant. Here each pinned
chaos seed — the periodic-recovery pins, the Prime leader-fault pins and
the PBFT leader-fault pins — runs again under a dozen simulators that
order same-instant events by a seeded draw instead
(``campaign_runners.tie_shuffled``). Fingerprints move and are not
compared; the verdict — ``ok`` and the set of ``(monitor, kind)`` pairs
the output oracle and the monitors flagged — must not, and the oracle must
have judged executions in every run. The whole matrix is one ``repro.parallel``
campaign, fanned out by ``CHAOS_WORKERS`` like the chaos smoke sweeps.
The PBFT harness jitters every link and timer, so it has no same-instant
events to reorder: its runs pin that instead.
"""

from repro.chaos import ChaosOptions, Oracle, PbftChaosOptions
from repro.parallel import CampaignTask, resolve_workers, run_campaign

from test_chaos_leader import PINNED_PBFT_LEADER, PINNED_PRIME_LEADER, leader_options
from test_control_loop import PINNED_CHAOS, SMOKE

PERMUTATIONS = range(12)

#: (family, seed, options) of every pinned chaos run
CASES = (
    [("periodic", seed, ChaosOptions(seed=seed, **SMOKE)) for seed in sorted(PINNED_CHAOS)]
    + [("prime-leader", seed, leader_options(seed)) for seed in sorted(PINNED_PRIME_LEADER)]
    + [("pbft-leader", seed, PbftChaosOptions(seed=seed)) for seed in sorted(PINNED_PBFT_LEADER)]
)


def _verdict(record):
    return record.ok, {(v["monitor"], v["kind"]) for v in record.violations}


def _oracle_verdict(record):
    return {v["kind"] for v in record.violations if v["monitor"] == Oracle.name}


def test_no_verdict_hangs_on_the_order_of_same_instant_events():
    tasks = [
        CampaignTask(
            f"{family}/seed-{seed}/order-{permutation}",
            "campaign_runners:tie_shuffled_chaos",
            {"options": options, "permutation": permutation},
        )
        for family, seed, options in CASES
        for permutation in (None, *PERMUTATIONS)
    ]
    report = run_campaign(tasks, workers=resolve_workers(default=1))
    assert not report.failures, [f.error for f in report.failures]
    records = {record.task_id: record for record in report.records}
    assert len(records) == len(CASES) * (1 + len(PERMUTATIONS)) == 78
    assert all(record.stats["executions_checked"] > 0 for record in records.values())
    for family, seed, _ in CASES:
        engine_order = records[f"{family}/seed-{seed}/order-None"]
        fingerprints = set()
        for permutation in PERMUTATIONS:
            shuffled = records[f"{family}/seed-{seed}/order-{permutation}"]
            assert _oracle_verdict(shuffled) == _oracle_verdict(engine_order), shuffled.task_id
            assert _verdict(shuffled) == _verdict(engine_order), shuffled.task_id
            fingerprints.add(shuffled.fingerprint)
        if family == "pbft-leader":
            # every link and timer of the PBFT harness is jittered: no two
            # events share an instant, so every order is the engine's own
            assert fingerprints == {engine_order.fingerprint}, seed
        else:
            # non-vacuous: the shuffled simulators ran other orders
            assert fingerprints - {engine_order.fingerprint}, (family, seed)
