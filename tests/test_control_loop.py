"""Tests for the adaptive intrusion-tolerance control loop (repro.control).

Covers the estimator/policy state machines, signal collection, the
feedback strategy's targeted rejuvenation and quiet fallback, the quorum
floor, decision determinism at fixed seeds, and — critically — that the
default (controller off) recovery path stayed bit-identical with the
pre-refactor scheduler.
"""

import pytest

from repro.chaos import ChaosEngine, ChaosOptions, QuorumAvailabilityMonitor
from repro.control import (
    ControlOptions,
    ControlPolicy,
    FeedbackStrategy,
    HealthEstimator,
    SignalBatch,
    SignalHub,
)
from repro.core import PeriodicStrategy, SpireDeployment, SpireOptions
from repro.crypto.encoding import digest
from repro.obs import (
    COMP_RECOVERY_CONTROLLER,
    EV_CONTROL_DECISION,
    EV_CONTROL_FALLBACK,
    EV_OVERLAY_LINK_DOWN,
    EV_SUSPECT,
    EventLog,
)
from repro.simnet import FailureInjector, LinkSpec, Network, Process, Simulator

#: the controller's calibration: constants, read through the class
OPTS = ControlOptions


# ----------------------------------------------------------------------
# HealthEstimator
# ----------------------------------------------------------------------

def test_estimator_bump_saturates_at_one():
    estimator = HealthEstimator(["r0"])
    for _ in range(50):
        estimator.observe(SignalBatch(crashed=("r0",)), dt_ms=0.0)
    assert estimator.suspicion("r0") <= 1.0
    assert estimator.suspicion("r0") > 0.99


def test_estimator_decays_with_half_life():
    estimator = HealthEstimator(["r0"])
    estimator.scores["r0"] = 0.8
    estimator.observe(SignalBatch(), dt_ms=OPTS.decay_half_life_ms)
    assert estimator.suspicion("r0") == pytest.approx(0.4)


def test_estimator_reset_and_unknown_names():
    estimator = HealthEstimator(["r0"])
    estimator.observe(
        SignalBatch(suspect_votes={"r0": 2, "ghost": 5}), dt_ms=250.0
    )
    assert estimator.suspicion("r0") > 0.0
    assert estimator.suspicion("ghost") == 0.0  # ignored, not created
    estimator.reset("r0")
    assert estimator.suspicion("r0") == 0.0


def test_estimator_violations_spread_across_fleet():
    estimator = HealthEstimator(["r0", "r1"])
    estimator.observe(SignalBatch(violations=2), dt_ms=250.0)
    assert estimator.suspicion("r0") == estimator.suspicion("r1") > 0.0


# ----------------------------------------------------------------------
# ControlPolicy: hysteresis / cooldown transitions
# ----------------------------------------------------------------------

def _always(_name):
    return True


def test_policy_fires_above_trigger_and_cools_down():
    policy = ControlPolicy(["r0", "r1"])
    scores = {"r0": 0.9, "r1": 0.0}
    pick = policy.decide(1000.0, scores, _always)
    assert pick == "r0"
    policy.note_fired("r0", 1000.0)
    assert not policy.is_armed("r0")
    # still hot inside the cooldown: no re-fire
    assert policy.decide(1000.0 + OPTS.cooldown_ms / 2, scores, _always) is None


def test_policy_rearms_after_clear_and_cooldown():
    policy = ControlPolicy(["r0"])
    policy.note_fired("r0", 0.0)
    after = OPTS.cooldown_ms + 1.0
    # hovering inside the hysteresis band: stays un-armed
    mid_band = (OPTS.clear_threshold + OPTS.trigger_threshold) / 2
    policy.decide(after, {"r0": mid_band}, _always)
    assert not policy.is_armed("r0")
    # cleared: re-arms
    policy.decide(after + 1.0, {"r0": 0.0}, _always)
    assert policy.is_armed("r0")


def test_policy_rearms_on_persistent_suspicion_after_cooldown():
    # a replica whose score sits above the trigger after its cooldown has
    # fresh evidence (the estimator was reset at rejuvenation-done), so
    # it must be treatable again — not locked out by the clear threshold
    policy = ControlPolicy(["r0"])
    policy.note_fired("r0", 0.0)
    scores = {"r0": 0.95}
    assert policy.decide(OPTS.cooldown_ms / 2, scores, _always) is None
    pick = policy.decide(
        OPTS.cooldown_ms + OPTS.decision_gap_ms + 1.0, scores, _always
    )
    assert pick == "r0"


def test_policy_decision_gap_spaces_picks():
    policy = ControlPolicy(["r0", "r1"])
    scores = {"r0": 0.9, "r1": 0.8}
    assert policy.decide(1000.0, scores, _always) == "r0"
    policy.note_fired("r0", 1000.0)
    # r1 is also above trigger but the global gap holds it back
    gap = OPTS.decision_gap_ms
    assert policy.decide(1000.0 + gap / 2, scores, _always) is None
    assert policy.decide(1000.0 + gap + 1.0, scores, _always) == "r1"


def test_policy_skips_ineligible_candidates():
    policy = ControlPolicy(["r0", "r1"])
    scores = {"r0": 0.9, "r1": 0.7}
    assert policy.decide(0.0, scores, lambda n: n != "r0") == "r1"


def test_policy_deterministic_tie_break():
    policy = ControlPolicy(["r1", "r0"])
    assert policy.decide(0.0, {"r0": 0.8, "r1": 0.8}, _always) == "r0"


def test_policy_fallback_clock():
    policy = ControlPolicy(["r0"])
    assert policy.in_fallback(OPTS.fallback_after_ms + 1.0)
    # activity above baseline resets the clock
    policy.decide(5000.0, {"r0": OPTS.baseline_threshold + 0.01}, _always)
    assert not policy.in_fallback(5000.0 + OPTS.fallback_after_ms - 1.0)
    assert policy.in_fallback(5000.0 + OPTS.fallback_after_ms)


# ----------------------------------------------------------------------
# SignalHub
# ----------------------------------------------------------------------

class _FakeReplica:
    def __init__(self, name, up=True, seq=0):
        self.name = name
        self.is_up = up
        self.last_executed_seq = seq


def _hub(replicas, log=None, **kwargs):
    return SignalHub(
        log if log is not None else EventLog(),
        replicas,
        {r.name: "site1" for r in replicas},
        leader_of_view=lambda view: replicas[view % len(replicas)].name,
        **kwargs,
    )


def test_hub_maps_suspect_votes_to_view_leader():
    log = EventLog()
    replicas = [_FakeReplica(f"r{i}") for i in range(3)]
    hub = _hub(replicas, log)
    log.event("r1", EV_SUSPECT, view=2, reason="tat")
    log.event("r2", EV_SUSPECT, view=2, reason="tat")
    batch = hub.poll(set())
    assert batch.suspect_votes == {"r2": 2}
    # incremental: a second poll with nothing new is quiet
    assert hub.poll(set()).quiet


def test_hub_discounts_votes_against_recovering_replica():
    log = EventLog()
    replicas = [_FakeReplica(f"r{i}") for i in range(3)]
    hub = _hub(replicas, log)
    log.event("r1", EV_SUSPECT, view=2, reason="tat")
    batch = hub.poll({"r2"})
    assert not batch.suspect_votes
    assert "r2" not in batch.crashed  # its downtime is expected too


def test_hub_crash_and_lag_probes():
    replicas = [
        _FakeReplica("r0", up=False),
        _FakeReplica("r1", seq=100),
        _FakeReplica("r2", seq=100 - OPTS.lag_threshold_seqs),
        _FakeReplica("r3", seq=99),  # below threshold: not reported
    ]
    batch = _hub(replicas).poll(set())
    assert batch.crashed == ("r0",)
    assert batch.lagging == {"r2": OPTS.lag_threshold_seqs}


def test_hub_maps_overlay_trouble_to_site_replicas():
    log = EventLog()
    replicas = [_FakeReplica("r0"), _FakeReplica("r1")]
    hub = SignalHub(
        log, replicas, {"r0": "siteA", "r1": "siteB"},
        leader_of_view=lambda view: "r0",
    )
    log.event("overlay", EV_OVERLAY_LINK_DOWN, link="siteA<->siteC")
    batch = hub.poll(set())
    assert batch.overlay == {"r0": 1}


# ----------------------------------------------------------------------
# FeedbackStrategy (unit level, no full deployment)
# ----------------------------------------------------------------------

class _Dummy(Process):
    pass


def _fleet(n=6, seed=3):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkSpec())
    replicas = [_Dummy(f"r{i}", sim, net) for i in range(n)]
    return sim, net, replicas


def test_feedback_without_hub_rotates_periodically():
    sim, net, replicas = _fleet()
    strategy = FeedbackStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
    )
    strategy.start()
    # one rotation per sense tick: the period is shorter than a tick
    sim.run_for(6.5 * OPTS.sense_interval_ms)
    assert strategy.hub is None
    assert strategy.fallback_rotations == 6
    assert strategy.recoveries_completed == 6
    assert all(r.is_up for r in replicas)


def test_feedback_start_twice_does_not_leak_timer():
    sim, net, replicas = _fleet()
    strategy = FeedbackStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
    )
    strategy.start()
    strategy.start()
    sim.run_for(6.5 * OPTS.sense_interval_ms)
    assert strategy.recoveries_started == 6


def test_feedback_defers_at_quorum_floor():
    sim, net, replicas = _fleet(n=4)
    for replica in replicas[:1]:
        replica.crash()
    # 3 live, floor 3: any rejuvenation would drop below — defer forever
    strategy = FeedbackStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
        min_live=3,
    )
    strategy.start()
    sim.run_for(500)
    assert strategy.recoveries_started == 0
    assert strategy.deferred_rounds > 0


# ----------------------------------------------------------------------
# QuorumAvailabilityMonitor (that it flags an unguarded strategy is the
# quorum-availability row of test_chaos_violation_kinds.py)
# ----------------------------------------------------------------------

def test_quorum_floor_monitor_quiet_when_guard_active():
    sim, net, replicas = _fleet(n=6)
    replicas[0].crash()
    replicas[1].crash()
    strategy = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
        min_live=4,  # the deferral guard respects the floor
    )
    monitor = QuorumAvailabilityMonitor(sim, replicas, f=1, k=1)
    monitor.attach(strategy)
    strategy.start()
    sim.run_for(550)
    assert not monitor.violations()
    assert strategy.deferred_rounds > 0


# ----------------------------------------------------------------------
# Full-deployment behaviour
# ----------------------------------------------------------------------

def _feedback_deployment(seed=7, **overrides):
    return SpireDeployment(SpireOptions(
        num_substations=2,
        poll_interval_ms=250.0,
        seed=seed,
        f=1, k=1,
        proactive_recovery=(4000.0, 500.0),
        feedback_control=True,
        **overrides,
    ))


def test_controller_targets_crashed_replica():
    deployment = _feedback_deployment()
    injector = FailureInjector(deployment.simulator, deployment.network)
    target = deployment.replicas[2].name
    injector.crash_window(target, 2000.0, 1500.0)
    deployment.start()
    deployment.run_for(8000.0)
    decisions = deployment.obs.log.events(
        COMP_RECOVERY_CONTROLLER, EV_CONTROL_DECISION
    )
    assert decisions, "controller never acted on the crash"
    assert decisions[0].details["replica"] == target
    assert decisions[0].details["score"] >= OPTS.trigger_threshold
    # the decision count is read into the registry for the report
    assert deployment.obs.registry.snapshot()["control.decisions"] >= 1


def test_controller_decisions_deterministic_at_fixed_seed():
    def run():
        deployment = _feedback_deployment(seed=11)
        injector = FailureInjector(deployment.simulator, deployment.network)
        injector.crash_window(deployment.replicas[1].name, 2000.0, 1500.0)
        deployment.start()
        deployment.run_for(9000.0)
        return [
            (e.time, tuple(sorted(e.details.items())))
            for e in deployment.obs.log.events(COMP_RECOVERY_CONTROLLER)
        ], deployment.simulator.events_processed

    first, second = run(), run()
    assert first == second
    assert first[0], "expected controller activity"


def test_observability_off_falls_back_to_rotation():
    deployment = _feedback_deployment(observability=False)
    assert deployment.recovery_scheduler.hub is None
    deployment.start()
    deployment.run_for(12_000.0)
    assert deployment.recovery_scheduler.recoveries_completed >= 1
    assert deployment.recovery_scheduler.fallback_rotations >= 1


def test_quiet_system_reverts_to_periodic_cadence():
    deployment = _feedback_deployment()
    deployment.start()
    deployment.run_for(18_000.0)
    fallbacks = deployment.obs.log.events(
        COMP_RECOVERY_CONTROLLER, EV_CONTROL_FALLBACK
    )
    decisions = deployment.obs.log.events(
        COMP_RECOVERY_CONTROLLER, EV_CONTROL_DECISION
    )
    # no evidence: no targeted decisions, but rotation coverage continues
    assert not decisions
    assert len(fallbacks) >= 2


def test_control_requires_proactive_recovery():
    with pytest.raises(ValueError, match="proactive_recovery"):
        SpireOptions(
            proactive_recovery=None, feedback_control=True
        ).validate()


def test_recovery_gauges_land_in_registry():
    deployment = SpireDeployment(SpireOptions(
        num_substations=2, poll_interval_ms=250.0, seed=5, f=1, k=1,
        proactive_recovery=(3000.0, 400.0),
    ))
    deployment.start()
    deployment.run_for(8000.0)
    snapshot = deployment.obs.registry.snapshot()
    strategy = deployment.recovery_scheduler
    assert snapshot["recovery.recoveries_started"] == strategy.recoveries_started >= 1
    assert snapshot["recovery.recoveries_completed"] == strategy.recoveries_completed >= 1
    assert snapshot["recovery.deferred_rounds"] == strategy.deferred_rounds


# ----------------------------------------------------------------------
# Chaos integration
# ----------------------------------------------------------------------

def test_chaos_options_feedback_roundtrip():
    opts = ChaosOptions(feedback_control=True)
    restored = ChaosOptions.from_dict(opts.to_dict())
    assert restored == opts and restored.feedback_control


def test_chaos_run_with_feedback_control():
    result = ChaosEngine(ChaosOptions(
        seed=3, warmup_ms=800.0, chaos_ms=3000.0, settle_ms=2000.0,
        poll_interval_ms=250.0, proactive_recovery=(5000.0, 400.0),
        feedback_control=True,
    )).run()
    assert result.ok, result.violations
    assert result.stats["floor_rejuvenations_checked"] >= 0


# ----------------------------------------------------------------------
# Bit-identity of the default (controller off) path
# ----------------------------------------------------------------------

SMOKE = dict(
    warmup_ms=800.0, chaos_ms=3000.0, settle_ms=2000.0,
    poll_interval_ms=250.0, proactive_recovery=(5000.0, 400.0),
)

#: fingerprints of the periodic schedule (pinned in
#: PR 12, see CHANGES.md). The chaos scenarios route ``shortest``; the
#: fig6 deployment floods, so it alone was re-pinned in PR 15 when a
#: broadcast became one overlay datagram. All three were re-pinned when
#: both protocols took one head-of-line repair path; the two chaos ones
#: again when a routed overlay took one datagram per destination site,
#: and when it took one per multicast. All three again when Prime's
#: reconciliation pushed only on evidence, when a new view stopped
#: re-agreeing slots a replica had ordered, and when a proxy submitted
#: each poll round in one message.
PINNED_CHAOS = {
    3: ("f493e5601c51458fd874ccd8cd25f9b29d6696486d1ba49ec886f7dba588350d",
        25_216),
    11: ("cc144fa8ab5c8b52f8945330321ded093c608a09a4ee66d697c77c5854c7881b",
         26_997),
}

PINNED_FIG6 = "5cd5d3d30ca7fbdb89f41d157d87627330284b1743c23854d83a0fd79f620bd0"


@pytest.mark.parametrize("seed", sorted(PINNED_CHAOS))
def test_periodic_strategy_chaos_fingerprints_unchanged(seed):
    fingerprint, events = PINNED_CHAOS[seed]
    result = ChaosEngine(ChaosOptions(seed=seed, **SMOKE)).run()
    assert result.fingerprint == fingerprint
    assert result.stats["events_processed"] == events


def test_periodic_strategy_fig6_digest_unchanged():
    deployment = SpireDeployment(SpireOptions(
        num_substations=2, poll_interval_ms=250.0, seed=55, f=1, k=1,
        proactive_recovery=(4000.0, 500.0),
    ))
    deployment.start()
    deployment.run_for(12_000.0)
    trace_image = tuple(
        (e.time, e.component, e.kind, tuple(sorted(e.details.items())))
        for e in deployment.obs.log
    )
    scheduler = deployment.recovery_scheduler
    fingerprint = digest((
        trace_image,
        deployment.simulator.events_processed,
        tuple(r.last_executed_seq for r in deployment.replicas),
        scheduler.recoveries_completed,
        scheduler.recoveries_started,
        scheduler.deferred_rounds,
    ))
    assert deployment.simulator.events_processed == 106_520
    assert fingerprint == PINNED_FIG6
