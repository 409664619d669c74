"""Whole-system integration scenarios combining multiple stressors."""

import pytest

from repro.attacks import make_share_corruptor, make_silent
from repro.core import SpireDeployment, SpireOptions
from repro.simnet import DosAttack, FailureInjector


def build(seed=5, **option_overrides):
    options = dict(num_substations=3, poll_interval_ms=250.0, seed=seed)
    options.update(option_overrides)
    dep = SpireDeployment(SpireOptions(**options))
    dep.start()
    return dep


def master_logs_consistent(deployment):
    views = [
        tuple(sorted(
            (s, r.poll_seq) for s, r in replica.app.latest_status.items()
        ))
        for replica in deployment.replicas if replica.is_up
    ]
    longest = max(views, key=lambda v: sum(seq for _, seq in v))
    for view in views:
        for (sub, seq), (sub2, seq2) in zip(view, longest):
            assert sub == sub2
            assert seq <= seq2
    return True


def test_service_continues_through_proactive_recovery():
    deployment = build(proactive_recovery=(4_000.0, 500.0))
    deployment.run_for(30_000)
    scheduler = deployment.recovery_scheduler
    assert scheduler.recoveries_completed >= 5
    # availability stayed perfect at one-second granularity (exclude the
    # empty terminal bucket at exactly t=end)
    availability = deployment.delivery_series.availability(
        2_000.0, deployment.simulator.now - 1_000.0
    )
    assert availability == 1.0
    assert deployment.obs.log.count(kind="recovery-done") >= 5
    assert master_logs_consistent(deployment)


def test_service_with_f_byzantine_plus_recovery():
    deployment = build(seed=6, proactive_recovery=(6_000.0, 400.0))
    deployment.run_for(2_000)
    make_share_corruptor(deployment.replicas[3])
    deployment.run_for(20_000)
    submissions = deployment.proxy.submissions
    assert submissions.acked_total > 50
    assert submissions.outstanding <= 3
    assert master_logs_consistent(deployment)


def test_leader_dos_with_silent_replica():
    """f=1 Byzantine (silent) + network DoS on the leader: the hardest
    combination the configuration is sized for."""
    deployment = build(seed=7)
    deployment.run_for(2_000)
    make_silent(deployment.replicas[5])
    injector = FailureInjector(deployment.simulator, deployment.network)
    leader = deployment.current_leader()
    injector.dos_node(
        DosAttack(leader, start_ms=deployment.simulator.now + 500.0,
                  duration_ms=6_000.0, extra_delay_ms=300.0, extra_loss=0.1),
        peers=deployment.dos_peers_of(leader),
    )
    deployment.run_for(15_000)
    # a view change replaced the DoS'd leader and service continued
    assert max(replica.view for replica in deployment.replicas) >= 1
    acked = deployment.proxy.submissions.acked_total
    assert acked > 30
    stats = deployment.status_recorder.stats(
        since=deployment.simulator.now - 5_000.0
    )
    assert stats.count > 5
    assert stats.mean < 150.0  # latency re-bounded after the view change


def test_commands_during_attack_still_gated():
    deployment = build(seed=11)
    deployment.run_for(2_000)
    make_share_corruptor(deployment.replicas[0])
    hmi = deployment.hmis[0]
    substation = sorted(deployment.grid.substations)[0]
    breaker_id = sorted(deployment.grid.substations[substation].breakers)[0]
    hmi.operate_breaker(substation, breaker_id, close=False)
    deployment.run_for(3_000)
    # the legitimate command executed despite the corrupt-share replica
    assert deployment.grid.breaker_closed(substation, breaker_id) is False


def test_site_failure_with_surviving_quorum():
    """Losing a data-center site (1 replica of 6) must not stop service."""
    deployment = build(seed=13)
    deployment.run_for(2_000)
    injector = FailureInjector(deployment.simulator, deployment.network)
    dc1_members = [
        name for name, site in deployment.replica_sites.items() if site == "dc1"
    ]
    everyone_else = [
        p for p in list(deployment.network.process_names)
        if p not in dc1_members
    ]
    injector.partition_window(
        dc1_members, everyone_else,
        start_ms=deployment.simulator.now + 100.0, duration_ms=8_000.0,
    )
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(10_000)
    assert deployment.proxy.submissions.acked_total > before + 20
    assert master_logs_consistent(deployment)


def test_control_center_failure_with_paper_placement():
    """Losing a whole control center (2 of 6 replicas) stalls the 2+2+1+1
    configuration only if more than k+f capacity is gone; with f=1,k=1 the
    quorum is 4 and exactly 4 replicas survive, so service continues."""
    deployment = build(seed=17)
    deployment.run_for(2_000)
    cc2_members = [
        name for name, site in deployment.replica_sites.items() if site == "cc2"
    ]
    for replica in deployment.replicas:
        if replica.name in cc2_members:
            replica.crash()
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(12_000)
    assert deployment.proxy.submissions.acked_total > before + 10
    assert master_logs_consistent(deployment)
