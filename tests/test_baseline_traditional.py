"""Tests for the traditional SCADA baseline."""

import pytest

from repro.baselines import TCommand, TraditionalDeployment
from repro.baselines.traditional import TOperatorCommand


@pytest.fixture
def deployment():
    dep = TraditionalDeployment(num_substations=4, seed=2)
    dep.start()
    dep.run_for(2000)
    return dep


def test_status_reaches_master(deployment):
    assert len(deployment.primary.latest_status) == 4
    status = deployment.primary.latest_status["sub1"]
    assert status.poll_seq > 5


def test_backup_also_receives_status(deployment):
    assert len(deployment.backup.latest_status) == 4


def test_master_command_operates_breaker(deployment):
    grid = deployment.grid
    substation = sorted(grid.substations)[1]
    breaker_id = sorted(grid.substations[substation].breakers)[0]
    deployment.primary.issue_command(substation, breaker_id, close=False)
    deployment.run_for(200)
    assert grid.breaker_closed(substation, breaker_id) is False


def test_wrong_token_rejected(deployment):
    grid = deployment.grid
    substation = sorted(grid.substations)[0]
    breaker_id = sorted(grid.substations[substation].breakers)[0]
    # attacker without the shared credential sends a command directly
    deployment.primary.send(
        deployment.proxy.name,
        TCommand("wrong-token", substation, breaker_id, False),
    )
    deployment.run_for(200)
    assert grid.breaker_closed(substation, breaker_id) is True


def test_operator_command_via_primary(deployment):
    grid = deployment.grid
    substation = sorted(grid.substations)[2]
    breaker_id = sorted(grid.substations[substation].breakers)[0]
    deployment.proxy.send(
        deployment.primary.name,
        TOperatorCommand(substation, breaker_id, False),
    )
    deployment.run_for(200)
    assert grid.breaker_closed(substation, breaker_id) is False


def test_backup_promotes_on_primary_crash(deployment):
    assert deployment.backup.is_primary is False
    deployment.primary.crash()
    deployment.run_for(5000)
    assert deployment.backup.is_primary is True


def test_single_compromise_grants_full_control(deployment):
    """The baseline's fatal property: one host compromise controls the
    whole field (contrast with Spire's threshold gate)."""
    grid = deployment.grid
    deployment.primary.compromise()
    served_before = grid.served_load_mw()
    for substation in sorted(grid.substations):
        for breaker_id in sorted(grid.substations[substation].breakers):
            deployment.primary.issue_command(substation, breaker_id, close=False)
    deployment.run_for(500)
    assert grid.served_load_mw() == 0.0
    assert grid.served_load_mw() < served_before


def test_no_backup_configuration():
    dep = TraditionalDeployment(num_substations=2, seed=3, with_backup=False)
    dep.start()
    dep.run_for(500)
    assert dep.backup is None
    assert len(dep.primary.latest_status) == 2


# ----------------------------------------------------------------------
# Crash windows and dead devices: the baseline polls like Spire's proxy
# ----------------------------------------------------------------------

def test_proxy_polls_again_after_crash_window(deployment):
    proxy = deployment.proxy
    proxy.crash()
    deployment.run_for(500)
    proxy.recover()
    sent_at_recovery = proxy.status_sent
    seq_at_recovery = deployment.primary.latest_status["sub1"].poll_seq
    deployment.run_for(2000)
    assert proxy.status_sent > sent_at_recovery
    for master in (deployment.primary, deployment.backup):
        assert master.latest_status["sub1"].poll_seq > seq_at_recovery


def test_primary_heartbeats_again_after_crash_window(deployment):
    primary, backup = deployment.primary, deployment.backup
    primary.crash()
    deployment.run_for(500)  # shorter than the failover timeout
    primary.recover()
    recovered_at = deployment.simulator.now
    deployment.run_for(3000)
    assert backup._last_peer_heartbeat > recovered_at
    assert backup.is_primary is False


def test_backup_failover_check_survives_its_own_crash_window(deployment):
    backup = deployment.backup
    backup.crash()
    deployment.run_for(500)
    backup.recover()
    deployment.primary.crash()
    deployment.run_for(5000)
    assert backup.is_primary is True


def test_dead_rtu_times_out_and_is_not_polled_twice_at_once():
    dep = TraditionalDeployment(num_substations=3, seed=2, poll_interval_ms=20.0)
    dead = dep.rtus[sorted(dep.rtus)[0]]
    requests = []

    def spy(src, dst, payload):
        if dst == dead.name:
            requests.append(dep.simulator.now)
        return payload

    dep.network.add_filter(spy)
    dead.crash()
    dep.start()
    dep.run_for(1000)
    assert dep.proxy.poller.polls_timed_out > 0
    # one transaction in flight at a time: the next request waits for the
    # 50 ms device timeout, it does not ride every 20 ms poll tick
    assert all(b - a > 50.0 for a, b in zip(requests, requests[1:]))
    assert len(requests) >= 10
    # the live devices are unaffected
    assert dep.primary.latest_status[sorted(dep.rtus)[1]].poll_seq > 20
