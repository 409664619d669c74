"""View-change behaviour: crash, DoS, Byzantine leaders, spam resistance."""

import pytest

from repro.attacks import (
    make_equivocating_leader,
    make_seq_skipping_leader,
    make_silent,
    make_slow_proposer,
    make_suspect_spammer,
)
from repro.obs import EV_NEW_VIEW, EV_RECOVERY_START, EV_VIEW_CHANGE_START
from repro.prime import NewView
from repro.simnet import DosAttack, FailureInjector


def test_leader_crash_triggers_view_change(cluster):
    cluster.run_for(500)  # RTT warm-up
    cluster.nodes[0].crash()
    cluster.pump(10, gap_ms=30, node_index=1)
    cluster.run_for(3000)
    healthy = [node for node in cluster.nodes[1:]]
    assert all(node.view >= 1 for node in healthy)
    reference = cluster.assert_safety(only_up=True)
    assert len(reference) == 10
    assert cluster.obs.log.count(kind="new-view") >= 1


def test_leader_dos_triggers_view_change_and_recovery(cluster):
    cluster.run_for(1000)
    injector = FailureInjector(cluster.simulator, cluster.network)
    injector.dos_node(
        DosAttack("replica:0", start_ms=cluster.simulator.now + 10.0,
                  duration_ms=5000.0, extra_delay_ms=250.0, extra_loss=0.0),
        peers=[node.name for node in cluster.nodes[1:]],
    )
    cluster.pump(40, gap_ms=50, node_index=2)
    cluster.run_for(3000)
    assert all(node.view >= 1 for node in cluster.nodes)
    reference = cluster.assert_safety()
    assert len(reference) == 40
    assert cluster.obs.log.count(kind="suspect") >= cluster.config.quorum


def test_silent_leader_replaced(cluster):
    cluster.run_for(500)
    make_silent(cluster.nodes[0])
    cluster.pump(10, gap_ms=40, node_index=3)
    cluster.run_for(4000)
    healthy = cluster.nodes[1:]
    assert all(node.view >= 1 for node in healthy)
    logs = [tuple(node.app.log) for node in healthy]
    assert all(len(log) == 10 for log in logs)
    assert len(set(logs)) == 1


def test_slow_leader_bounded_by_tat(cluster):
    """The Prime headline property: a leader that delays proposals beyond
    the TAT bound is replaced, even though it never goes fully silent."""
    cluster.run_for(1000)
    make_slow_proposer(cluster.nodes[0], delay_ms=300.0)
    cluster.pump(20, gap_ms=50, node_index=2)
    cluster.run_for(4000)
    assert all(node.view >= 1 for node in cluster.nodes)
    reference = cluster.assert_safety()
    assert len(reference) == 20


def test_mildly_slow_leader_tolerated(cluster):
    """A leader within the TAT bound must NOT be replaced (no spurious
    view changes)."""
    cluster.run_for(1000)
    make_slow_proposer(cluster.nodes[0], delay_ms=5.0)
    cluster.pump(15, gap_ms=40, node_index=2)
    cluster.run_for(2000)
    assert all(node.view == 0 for node in cluster.nodes)
    cluster.assert_safety()


def test_suspect_spam_from_f_replicas_harmless(cluster):
    cluster.run_for(500)
    make_suspect_spammer(cluster.nodes[5])  # one Byzantine accuser (f=1)
    cluster.pump(10, gap_ms=40)
    cluster.run_for(2000)
    assert all(node.view == 0 for node in cluster.nodes)
    reference = cluster.assert_safety()
    assert len(reference) == 10


def test_equivocating_leader_cannot_break_safety(cluster):
    cluster.run_for(500)
    make_equivocating_leader(cluster.nodes[0])
    cluster.pump(15, gap_ms=40, node_index=2)
    cluster.run_for(6000)
    # whatever liveness path was taken, no two correct replicas diverge
    cluster.assert_safety(only_up=True)
    healthy_logs = [tuple(n.app.log) for n in cluster.nodes[1:]]
    assert all(len(log) == len(healthy_logs[0]) for log in healthy_logs)


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(c)")
def test_seq_skipping_leader_replaced(cluster):
    """Execution waits on the skipped slot forever unless the leader is
    replaced, and the turnaround-time sample is taken when a proposal
    arrives, not when its slot joins the executed prefix."""
    make_seq_skipping_leader(cluster.nodes[0], at_ms=2000.0)
    cluster.pump(200, gap_ms=20, node_index=2)
    cluster.run_for(3000)
    reference = cluster.assert_safety()
    assert len(reference) == 200


def test_replica_that_missed_the_new_view_rejoins(cluster):
    """A replica whose NewView is lost stays in its view change; the
    replicas that installed the view answer its ViewChange with their
    NewView instead of ignoring it."""
    cluster.run_for(500)
    laggard = cluster.nodes[4]
    dispatch, dropped = laggard._dispatch, []

    def drop_first_new_view(signed):
        if isinstance(signed.payload, NewView) and not dropped:
            dropped.append(signed)
            return
        dispatch(signed)

    laggard._dispatch = drop_first_new_view
    for node in cluster.nodes:
        node.leadership.send_suspect("forced")
    cluster.run_for(2000)
    assert dropped
    assert all(node.view == 1 and not node.in_view_change for node in cluster.nodes)
    assert laggard.obs.log.count(laggard.name, EV_RECOVERY_START) == 0
    cluster.pump(10, gap_ms=30)
    cluster.run_for(1000)
    assert [len(log) for log in cluster.logs()] == [10] * 6


def test_view_change_preserves_inflight_updates(cluster):
    cluster.run_for(500)
    cluster.pump(5, gap_ms=20, node_index=1)
    cluster.nodes[0].crash()  # crash mid-stream
    cluster.pump(5, gap_ms=30, node_index=1)
    cluster.run_for(4000)
    reference = cluster.assert_safety(only_up=True)
    assert len(reference) == 10


def test_second_view_change_when_next_leader_also_fails(cluster):
    cluster.run_for(500)
    cluster.nodes[0].crash()
    cluster.pump(3, gap_ms=30, node_index=2)
    cluster.run_for(3000)
    # repair the fault budget before killing the next leader (f=1)
    cluster.nodes[0].recover()
    cluster.run_for(2000)
    cluster.nodes[1].crash()  # leader of view 1
    cluster.pump(3, gap_ms=30, node_index=2)
    cluster.run_for(5000)
    healthy = [n for n in cluster.nodes if n.is_up]
    assert all(node.view >= 2 for node in healthy)
    reference = cluster.assert_safety(only_up=True)
    assert len(reference) == 6


def test_view_change_records_metrics(cluster):
    """Every view transition is dated in the event log: each moved
    replica started a view change, and its last transition names the
    view it holds."""
    cluster.run_for(500)
    cluster.nodes[0].crash()
    cluster.pump(10, gap_ms=30, node_index=1)
    cluster.run_for(3000)
    moved = [node for node in cluster.nodes[1:] if node.view >= 1]
    assert moved
    for node in moved:
        assert node.obs.log.count(node.name, EV_VIEW_CHANGE_START) >= 1
        transitions = [
            e for e in node.obs.log.events(node.name)
            if e.kind in (EV_VIEW_CHANGE_START, EV_NEW_VIEW)
        ]
        assert transitions[-1].details["view"] == node.view
