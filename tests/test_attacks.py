"""Tests for the attack library against the full system."""

import pytest

from repro.attacks import (
    LeaderChaser,
    compromise_daemon_delay,
    compromise_daemon_drop_all,
    compromise_daemon_drop_fraction,
    make_delivery_forger,
    make_share_corruptor,
    make_silent,
    make_slow_proposer,
)
from repro.core import BreakerCommand, DeliveryRecord, SpireDeployment, SpireOptions
from repro.core.update import BatchDeliveryShare
from repro.prime.messages import PrePrepare
from repro.spines import OverlayStack


@pytest.fixture
def deployment():
    dep = SpireDeployment(SpireOptions(
        num_substations=3, poll_interval_ms=200.0, seed=9,
    ))
    dep.start()
    dep.run_for(1500)
    return dep


def test_f_corrupt_share_replicas_tolerated(deployment):
    make_share_corruptor(deployment.replicas[2])
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(3000)
    after = deployment.proxy.submissions.acked_total
    assert after > before  # service continues despite garbage shares
    outstanding = deployment.proxy.submissions.outstanding
    assert outstanding <= 3


def test_silent_replica_tolerated(deployment):
    make_silent(deployment.replicas[4])
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(3000)
    assert deployment.proxy.submissions.acked_total > before


def test_forged_delivery_never_executed(deployment):
    grid = deployment.grid
    substation = sorted(grid.substations)[0]
    breaker_id = sorted(grid.substations[substation].breakers)[0]

    def fake_record():
        return DeliveryRecord(
            kind="command", client="hmi:0", client_seq=999_999,
            order_index=999_999,
            payload=BreakerCommand(substation, breaker_id, close=False,
                                   issued_by="attacker"),
        )

    make_delivery_forger(deployment.replicas[1], fake_record, interval_ms=100.0)
    deployment.run_for(3000)
    # one replica's shares are below the f+1 threshold: breaker untouched
    assert grid.breaker_closed(substation, breaker_id) is True
    assert deployment.proxy.collector.pending_records >= 1


def test_forger_sends_to_subscribers_then_the_targeted_proxy(deployment):
    grid = deployment.grid
    substation = sorted(grid.substations)[0]
    breaker_id = sorted(grid.substations[substation].breakers)[0]
    replica = deployment.replicas[1]
    record = DeliveryRecord(
        kind="command", client="hmi:0", client_seq=999_999,
        order_index=999_999,
        payload=BreakerCommand(substation, breaker_id, close=False,
                               issued_by="attacker"),
    )
    forged = []
    send = replica.transport.send

    def spy(dst, payload, size_bytes=256):
        if isinstance(payload, BatchDeliveryShare) and \
                payload.record.origin == "forged":
            forged.append(dst)
        return send(dst, payload, size_bytes=size_bytes)

    replica.transport.send = spy
    stop = make_delivery_forger(replica, lambda: record, interval_ms=100.0)
    deployment.run_for(150)
    stop()
    assert forged == [*replica.subscribers, "proxy:field"]
    assert replica.subscribers == ["hmi:0"]


def test_two_colluding_forgers_would_reach_threshold_doc(deployment):
    """Documents the boundary: threshold is f+1=2, so the system tolerates
    exactly f=1 compromised replica for forgery resistance."""
    assert deployment.prime_config.signing_threshold == 2


def test_leader_chaser_retargets(deployment):
    chaser = LeaderChaser(
        deployment.simulator,
        deployment.network,
        leader_fn=deployment.current_leader,
        peers_fn=deployment.dos_peers_of,
        extra_delay_ms=250.0,
        extra_loss=0.1,
        retarget_interval_ms=1500.0,
    )
    chaser.start()
    deployment.run_for(12_000)
    chaser.stop()
    # the DoS forced at least one view change, so the chaser moved
    assert chaser.retargets >= 2
    views = {replica.view for replica in deployment.replicas}
    assert max(views) >= 1
    # service continued throughout
    assert deployment.proxy.submissions.acked_total > 20


def test_compromised_daemon_drop_all_flooding_survives(deployment):
    """Dropping one overlay daemon's traffic cannot stop flooding."""
    stop = compromise_daemon_drop_all(deployment.overlay.daemon("dc1"))
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(2000)
    assert deployment.proxy.submissions.acked_total > before
    stop()


def test_compromised_daemon_drop_fraction(deployment):
    stop = compromise_daemon_drop_fraction(
        deployment.overlay.daemon("dc2"), fraction=0.5
    )
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(2000)
    assert deployment.proxy.submissions.acked_total > before
    stop()
    daemon = deployment.overlay.daemon("dc2")
    assert daemon.stats["dropped_behavior"] > 0


def test_compromised_daemon_delay(deployment):
    daemon = deployment.overlay.daemon("cc2")
    stop = compromise_daemon_delay(daemon, delay_ms=50.0)
    before = deployment.proxy.submissions.acked_total
    deployment.run_for(2000)
    assert deployment.proxy.submissions.acked_total > before
    assert daemon.stats["dropped_behavior"] > 0  # held, not yet released
    stop()
    # the hook releases every datagram it delayed: none was dropped
    deployment.run_for(100)
    assert daemon.stats["dropped_behavior"] == 0


def test_slow_proposer_delays_retransmissions_on_a_flooding_overlay():
    """``runtime.resend`` multicasts, and an overlay transport maps a
    multicast straight onto its stack — the installer must sit in that
    path too, or a retransmitted PrePrepare overtakes the delayed one.
    The suspect monitors are blinded so the leader stays in office long
    enough for its delayed slots to stall and be relayed."""
    delay_ms = 120.0
    deployment = SpireDeployment(SpireOptions.wan(seed=5, num_substations=3))
    assert deployment.overlay.mode == "flooding"
    deployment.start()
    deployment.run_for(1000)
    leader = next(r for r in deployment.replicas if r.is_leader)
    simulator = deployment.simulator
    uninstall = make_slow_proposer(leader, delay_ms)
    for replica in deployment.replicas:
        replica.monitor.should_suspect = lambda now: None

    def leads(payload):
        return isinstance(payload, PrePrepare) and payload.leader == leader.name

    produced = {"broadcast": [], "resend": []}
    delayed_broadcast, resend = leader._broadcast, leader.runtime.resend

    def spy_broadcast(payload, include_self=True):
        if leads(payload):
            produced["broadcast"].append(simulator.now)
        return delayed_broadcast(payload, include_self)

    def spy_resend(signed, peers=None, size_bytes=None):
        if leads(signed.payload):
            produced["resend"].append(simulator.now)
        return resend(signed, peers=peers, size_bytes=size_bytes)

    leader._broadcast, leader.runtime.resend = spy_broadcast, spy_resend
    arrivals = {}
    for peer in deployment.replicas:
        if peer is leader:
            continue

        # copies from the leader only: peers relay a stalled slot too
        def spy_receive(src, message, _receive=peer.on_message,
                        _seen=arrivals.setdefault(peer.name, [])):
            origin, signed = OverlayStack.unwrap(message)
            if origin == leader.name and leads(signed.payload):
                _seen.append(simulator.now)
            return _receive(src, message)

        peer.on_message = spy_receive
    deployment.run_for(3000)
    assert produced["broadcast"] and produced["resend"]
    # the i-th copy a peer sees cannot be earlier than the i-th one made
    # plus the delay (overlay transit comes on top)
    made = sorted(produced["broadcast"] + produced["resend"])
    for peer, seen in arrivals.items():
        assert seen, peer
        assert all(at >= at_made + delay_ms for at, at_made in zip(seen, made)), peer
    uninstall()
    transport = leader.transport
    assert transport.send.__func__ is type(transport).send
    assert transport.multicast.__func__ is type(transport).multicast
