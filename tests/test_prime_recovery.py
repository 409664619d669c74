"""Proactive recovery and state transfer."""

import dataclasses

import pytest

from repro.prime import PoRequest, ReconReply, ReconRequest, StateReply


def small_checkpoint_cluster(cluster_factory, seed=11, interval=10):
    cluster = cluster_factory(seed=seed)
    cluster.config = dataclasses.replace(
        cluster.config, checkpoint_interval_seqs=interval
    )
    for node in cluster.nodes:
        node.config = cluster.config
        node.checkpoints.config = cluster.config
    return cluster.start()


def test_recovered_replica_catches_up(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory)
    cluster.pump(20, gap_ms=25)
    cluster.nodes[3].crash()
    cluster.pump(20, gap_ms=25)
    cluster.run_for(500)
    cluster.nodes[3].recover()
    cluster.pump(10, gap_ms=25)
    cluster.run_for(5000)
    reference = cluster.assert_safety()
    assert len(reference) == 50
    assert len(cluster.nodes[3].app.log) == 50
    assert cluster.obs.log.count(kind="recovery-done") >= 1


def test_recovered_replica_gets_fresh_origin_stream(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory)
    cluster.pump(10, gap_ms=25)
    node = cluster.nodes[2]
    old_origin = node.origin_id
    node.crash()
    cluster.run_for(200)
    node.recover()
    cluster.run_for(3000)
    assert node.origin_id != old_origin


def test_leader_recovery_rejoins_in_new_view(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory, seed=23)
    cluster.run_for(500)
    cluster.pump(10, gap_ms=25)
    cluster.nodes[0].crash()
    cluster.pump(10, gap_ms=40, node_index=1)
    cluster.run_for(3000)
    cluster.nodes[0].recover()
    cluster.pump(10, gap_ms=40, node_index=1)
    cluster.run_for(6000)
    reference = cluster.assert_safety()
    assert len(reference) == 30
    assert cluster.nodes[0].view >= 1


def test_recovering_replica_rejects_submissions(cluster):
    cluster.nodes[4].crash()
    cluster.run_for(100)
    cluster.nodes[4].recover()
    # immediately after recovery it awaits state transfer
    assert cluster.nodes[4].awaiting_state
    ok, _ = cluster.submit(("op",), node_index=4)
    assert ok is False


def test_snapshot_state_digest_consistent_across_replicas(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory)
    cluster.pump(15, gap_ms=25)
    cluster.run_for(2000)
    digests = {
        node.checkpoints.stable_digest
        for node in cluster.nodes
        if node.checkpoints.stable_digest is not None
    }
    assert len(digests) == 1


def test_lagging_replica_catches_up_after_partition(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory, seed=31)
    cluster.run_for(200)
    heal = cluster.network.partition(
        ["replica:5"], [n.name for n in cluster.nodes[:5]]
    )
    cluster.pump(30, gap_ms=25, node_index=1)
    cluster.run_for(500)
    heal()
    cluster.run_for(8000)
    assert len(cluster.nodes[5].app.log) == 30
    cluster.assert_safety()


def test_two_sequential_recoveries(cluster_factory):
    cluster = small_checkpoint_cluster(cluster_factory, seed=37)
    cluster.pump(15, gap_ms=25)
    for victim in (2, 4):
        cluster.nodes[victim].crash()
        cluster.pump(8, gap_ms=30, node_index=1)
        cluster.run_for(300)
        cluster.nodes[victim].recover()
        cluster.run_for(4000)
    reference = cluster.assert_safety()
    assert len(reference) == 31


@pytest.mark.parametrize("claimants, adopted", [(1, False), (2, True)])
def test_view_adopted_only_from_f_plus_one_state_replies(
    cluster_factory, claimants, adopted
):
    """A StateReply's ``view`` is one claim: a single lying replica serving
    a genuine checkpoint installs the data but never moves ``node.view``;
    f+1 = 2 matching claims do."""
    cluster = small_checkpoint_cluster(cluster_factory)
    cluster.pump(25, gap_ms=25)
    cluster.run_for(500)
    victim = cluster.nodes[3]
    victim.crash()
    victim.recover()  # its own StateRequest is still in flight
    assert victim.awaiting_state and victim.view == 0
    fake_view = 7
    liars = cluster.nodes[:claimants]
    seq, snapshot, proof = liars[-1].checkpoints.best_serveable()
    replies = [StateReply(liar.name, 0, None, (), fake_view) for liar in liars[:-1]]
    replies.append(StateReply(liars[-1].name, seq, snapshot, proof, fake_view))
    for liar, reply in zip(liars, replies):
        victim._dispatch(liar.sign_message(reply))
    assert victim.last_executed_seq == seq  # the checkpoint itself is genuine
    assert not victim.awaiting_state
    assert victim.view == (fake_view if adopted else 0)


# ----------------------------------------------------------------------
# Reconciliation pushes go out on evidence only
# ----------------------------------------------------------------------
def recon_replies(cluster):
    """(time, sender, destination, request) of every ReconReply put on the
    network from now on."""
    sent = []

    def spy(src, dst, signed):
        reply = getattr(signed, "payload", None)
        if isinstance(reply, ReconReply):
            sent.append((cluster.simulator.now, src, dst, reply.request.payload))
        return signed

    cluster.network.add_filter(spy)
    return sent


def test_a_fault_free_cluster_pushes_nothing(cluster_factory):
    """Every replica certifies from the same PoAck broadcast, so no
    certificate is ever a recon interval old while a peer's summary still
    lacks it."""
    cluster = cluster_factory(seed=13).start()
    sent = recon_replies(cluster)
    cluster.pump(150, gap_ms=20)
    cluster.run_for(500)
    assert sent == []
    assert len(set(cluster.logs())) == 1 and len(cluster.logs()[0]) == 150


def test_a_crashed_peer_gets_at_most_one_push_round_per_summary(cluster_factory):
    """A down replica sends no newer summary, so each peer answers the one
    it last heard at most once (one push round, not one per recon tick)."""
    cluster = small_checkpoint_cluster(cluster_factory, seed=17)
    cluster.pump(10, gap_ms=20)
    victim = cluster.nodes[3]
    sent = recon_replies(cluster)
    victim.crash()
    cluster.pump(60, gap_ms=25, node_index=1)  # 1.5 s down
    rounds = {}
    for at, src, dst, _ in sent:
        if dst == victim.name:
            rounds.setdefault(src, set()).add(at)
    assert rounds and all(len(times) == 1 for times in rounds.values()), rounds
    victim.recover()
    cluster.pump(10, gap_ms=25, node_index=1)
    cluster.run_for(5000)
    reference = cluster.assert_safety()
    assert len(reference) == 80 and len(victim.app.log) == 80


def test_a_replica_cut_off_from_one_origin_gets_its_requests_by_push(
    cluster_factory,
):
    """``replica:4`` never receives ``replica:0``'s PoRequests and its own
    reconciliation pulls are dropped too: only pushes, sent once its
    summaries show it behind, can give it those requests."""
    cluster = cluster_factory(seed=19).start()
    cut, origin = "replica:4", "replica:0"

    def cut_off(src, dst, signed):
        payload = getattr(signed, "payload", None)
        if dst == cut and src == origin and isinstance(payload, PoRequest):
            return None
        if src == cut and isinstance(payload, ReconRequest):
            return None
        return signed

    cluster.network.add_filter(cut_off)
    sent = recon_replies(cluster)
    cluster.pump(60, gap_ms=20)
    cluster.run_for(2000)
    pushed = {(request.origin, request.po_seq)
              for _, _, dst, request in sent if dst == cut}
    stream, own_seq = cluster.nodes[0].origin_id, cluster.nodes[0]._own_po_seq
    assert own_seq == 10
    assert {(stream, seq) for seq in range(1, own_seq + 1)} <= pushed
    logs = cluster.logs()
    assert len(logs[0]) == 60 and all(log == logs[0] for log in logs)
