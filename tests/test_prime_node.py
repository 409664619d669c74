"""Integration tests for Prime ordering on a direct LAN network."""

import pytest

from repro.crypto import FastCrypto
from repro.prime import (
    ClientUpdate,
    KeyValueApp,
    sign_client_update,
)
from repro.prime.execution import coverage_cutoffs
from repro.prime.node import verify_client_update


def test_single_update_executes_everywhere(cluster):
    cluster.submit(("op", 1))
    cluster.run_for(500)
    reference = cluster.assert_safety()
    assert len(reference) == 1


def test_many_updates_all_execute_in_same_order(cluster):
    cluster.pump(30, gap_ms=15)
    cluster.run_for(1000)
    reference = cluster.assert_safety()
    assert len(reference) == 30


def test_updates_from_all_origins_interleave_consistently(cluster):
    for index in range(6):
        cluster.submit(("from", index), node_index=index)
    cluster.run_for(1000)
    reference = cluster.assert_safety()
    assert len(reference) == 6


def test_duplicate_submission_executes_once(cluster):
    update = sign_client_update(cluster.crypto, "client:x", 1, ("op",))
    cluster.nodes[0].submit(update)
    cluster.nodes[1].submit(update)  # client failover duplicate
    cluster.nodes[2].submit(update)
    cluster.run_for(1000)
    reference = cluster.assert_safety()
    assert len(reference) == 1


def test_resubmission_after_execution_rejected(cluster):
    update = sign_client_update(cluster.crypto, "client:x", 1, ("op",))
    cluster.nodes[0].submit(update)
    cluster.run_for(500)
    assert cluster.nodes[0].submit(update) is False


def test_unsigned_update_rejected(cluster):
    bogus = ClientUpdate("client:x", 1, ("op",), None)
    assert cluster.nodes[0].submit(bogus) is False


def test_wrong_signature_rejected(cluster):
    update = sign_client_update(cluster.crypto, "client:x", 1, ("op",))
    forged = ClientUpdate("client:y", 1, ("op",), update.signature)
    assert cluster.nodes[0].submit(forged) is False
    assert not verify_client_update(cluster.crypto, forged)


def test_batching_groups_updates(cluster):
    # submit several updates at the same instant to one node: they must
    # travel in a single PoRequest
    for seq in range(5):
        cluster.submit(("burst", seq), node_index=2)
    cluster.run_for(500)
    node = cluster.nodes[2]
    origin_state = node.origins[node.origin_id]
    assert origin_state.certified_upto == 1  # one batch
    assert len(origin_state.requests[1].payload.updates) == 5


def test_batch_respects_max_size(cluster_factory):
    import dataclasses

    cluster = cluster_factory()
    cluster.config = dataclasses.replace(cluster.config, batch_max_updates=2)
    for node in cluster.nodes:
        node.config = cluster.config
    cluster.start()
    for seq in range(5):
        cluster.submit(("burst", seq), node_index=0)
    cluster.run_for(500)
    origin_state = cluster.nodes[0].origins[cluster.nodes[0].origin_id]
    assert origin_state.certified_upto == 3  # 2 + 2 + 1
    cluster.assert_safety()


def test_execution_is_deterministic_across_seeds(cluster_factory):
    logs = []
    for seed in (1, 1):
        cluster = cluster_factory(seed=seed).start()
        cluster.pump(10, gap_ms=10)
        cluster.run_for(500)
        logs.append(cluster.logs()[0])
    assert logs[0] == logs[1]


def test_app_state_converges(cluster_factory):
    cluster = cluster_factory(app_factory=KeyValueApp).start()
    cluster.submit(("set", "a", 1))
    cluster.run_for(200)
    cluster.submit(("set", "b", 2))
    cluster.run_for(500)
    states = [node.app.data for node in cluster.nodes]
    assert all(state == {"a": 1, "b": 2} for state in states)


def test_coverage_cutoffs_quorum_th_largest():
    from repro.prime.messages import PoSummary, SignedMessage
    from repro.crypto.provider import Signature

    def row(sender, upto):
        summary = PoSummary(sender, 1, (("origin:a#0", upto),))
        return SignedMessage(summary, Signature(sender, "x"))

    matrix = tuple(row(f"r{i}", upto) for i, upto in enumerate([9, 7, 5, 3, 1, 0]))
    cutoffs = coverage_cutoffs(matrix, n=6, quorum=4)
    assert cutoffs["origin:a#0"] == 3  # 4th largest of [9,7,5,3,1,0]


def test_coverage_cutoffs_missing_rows_count_as_zero():
    from repro.prime.messages import PoSummary, SignedMessage
    from repro.crypto.provider import Signature

    def row(sender, upto):
        summary = PoSummary(sender, 1, (("o#0", upto),))
        return SignedMessage(summary, Signature(sender, "x"))

    matrix = tuple(row(f"r{i}", 10) for i in range(3))  # only 3 of 6 rows
    cutoffs = coverage_cutoffs(matrix, n=6, quorum=4)
    assert cutoffs["o#0"] == 0


def test_crashed_node_does_not_accept_submissions(cluster):
    cluster.nodes[3].crash()
    update = sign_client_update(cluster.crypto, "c", 1, ("op",))
    assert cluster.nodes[3].submit(update) is False


def test_progress_with_k_nodes_down(cluster):
    cluster.nodes[5].crash()  # k = 1 budget
    cluster.pump(10, gap_ms=20)
    cluster.run_for(1500)
    reference = cluster.assert_safety(only_up=True)
    assert len(reference) == 10


def test_no_progress_beyond_fault_budget(cluster):
    # f=1, k=1: quorum 4 of 6; with 3 down no quorum can form
    for index in (3, 4, 5):
        cluster.nodes[index].crash()
    cluster.submit(("op", 1))
    cluster.run_for(3000)
    assert all(len(node.app.log) == 0 for node in cluster.nodes if node.is_up)


def test_checkpoint_garbage_collects_slots(cluster_factory):
    import dataclasses

    cluster = cluster_factory()
    cluster.config = dataclasses.replace(cluster.config, checkpoint_interval_seqs=5)
    for node in cluster.nodes:
        node.config = cluster.config
        node.checkpoints.config = cluster.config
    cluster.start()
    cluster.pump(30, gap_ms=25)
    cluster.run_for(2000)
    node = cluster.nodes[0]
    assert node.checkpoints.stable_seq > 0
    horizon = node.checkpoints.stable_seq - cluster.config.checkpoint_interval_seqs
    assert all(seq > horizon for seq in node.slots)
    cluster.assert_safety()
