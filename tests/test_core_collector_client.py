"""Tests for delivery-share collection and client submission management."""

import dataclasses
from collections import Counter

import pytest

from repro.core import (
    DeliveryCollector,
    DeliveryRecord,
    HmiClient,
    SpireDeployment,
    SpireOptions,
    SubmissionManager,
)
from repro.core.update import BatchDeliveryShare, batch_of_records
from repro.obs import LatencyTracker
from repro.crypto import FastCrypto, ThresholdShare
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.spines import SpinesOverlay, lan_topology


@pytest.fixture
def crypto():
    provider = FastCrypto(seed="coll")
    provider.create_threshold_group("g", 6, 2)
    return provider


def record(seq=1, kind="status"):
    return DeliveryRecord(kind, "proxy:a", seq, order_index=seq, payload=("p", seq))


def batch_of(rec):
    """The one-entry batch a replica signs for a PoRequest of one update."""
    batch, (entry,) = batch_of_records("replica:0#0", rec.client_seq, [rec])
    return batch, entry


def share_for(crypto, rec, index, sender=None):
    batch, entry = batch_of(rec)
    share = crypto.threshold_sign_share("g", index, batch)
    return BatchDeliveryShare(sender or f"replica:{index}", batch, share, (entry,))


def test_combines_at_threshold(crypto):
    collector = DeliveryCollector(crypto, "g")
    rec = record()
    assert collector.add_batch(share_for(crypto, rec, 1)) == []
    [(combined_record, signature)] = collector.add_batch(share_for(crypto, rec, 2))
    assert combined_record == rec
    assert crypto.threshold_verify(signature, batch_of(rec)[0])


def test_gate_signs_the_batch_record_at_threshold(crypto):
    collector = DeliveryCollector(crypto, "g")
    rec = record()
    assert collector.add(share_for(crypto, rec, 1)) is None
    signed, signature = collector.add(share_for(crypto, rec, 2))
    assert signed == batch_of(rec)[0]
    assert crypto.threshold_verify(signature, signed)


def test_deduplicates_records(crypto):
    collector = DeliveryCollector(crypto, "g")
    rec = record()
    collector.add_batch(share_for(crypto, rec, 1))
    assert collector.add_batch(share_for(crypto, rec, 2)) != []
    # further shares for the same record do nothing
    assert collector.add_batch(share_for(crypto, rec, 3)) == []
    assert collector.verified == 1


def test_distinct_records_both_verify(crypto):
    collector = DeliveryCollector(crypto, "g")
    for seq in (1, 2):
        rec = record(seq)
        collector.add_batch(share_for(crypto, rec, 1))
        assert collector.add_batch(share_for(crypto, rec, 2)) != []
    assert collector.verified == 2


def test_single_share_insufficient(crypto):
    collector = DeliveryCollector(crypto, "g")
    assert collector.add_batch(share_for(crypto, record(), 1)) == []
    assert collector.pending_records == 1


def test_same_sender_does_not_double_count(crypto):
    collector = DeliveryCollector(crypto, "g")
    rec = record()
    collector.add_batch(share_for(crypto, rec, 1, sender="replica:1"))
    assert collector.add_batch(share_for(crypto, rec, 1, sender="replica:1")) == []


def test_corrupt_share_does_not_block(crypto):
    collector = DeliveryCollector(crypto, "g")
    rec = record()
    batch, entry = batch_of(rec)
    bogus = BatchDeliveryShare(
        "replica:9", batch, ThresholdShare("g", 3, "junk"), (entry,)
    )
    collector.add_batch(bogus)
    collector.add_batch(share_for(crypto, rec, 1))
    assert collector.add_batch(share_for(crypto, rec, 2)) != []


def test_forged_record_variant_cannot_combine(crypto):
    """A compromised replica vouching a different payload for the same key
    never reaches the threshold with honest shares."""
    collector = DeliveryCollector(crypto, "g")
    honest = record()
    forged = DeliveryRecord("status", "proxy:a", 1, order_index=1,
                            payload=("evil",))
    assert batch_of(forged)[0].key() == batch_of(honest)[0].key()
    collector.add_batch(share_for(crypto, forged, 1))
    assert collector.add_batch(share_for(crypto, honest, 2)) == []  # split 1/1
    [(released, _signature)] = collector.add_batch(share_for(crypto, honest, 3))
    assert released == honest


def test_dedup_table_forgets_oldest_first_and_stays_bounded(crypto):
    """A straggler share for a recently released record releases nothing:
    the bounded dedup table evicts its oldest keys, never recent ones
    (a region proxy would otherwise operate the breaker twice)."""
    collector = DeliveryCollector(crypto, "g")
    collector.max_pending = cap = 64
    records = [record(seq) for seq in range(1, 3 * cap + 1)]
    for count, rec in enumerate(records, 1):
        collector.add_batch(share_for(crypto, rec, 1))
        assert len(collector.add_batch(share_for(crypto, rec, 2))) == 1
        recent = [r.key() for r in records[max(0, count - cap):count]]
        assert list(collector._done) == list(collector._done_order) == recent
    for rec in records[-cap:]:
        assert collector.add_batch(share_for(crypto, rec, 3)) == []
    assert collector.verified == 3 * cap


def alternate_root_share(crypto, rec, index):
    """A share over ``rec``'s batch key that signs another Merkle root."""
    batch, entry = batch_of(rec)
    forged = dataclasses.replace(batch, merkle_root="f" * 64)
    share = crypto.threshold_sign_share("g", index, forged)
    return BatchDeliveryShare(f"replica:{index}", forged, share, (entry,))


def test_a_released_batch_key_tracks_no_further_variant(crypto):
    """Once a key is released only a Byzantine replica signs another
    variant of it: such a share is not kept, where it used to wait for a
    threshold it can never reach."""
    collector = DeliveryCollector(crypto, "g")
    for seq in range(1, 201):
        rec = record(seq)
        collector.add_batch(share_for(crypto, rec, 1))
        assert len(collector.add_batch(share_for(crypto, rec, 2))) == 1
        assert collector.add_batch(alternate_root_share(crypto, rec, 3)) == []
    assert collector.pending_records == 0
    assert collector.verified == 200


def test_each_sender_holds_at_most_its_cap_of_unreleased_keys(crypto):
    """Shares for made-up keys never reach f+1. A sender past its cap
    forgets its own oldest ones, never another sender's."""
    collector = DeliveryCollector(crypto, "g")
    collector.max_held_per_sender = cap = 64
    honest = record(1)
    collector.add_batch(share_for(crypto, honest, 1))  # waits for a second share
    flood = [record(seq) for seq in range(2, 3 * cap + 2)]
    for rec in flood:
        collector.add_batch(share_for(crypto, rec, 3, sender="replica:3"))
    assert collector.pending_records == cap + 1
    [(released, _signature)] = collector.add_batch(share_for(crypto, honest, 2))
    assert released == honest
    assert collector.pending_records == cap
    # the flooder's newest share is still held, its oldest is gone
    assert len(collector.add_batch(share_for(crypto, flood[-1], 2))) == 1
    assert collector.add_batch(share_for(crypto, flood[0], 2)) == []


class Replica(Process):
    """A replica endpoint that only sends."""

    def on_message(self, src, payload):
        pass


@pytest.mark.parametrize("through_overlay", [False, True])
def test_an_endpoint_binds_every_share_to_its_authenticated_sender(crypto, through_overlay):
    """A share speaks only for the replica it came from: on a direct link
    the link's sender, through the overlay the datagram's origin.
    Byzantine ``replica:1``'s shares under made-up names never reach the
    collector, so its flood stops at its own cap; under honest
    ``replica:2``'s name they cannot evict ``replica:2``'s pending share."""
    simulator = Simulator(seed=1)
    network = Network(simulator, LinkSpec(latency_ms=1.0))
    overlay = SpinesOverlay(simulator, network, lan_topology(1), crypto=crypto)
    hmi = HmiClient("hmi:0", simulator, network, crypto, ["replica:1"])
    hmi.collector = collector = DeliveryCollector(crypto, "g")
    released = []
    hmi._on_verified_record = released.append
    cap = collector.max_held_per_sender
    senders = {}
    for name in ("replica:1", "replica:2", "replica:3"):
        replica = Replica(name, simulator, network)
        stack = overlay.attach(replica, "lan0")
        senders[name] = stack.send if through_overlay else replica.send
    if through_overlay:
        hmi.stack = overlay.attach(hmi, "lan0")

    def send(origin, rec, index, sender):
        senders[origin]("hmi:0", share_for(crypto, rec, index, sender=sender))
        simulator.run_for(5)

    honest = record(1)
    send("replica:2", honest, 2, "replica:2")
    assert collector.pending_records == 1
    made_up = [record(seq) for seq in range(2, 2 * cap + 2)]
    for number, rec in enumerate(made_up):
        send("replica:1", rec, 1, f"replica:ghost{number}")
    for rec in made_up[:cap + 1]:
        send("replica:1", rec, 1, "replica:1")
    # the honest share and replica:1's own newest ``cap``
    assert collector.pending_records == 1 + cap
    for rec in made_up[cap:]:
        send("replica:1", rec, 1, "replica:2")
    assert collector.rejected_shares == len(made_up) + cap
    assert collector.pending_records == 1 + cap
    send("replica:3", honest, 3, "replica:3")
    assert released == [honest]


# ----------------------------------------------------------------------
# SubmissionManager
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def manager(sent, clock, recorder=None, **kwargs):
    return SubmissionManager(
        client_name="client:a",
        crypto=FastCrypto(seed="sm"),
        replicas=["r0", "r1", "r2"],
        send_fn=lambda replica, payload, size: sent.append((replica, payload)) or True,
        now_fn=clock,
        recorder=recorder,
        **kwargs,
    )


def test_submit_signs_and_sends():
    sent = []
    clock = FakeClock()
    sm = manager(sent, clock, start_index=0)
    key = sm.submit(("payload",))
    assert key == ("client:a", 1)
    assert sent == []  # held until the flush
    sm.flush()
    assert len(sent) == 1
    assert sent[0][0] == "r0"
    [update] = sent[0][1].updates
    assert update.client == "client:a" and update.client_seq == 1
    assert update.signature is not None
    sm.flush()
    assert len(sent) == 1  # nothing held, nothing sent


def test_a_flush_sends_every_held_update_in_one_submission():
    sent, sizes = [], []
    sm = SubmissionManager(
        "client:a", FastCrypto(seed="sm"), ["r0", "r1", "r2"],
        lambda replica, payload, size: sent.append((replica, payload))
        or sizes.append(size) or True,
        FakeClock(), start_index=1,
    )
    keys = [sm.submit(("reading", i)) for i in range(4)]
    sm.flush()
    [(replica, submission)] = sent
    assert replica == "r1"
    assert [(u.client, u.client_seq) for u in submission.updates] == keys
    assert sizes == [4 * 400]
    assert sm.submitted_total == 4 and sm.outstanding == 4


def test_sequences_increment():
    sent = []
    sm = manager(sent, FakeClock())
    assert sm.submit("a")[1] == 1
    assert sm.submit("b")[1] == 2


def test_ack_clears_outstanding_and_measures():
    sent = []
    clock = FakeClock()
    recorder = LatencyTracker()
    sm = manager(sent, clock, recorder=recorder)
    key = sm.submit("x")
    clock.now = 42.0
    latency = sm.acknowledged(*key)
    assert latency == pytest.approx(42.0)
    assert sm.outstanding == 0
    assert recorder.stats().count == 1


def test_ack_for_unknown_key_ignored():
    sm = manager([], FakeClock())
    assert sm.acknowledged("client:a", 99) is None
    assert sm.acknowledged("client:other", 1) is None


def test_retry_rotates_target():
    sent = []
    clock = FakeClock()
    sm = manager(sent, clock, resubmit_timeout_ms=100.0, start_index=0)
    sm.submit("x")
    clock.now = 50.0
    assert sm.retry_tick() == 0  # not timed out yet
    clock.now = 150.0
    assert sm.retry_tick() == 1
    assert sent[-1][0] == "r1"  # failover to the next replica
    clock.now = 300.0
    sm.retry_tick()
    assert sent[-1][0] == "r2"
    assert sm.retries_total == 2


def test_retry_preserves_update_identity():
    sent = []
    clock = FakeClock()
    sm = manager(sent, clock, resubmit_timeout_ms=10.0)
    key = sm.submit("x")
    sm.flush()
    clock.now = 20.0
    sm.retry_tick()
    first, second = (payload.updates for _, payload in sent)
    assert first == second  # same signed update, safe to dedup


def test_one_retry_tick_sends_one_submission_per_target():
    """Updates due at one tick leave as one submission per replica they
    fail over to, each update once, in the order they were submitted."""
    sent = []
    clock = FakeClock()
    sm = manager(sent, clock, resubmit_timeout_ms=100.0, start_index=0)

    def submit_now(payload):
        key = sm.submit(payload)
        sm.flush()
        return key

    a = submit_now("a")             # r0, due at 100
    clock.now = 50.0
    c = submit_now("c")             # r0, due at 150
    clock.now = 100.0
    assert sm.retry_tick() == 1     # a to r1, due at 250; target now r1
    b = submit_now("b")             # r1, due at 200
    del sent[:]
    clock.now = 250.0
    assert sm.retry_tick() == 3
    assert [
        (replica, [(u.client, u.client_seq) for u in payload.updates])
        for replica, payload in sent
    ] == [("r2", [a, b]), ("r1", [c])]
    assert sm.retries_total == 4


def test_requires_replicas():
    with pytest.raises(ValueError):
        SubmissionManager("c", FastCrypto(), [], lambda *a: True, lambda: 0.0)


# ----------------------------------------------------------------------
# One submission per poll round, on a deployment
# ----------------------------------------------------------------------


def ten_substation_lan():
    return SpireDeployment(SpireOptions.lan(num_substations=10, seed=5))


def spy_submissions(client):
    """Every submission the client sends: (time, replica, updates)."""
    seen = []
    send = client.submissions.send_fn

    def spy(replica, payload, size_bytes):
        seen.append((client.simulator.now, replica, payload.updates))
        return send(replica, payload, size_bytes)

    client.submissions.send_fn = spy
    return seen


def spy_round_starts(proxy):
    starts = []
    poll_all = proxy.poller.poll_all

    def spy():
        starts.append(proxy.simulator.now)
        poll_all()

    proxy.poller.poll_all = spy
    return starts


def spy_executions(replica):
    """The (client, client_seq) of every update the replica executes."""
    keys = []
    replica.batch_execution_listeners.append(
        lambda request, executed: keys.extend(
            (update.client, update.client_seq) for update, _, _ in executed
        )
    )
    return keys


def spy_acks(client):
    acked = []
    acknowledged = client.submissions.acknowledged

    def spy(name, seq):
        if acknowledged(name, seq) is not None:
            acked.append((name, seq))

    client.submissions.acknowledged = spy
    return acked


def keys_of(sent):
    return [(u.client, u.client_seq) for _, _, updates in sent for u in updates]


def test_each_poll_round_leaves_in_one_submission_of_ten_updates():
    deployment = ten_substation_lan()
    proxy = deployment.proxy
    starts = spy_round_starts(proxy)
    sent = spy_submissions(proxy)
    executed = spy_executions(deployment.replicas[0])
    acked = spy_acks(proxy)
    deployment.start()
    deployment.run_for(1000)
    while proxy.poller.transactions:  # let the round under way finish
        deployment.run_for(1)
    assert len(starts) >= 9
    assert len(sent) == len(starts)  # one submission per round
    substations = sorted(deployment.rtus)
    for _, _, updates in sent:
        assert sorted(u.payload.substation for u in updates) == substations
    keys = keys_of(sent)
    assert len(keys) == len(set(keys)) == proxy.readings_submitted
    deployment.run_for(500)
    counts = Counter(executed)
    assert all(counts[key] == 1 for key in keys)
    assert max(counts.values()) == 1
    assert set(keys) <= set(acked)


def test_a_silent_device_holds_its_round_no_longer_than_the_poll_timeout():
    deployment = ten_substation_lan()
    proxy = deployment.proxy
    silent = sorted(deployment.rtus)[3]
    deployment.rtus[silent].crash()
    starts = spy_round_starts(proxy)
    sent = spy_submissions(proxy)
    acked = spy_acks(proxy)
    deployment.start()
    deployment.run_for(1000)
    assert len(sent) >= 9
    others = sorted(s for s in deployment.rtus if s != silent)
    timeout_ms = proxy.poller.timeout_ms
    for at, _, updates in sent:
        assert sorted(u.payload.substation for u in updates) == others
        round_start = max(start for start in starts if start <= at)
        assert at <= round_start + timeout_ms
    assert proxy.polls_timed_out >= len(sent) - 1
    keys = keys_of(sent)
    deployment.run_for(500)
    assert set(keys) <= set(acked)
    latest = deployment.master_state().latest_status
    assert silent not in latest
    assert all(latest[s].poll_seq >= len(sent) for s in others)


def test_retries_leave_one_submission_per_target_and_execute_once():
    """The proxy's replica is down: every round it sent there is retried,
    the updates one tick finds due leave in one submission per replica,
    and each executes once."""
    deployment = ten_substation_lan()
    proxy = deployment.proxy
    sent = spy_submissions(proxy)
    deployment.start()
    deployment.run_for(200)
    lost = sent[0][1]
    by_name = {replica.name: replica for replica in deployment.replicas}
    by_name[lost].crash()
    live = next(r for r in deployment.replicas if r.name != lost)
    executed = spy_executions(live)
    acked = spy_acks(proxy)
    deployment.run_for(2000)
    seen, retries = set(), {}
    for at, replica, updates in sent:
        keys = [(u.client, u.client_seq) for u in updates]
        if any(key in seen for key in keys):
            retries.setdefault(at, []).append(replica)
            assert all(key in seen for key in keys)  # never mixed with new ones
        seen.update(keys)
    assert retries
    for replicas in retries.values():
        assert len(replicas) == len(set(replicas))
    assert max(len(updates) for _, _, updates in sent[1:]) > 10
    counts = Counter(executed)
    assert max(counts.values()) == 1
    retried = {
        (u.client, u.client_seq)
        for at, _, updates in sent if at in retries for u in updates
    }
    assert retried <= set(executed) and retried <= set(acked)
