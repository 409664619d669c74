"""Batched ordering + Merkle-amortized delivery: options plumbing,
singleton batches, end-to-end convergence, and the collector's handling
of corrupt shares and tampered entries."""

import dataclasses
import gc
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import Oracle, ProxyGateMonitor
from repro.core import (
    BatchDeliveryShare,
    BatchingOptions,
    DeliveryCollector,
    HmiClient,
    SpireDeployment,
    SpireOptions,
    UpdateSubmission,
    batch_record_for,
)
from repro.core.builder import TopologyBuilder
from repro.core import update as update_module
from repro.core.update import BatchEntry, DeliveryRecord, batch_of_request
from repro.crypto import FastCrypto, Signature, digest, encode, encoding
from repro.prime.messages import (
    ClientUpdate,
    PoRequest,
    sign_client_update,
    verify_client_update,
    verify_client_updates_batch,
)
from repro.prime.ordering import slot_digest
from repro.simnet import LinkSpec, Network, Simulator
from repro.spines import lan_topology, wide_area_topology
from repro.spines.messages import OverlayData, OverlayForward


# ----------------------------------------------------------------------
# BatchingOptions
# ----------------------------------------------------------------------


def prime_config_for(batching):
    options = SpireOptions(batching=batching).validate()
    builder = TopologyBuilder(options, wide_area_topology())
    return builder.prime_config([f"replica:{i}" for i in range(options.n)])


def test_batching_defaults_keep_the_preset_sizes():
    BatchingOptions().validate()
    preset = prime_config_for(None)
    assert prime_config_for(BatchingOptions()) == preset
    assert preset.batch_max_updates == BatchingOptions().max_batch_size


@pytest.mark.parametrize("size", [1, 16])
def test_batching_sizes_map_onto_preorder_aggregation(size):
    config = prime_config_for(
        BatchingOptions(max_batch_size=size, max_batch_delay_ms=15.0)
    )
    assert config.batch_max_updates == size
    assert config.batch_interval_ms == 15.0


@pytest.mark.parametrize("bad", [
    dict(max_batch_size=0),
    dict(max_batch_size=-3),
    dict(max_batch_delay_ms=0.0),
    dict(max_batch_delay_ms=-1.0),
])
def test_batching_validate_rejects(bad):
    with pytest.raises(ValueError):
        BatchingOptions(**bad).validate()


def test_batching_roundtrip():
    options = BatchingOptions(max_batch_size=32, max_batch_delay_ms=15.0)
    assert BatchingOptions.from_dict(options.to_dict()) == options
    # scenario files written while the on/off switch existed still load
    assert BatchingOptions.from_dict(
        {**options.to_dict(), "enabled": True}
    ) == options


def test_deployment_validates_batching():
    with pytest.raises(ValueError):
        SpireOptions(batching=BatchingOptions(max_batch_size=0)).validate()


# ----------------------------------------------------------------------
# slot digest
# ----------------------------------------------------------------------


def summary_entry(sender, summary_seq, vector):
    # shape of a matrix entry: a signed envelope around a PO summary
    payload = SimpleNamespace(
        sender=sender, summary_seq=summary_seq, vector=vector
    )
    return SimpleNamespace(payload=payload)


def test_slot_digest_is_seq_and_content_sensitive():
    matrix = (
        summary_entry("origin#0", 1, ("d0",)),
        summary_entry("origin#1", 2, ("d1",)),
    )
    reference = slot_digest(7, matrix)
    assert reference != slot_digest(8, matrix)
    assert reference != slot_digest(7, matrix[:1])
    assert reference == slot_digest(7, matrix)


def test_slot_digest_has_one_encoding():
    matrix = (summary_entry("origin#0", 1, ("d0",)),)
    assert slot_digest(7, matrix) == digest((7, (("origin#0", 1, ("d0",)),)))
    with pytest.raises(TypeError):  # no version selector
        slot_digest(7, matrix, 2)


# ----------------------------------------------------------------------
# batch signature verification helper
# ----------------------------------------------------------------------


def test_verify_client_updates_batch_semantics():
    crypto = FastCrypto(seed="vb")
    good = sign_client_update(crypto, "client:a", 1, ("op", 1))
    unsigned = ClientUpdate("client:b", 1, ("op", 2), None)
    misattributed = ClientUpdate("client:c", 1, ("op", 3), good.signature)
    good2 = sign_client_update(crypto, "client:d", 4, ("op", 4))
    verdicts = verify_client_updates_batch(
        crypto, (good, unsigned, misattributed, good2)
    )
    assert verdicts == (True, False, False, True)
    assert verify_client_updates_batch(crypto, ()) == ()


# ----------------------------------------------------------------------
# Collector: tampered entries and share caching (unit level)
# ----------------------------------------------------------------------


GROUP = "masters"


def make_batch(crypto, updates=4, po_seq=1):
    executed = [
        (ClientUpdate(f"client:{i}", i + 1, ("reading", i)), i + 1, None)
        for i in range(updates)
    ]
    return batch_record_for("origin#0", po_seq, executed)


def collect(crypto, batch, entries, second_entries=None):
    """Every record two valid shares release: the first sender carries
    ``entries``, the second ``second_entries`` (default: the same)."""
    collector = DeliveryCollector(crypto, GROUP)
    released = []
    for index, carried in ((1, entries), (2, second_entries or entries)):
        share = crypto.threshold_sign_share(GROUP, index, batch)
        released += collector.add_batch(
            BatchDeliveryShare(f"replica:{index}", batch, share, carried)
        )
    assert all(
        crypto.threshold_verify(signature, batch) for _, signature in released
    )
    return collector, [record.order_index for record, _ in released]


@pytest.mark.parametrize("updates, victim, survivors", [
    (4, 2, [1, 2, 4]),
    (1, 0, []),  # a singleton batch: the one-leaf proof, rejected alone
])
def test_tampered_entry_rejected_batchmates_released(updates, victim, survivors):
    crypto = FastCrypto(seed="tamper")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = make_batch(crypto, updates)
    assert batch.count == updates
    # untampered, every proof (a one-leaf proof included) verifies
    honest, released = collect(crypto, batch, entries)
    assert released == list(range(1, updates + 1))
    assert honest.rejected_entries == 0
    # replace the victim's record with a forged one; its proof no longer
    # matches the signed root
    forged = dataclasses.replace(entries[victim].record, order_index=999)
    tampered = entries[:victim] + (
        BatchEntry(entries[victim].index, forged, entries[victim].proof),
    ) + entries[victim + 1:]
    collector, released = collect(crypto, batch, tampered)
    assert released == survivors
    assert collector.rejected_entries >= 1
    # tampered by the first sender only: the second sender's honest entry
    # for the same index is tried next, so nothing is withheld
    collector, released = collect(crypto, batch, tampered, entries)
    assert released == list(range(1, updates + 1))
    assert collector.rejected_entries == 1


class Endpoint:
    """An HMI on a bare network with the chaos proxy-gate monitor wrapped
    around its collector and the output oracle reading what it acts on:
    everything a Byzantine replica's share meets on its way in, driven
    through ``on_message``."""

    def __init__(self, crypto):
        simulator = Simulator(seed=1)
        network = Network(simulator, LinkSpec(latency_ms=1.0))
        self.crypto = crypto
        self.hmi = HmiClient("hmi:0", simulator, network, crypto, ["replica:1"])
        self.hmi.collector = self.collector = DeliveryCollector(crypto, GROUP)
        self.released = []
        self.hmi._on_verified_record = self.released.append
        self.gate = ProxyGateMonitor(simulator, crypto)
        self.gate.attach(self.hmi)
        self.oracle = Oracle(lambda: simulator.now)
        self.oracle.watch((), [self.hmi])

    def receive(self, index, batch, entries, fields=()):
        """One share of replica ``index`` over ``batch``; returns what it
        released. ``fields`` overwrite the share's own fields."""
        before = len(self.released)
        share = self.crypto.threshold_sign_share(GROUP, index, batch)
        share = BatchDeliveryShare(f"replica:{index}", batch, share, entries)
        self.hmi.on_message(share.sender, dataclasses.replace(share, **dict(fields)))
        assert not self.gate.violations() and not self.oracle.findings
        return [record.order_index for record in self.released[before:]]


def collect_at_endpoint(crypto, batch, entries, second_entries=None):
    """:func:`collect`, through an endpoint's message handler."""
    endpoint = Endpoint(crypto)
    released = endpoint.receive(1, batch, entries)
    released += endpoint.receive(2, batch, second_entries or entries)
    return endpoint, released


def corrupted(entry, malformed):
    if "entry" in malformed:
        return malformed["entry"]
    if "record_fields" in malformed:
        record = dataclasses.replace(entry.record, **malformed["record_fields"])
        return dataclasses.replace(entry, record=record)
    return dataclasses.replace(entry, **malformed)


@pytest.mark.parametrize("malformed", [
    {"proof": (1,)}, {"proof": (None, b"x")}, {"proof": None}, {"index": "1"},
    {"index": None},
    # ill-shaped where the collector (and the gate monitor around it) reads
    # a field: these raised AttributeError / TypeError before the ingress check
    {"entry": None}, {"entry": 7}, {"record": None}, {"record": "x"},
    {"record_fields": {"client": ["client:1"]}}, {"record_fields": {"kind": None}},
    {"record_fields": {"client_seq": "2"}},
])
def test_malformed_entry_from_a_valid_replica_is_rejected_not_raised(malformed):
    """A Byzantine replica's share is genuine, its entry is not: the
    handler rejects that entry and still releases the honest ones."""
    crypto = FastCrypto(seed="malformed")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = make_batch(crypto)
    bad = corrupted(entries[1], malformed)
    # alone in its share: nothing is released, nothing raises
    endpoint, released = collect_at_endpoint(crypto, batch, (bad,))
    assert released == [] and endpoint.collector.verified == 0
    assert endpoint.collector.rejected_entries == 2  # one per sender that carried it
    # among honest batch-mates, from the first sender only
    endpoint, released = collect_at_endpoint(
        crypto, batch, (entries[0], bad) + entries[2:], entries
    )
    assert released == [1, 2, 3, 4]
    assert endpoint.collector.rejected_entries == 1
    # ... and on the late-slice path, against the cached signature
    endpoint, released = collect_at_endpoint(crypto, batch, entries[:1])
    assert endpoint.receive(3, batch, (bad,)) == []
    assert endpoint.collector.rejected_entries == 1
    assert endpoint.receive(3, batch, entries[1:2]) == [entries[1].record.order_index]
    assert endpoint.collector.rejected_shares == 0


@pytest.mark.parametrize("fields", [
    {"record": None}, {"record": "x"}, {"entries": None}, {"entries": 7},
    {"entries": [None]}, {"sender": ["replica:1"]}, {"share": None},
])
def test_malformed_share_from_a_valid_replica_is_rejected_not_raised(fields):
    """The share itself is ill-shaped: it is counted and dropped whole, and
    the batch still releases from the honest replicas' shares."""
    crypto = FastCrypto(seed="malformed-share")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = make_batch(crypto)
    endpoint = Endpoint(crypto)
    assert endpoint.receive(1, batch, entries, fields) == []
    assert endpoint.collector.rejected_shares == 1
    assert endpoint.collector.pending_records == 0  # nothing of it was tracked
    assert endpoint.receive(2, batch, entries) == []
    assert endpoint.receive(3, batch, entries) == [1, 2, 3, 4]
    assert endpoint.collector.rejected_shares == 1
    assert endpoint.collector.rejected_entries == 0


def quiet_replica():
    """A replica of a built, never started deployment: its handler runs,
    nothing else does."""
    deployment = SpireDeployment(SpireOptions(seed=1, overlay_mode="shortest"))
    return deployment, deployment.replicas[0]


@pytest.mark.parametrize("update", [
    None, "x", 7, ("client:a", 1, "payload"),
    ClientUpdate(["hmi:0"], 1, "payload"), ClientUpdate("hmi:0", "1", "payload"),
    ClientUpdate("hmi:0", 1, "payload", signature="forged"),
])
def test_malformed_submission_from_a_client_is_dropped_not_raised(update):
    """A compromised client's submission is no ClientUpdate (it raised
    AttributeError inside the replica): dropped before ``submit``."""
    deployment, replica = quiet_replica()
    replica.submit = pytest.fail  # never reached
    sent = deployment.network.stats.sent
    replica.on_message("hmi:0", UpdateSubmission((update,)))
    assert not replica._pending_updates
    assert deployment.network.stats.sent == sent


#: what a field of either ingress message may hold instead of its type
ill_typed = st.one_of(
    st.none(), st.integers(-3, 3), st.text(max_size=3), st.floats(allow_nan=False),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
    st.tuples(st.integers(0, 2)),
)
SHARE_FIELDS = ("sender", "record", "share", "entries")
ENTRY_FIELDS = ("index", "record", "proof")
RECORD_FIELDS = ("kind", "client", "client_seq", "order_index", "payload")
BATCH_FIELDS = ("origin", "po_seq", "merkle_root", "count", "first_order_index")


@settings(max_examples=150, deadline=None)
@given(
    layer=st.sampled_from(("share", "batch", "signature", "entry", "record")),
    data=st.data(),
)
def test_an_ill_typed_delivery_share_never_raises_or_releases_its_own(layer, data):
    """One field of a genuine share, its batch record, its threshold share,
    an entry or an entry's record holds an ill-typed value: the endpoint's
    handler never raises, releases nothing but the genuine records, and
    the honest senders' shares still release every one of them once."""
    crypto = FastCrypto(seed="ill-typed")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = make_batch(crypto)
    endpoint = Endpoint(crypto)
    value = data.draw(ill_typed)
    fields = {}
    if layer == "share":
        fields[data.draw(st.sampled_from(SHARE_FIELDS))] = value
    elif layer == "batch":
        name = data.draw(st.sampled_from(BATCH_FIELDS))
        fields["record"] = dataclasses.replace(batch, **{name: value})
    elif layer == "signature":
        genuine = crypto.threshold_sign_share(GROUP, 1, batch)
        name = data.draw(st.sampled_from(("group", "index", "value")))
        fields["share"] = dataclasses.replace(genuine, **{name: value})
    elif layer == "entry":
        name = data.draw(st.sampled_from(ENTRY_FIELDS))
        fields["entries"] = (dataclasses.replace(entries[1], **{name: value}),)
    else:
        name = data.draw(st.sampled_from(RECORD_FIELDS))
        record = dataclasses.replace(entries[1].record, **{name: value})
        fields["entries"] = (dataclasses.replace(entries[1], record=record),)
    assert endpoint.receive(1, batch, entries, fields) == []
    released = endpoint.receive(2, batch, ())  # the threshold, if share 1 counted
    released += endpoint.receive(3, batch, entries)
    assert sorted(released) == [1, 2, 3, 4]
    assert all(record in [entry.record for entry in entries] for record in endpoint.released)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(("update", "client", "client_seq", "signature")), value=ill_typed)
def test_an_ill_typed_submission_never_raises_or_submits(field, value):
    deployment, replica = QUIET
    genuine = sign_client_update(deployment.crypto, "hmi:0", 1, ("op", 1))
    update = value if field == "update" else dataclasses.replace(genuine, **{field: value})
    if update == genuine:
        return  # drew the field's own value
    replica.on_message("hmi:0", UpdateSubmission((update,)))
    assert not replica._pending_updates


# --- a payload no encoder accepts, from a validly attached endpoint ------

#: what ``encode`` raises ``EncodingError`` on, bare or hidden in a tuple
_unencodable_leaf = st.sampled_from([{1, 2, 3}, object(), 1j, lambda: None])
unencodable = st.one_of(
    _unencodable_leaf, _unencodable_leaf.map(lambda leaf: ("reading", (1, leaf))),
)


def forged_submission(client, payload):
    return UpdateSubmission((ClientUpdate(client, 999, payload, Signature(client, "00")),))


def overlay_counts(deployment):
    stats = deployment.overlay.total_stats()
    return {name: stats[name] for name in ("forwarded", "delivered", "dropped_auth")}


def assert_dropped_at_the_ingress_daemon(deployment, payload):
    """``payload`` submitted through the proxy's own overlay stack: its
    home daemon drops the datagram where it first needs its digest."""
    proxy, before = deployment.proxy, overlay_counts(deployment)
    proxy.stack.send(deployment.replicas[-1].name, forged_submission(proxy.name, payload))
    deployment.simulator.run_for(40.0)
    after = overlay_counts(deployment)
    assert after == {**before, "dropped_auth": before["dropped_auth"] + 1}
    assert not any(replica._pending_updates for replica in deployment.replicas)


@pytest.mark.parametrize("preset", [SpireOptions.lan, SpireOptions.wan])
def test_an_unencodable_datagram_is_dropped_by_its_home_daemon_not_raised(preset):
    """It raised ``EncodingError`` out of ``_forward_now`` → ``crypto.mac``
    and ended the run."""
    deployment = SpireDeployment(preset(seed=1))
    assert_dropped_at_the_ingress_daemon(deployment, {1, 2, 3})
    # ... and from a Byzantine neighbour daemon: no digest, so no MAC to pass
    ours, theirs = [deployment.overlay.daemons[site] for site in list(deployment.overlay.daemons)[:2]]
    if theirs.site_name not in ours.neighbors:
        ours.add_neighbor(theirs.site_name)
    data = OverlayData("proxy:field", (deployment.replicas[0].name,), 7, {1, 2, 3})
    before = overlay_counts(deployment)
    ours.on_message(theirs.name, OverlayForward(data, theirs.site_name, b"m" * 32))
    assert overlay_counts(deployment) == {**before, "dropped_auth": before["dropped_auth"] + 1}


def test_an_unencodable_update_is_rejected_by_the_replica_not_raised():
    """On a single-daemon topology nothing digests the datagram on its
    way: it raised in ``PreOrderStage.submit`` → ``verify_client_update``."""
    deployment = SpireDeployment(SpireOptions.lan(seed=1), topology=lan_topology(1))
    proxy = deployment.proxy
    proxy.stack.send(deployment.replicas[0].name, forged_submission(proxy.name, {1, 2, 3}))
    deployment.simulator.run_for(40.0)
    assert overlay_counts(deployment) == {"forwarded": 0, "delivered": 1, "dropped_auth": 0}
    assert not any(replica._pending_updates for replica in deployment.replicas)
    crypto = deployment.crypto
    good = sign_client_update(crypto, "client:a", 1, ("op", 1))
    bad = ClientUpdate("client:b", 1, {1, 2, 3}, Signature("client:b", "00"))
    assert not verify_client_update(crypto, bad)
    assert verify_client_updates_batch(crypto, (good, bad, good)) == (True, False, True)


def test_an_unencodable_record_is_rejected_by_the_collector_not_raised():
    """It raised in ``DeliveryCollector.add_batch`` → ``digest``."""
    crypto = FastCrypto(seed="unencodable")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = make_batch(crypto)
    record = dataclasses.replace(entries[1].record, payload={1, 2, 3})
    bad = dataclasses.replace(entries[1], record=record)
    endpoint, released = collect_at_endpoint(
        crypto, batch, (entries[0], bad) + entries[2:], entries
    )
    assert released == [1, 2, 3, 4]
    assert endpoint.collector.rejected_entries == 1
    # ... and on the late-slice path, against the cached signature
    endpoint, released = collect_at_endpoint(crypto, batch, entries[:1])
    assert endpoint.receive(3, batch, (bad,)) == []
    assert endpoint.collector.rejected_entries == 1
    assert endpoint.receive(3, batch, entries[1:2]) == [entries[1].record.order_index]


@settings(max_examples=60, deadline=None)
@given(payload=unencodable, site=st.sampled_from(("daemon", "replica", "collector")))
def test_an_unencodable_payload_never_raises_or_gets_anywhere(payload, site):
    """At each of the three places that first need its digest: never
    raises, nothing of the message is forwarded, ordered or released."""
    if site == "daemon":
        assert_dropped_at_the_ingress_daemon(QUIET_WAN, payload)
    elif site == "replica":
        _, replica = QUIET
        replica.on_message("hmi:0", forged_submission("hmi:0", payload))
        assert not replica._pending_updates
        [update] = forged_submission("hmi:0", payload).updates
        assert replica.submit(update) is False
    else:
        crypto = FastCrypto(seed="unencodable")
        crypto.create_threshold_group(GROUP, 4, 2)
        batch, entries = make_batch(crypto)
        record = dataclasses.replace(entries[2].record, payload=payload)
        bad = dataclasses.replace(entries[2], record=record)
        endpoint, released = collect_at_endpoint(crypto, batch, (bad,), entries)
        assert released == [1, 2, 3, 4] and record not in endpoint.released
        assert endpoint.collector.rejected_entries == 1


QUIET = quiet_replica()
QUIET_WAN = SpireDeployment(SpireOptions.wan(seed=1))


def test_late_slice_verifies_against_cached_signature():
    crypto = FastCrypto(seed="late")
    crypto.create_threshold_group(GROUP, 4, 2)
    collector = DeliveryCollector(crypto, GROUP)
    batch, entries = make_batch(crypto)
    shares = {
        i: crypto.threshold_sign_share(GROUP, i, batch) for i in (1, 2, 3)
    }
    # first two senders carry only a partial slice; threshold reached on
    # the second share releases the union
    first = collector.add_batch(
        BatchDeliveryShare("replica:1", batch, shares[1], entries[:2])
    )
    assert first == []
    second = collector.add_batch(
        BatchDeliveryShare("replica:2", batch, shares[2], entries[1:3])
    )
    assert sorted(r.order_index for r, _ in second) == [1, 2, 3]
    # a later sender's remaining slice verifies against the cached batch
    # signature — no further combining, no duplicates for seen entries
    third = collector.add_batch(
        BatchDeliveryShare("replica:3", batch, shares[3], entries)
    )
    assert [r.order_index for r, _ in third] == [4]
    assert collector.verified == 4


def test_duplicate_sender_shares_do_not_reach_threshold():
    crypto = FastCrypto(seed="dup")
    crypto.create_threshold_group(GROUP, 4, 3)
    collector = DeliveryCollector(crypto, GROUP)
    batch, entries = make_batch(crypto)
    share = crypto.threshold_sign_share(GROUP, 1, batch)
    for _ in range(5):
        assert collector.add_batch(
            BatchDeliveryShare("replica:1", batch, share, entries)
        ) == []
    assert collector.verified == 0


# ----------------------------------------------------------------------
# End-to-end: batched deployments
# ----------------------------------------------------------------------


BASE = dict(num_substations=3, poll_interval_ms=250.0, seed=9)
RUN_MS = 3000.0


def run_deployment(**overrides):
    deployment = SpireDeployment(SpireOptions(**{**BASE, **overrides}))
    deployment.start()
    deployment.run_for(RUN_MS)
    return deployment


def trace_image(deployment):
    return tuple(
        (e.time, e.component, e.kind, tuple(sorted(e.details.items())))
        for e in deployment.obs.log
    )


@pytest.fixture(scope="module")
def singletons():
    return run_deployment(batching=BatchingOptions(max_batch_size=1))


@pytest.fixture(scope="module")
def batched():
    return run_deployment()


def test_singleton_batches_are_batches_of_one(singletons):
    cached = [
        batch
        for replica in singletons.replicas
        for batch, _share, _entry in replica._recent_shares.values()
    ]
    assert cached
    assert all(batch.count == 1 for batch in cached)
    hmi = singletons.hmis[0]
    assert sorted(hmi.view) == sorted(singletons.grid.substations)
    assert hmi.collector.rejected_entries == 0


def test_default_batching_is_bit_identical_to_no_options(batched):
    explicit = run_deployment(batching=BatchingOptions())
    assert explicit.simulator.events_processed == \
        batched.simulator.events_processed
    assert trace_image(explicit) == trace_image(batched)
    assert [r.last_executed_seq for r in explicit.replicas] == \
        [r.last_executed_seq for r in batched.replicas]


def test_batched_deployment_converges(batched):
    hmi = batched.hmis[0]
    assert sorted(hmi.view) == sorted(batched.grid.substations)
    for substation in batched.grid.substations:
        reading = hmi.substation_status(substation)
        assert reading is not None
        assert (reading.measurement("energized") or 0.0) == 1.0
    assert sum(r.batches_sent for r in batched.replicas) > 0
    assert hmi.collector.rejected_entries == 0
    assert hmi.collector.verified > 0


def test_batched_state_matches_singletons(singletons, batched):
    # the batch size changes message shape, not the replicated state
    # machine: both runs execute the same updates in the same order
    batched_state = {
        repr(sorted(replica.app.latest_status))
        for replica in batched.replicas
    }
    singleton_state = {
        repr(sorted(replica.app.latest_status))
        for replica in singletons.replicas
    }
    assert len(batched_state) == 1
    assert batched_state == singleton_state


def test_batching_cuts_delivery_messages(singletons, batched):
    batched_sent = sum(r.deliveries_sent for r in batched.replicas)
    singleton_sent = sum(r.deliveries_sent for r in singletons.replicas)
    assert batched_sent < singleton_sent / 2


def test_retry_cache_holds_single_entry_slices(batched):
    slices = [
        cached
        for replica in batched.replicas
        for cached in replica._recent_shares.values()
    ]
    assert slices
    # (batch record, threshold share, the one entry a retry is answered with)
    assert all(
        len(cached) == 3 and isinstance(cached[2], BatchEntry) for cached in slices
    )


def test_corrupt_share_tolerated_in_batched_mode():
    deployment = SpireDeployment(SpireOptions(**BASE))

    def corrupt(share):
        return share.__class__(share.group, share.index, "garbage")

    deployment.replicas[0].share_corruptor = corrupt
    deployment.start()
    deployment.run_for(RUN_MS)
    hmi = deployment.hmis[0]
    # robust combining routes around the corrupted replica's shares
    assert sorted(hmi.view) == sorted(deployment.grid.substations)
    assert hmi.collector.verified > 0


# ----------------------------------------------------------------------
# One batch per pre-order request, one walk per entry
# ----------------------------------------------------------------------


def from_scratch(entry):
    """``entry`` rebuilt field by field: nothing kept comes along (a
    ``copy.deepcopy`` would carry the kept bytes with the instance)."""
    rebuilt = BatchEntry(entry.index, dataclasses.replace(entry.record), tuple(entry.proof))
    assert rebuilt == entry and getattr(rebuilt, encoding._ENTRY, None) is None
    return rebuilt


def request_and_executed(updates=4, first_index=1):
    request = PoRequest("origin#0", 1, tuple(
        ClientUpdate(f"client:{i}", i + 1, ("reading", i)) for i in range(updates)
    ))
    executed = [
        (update, first_index + i, None) for i, update in enumerate(request.updates)
    ]
    return request, executed


def test_a_deployment_builds_one_tree_per_request_and_walks_each_entry_once(monkeypatch):
    encode(make_batch(None)[1][0])  # the generated encoders exist
    trees, walked = [], Counter()
    real_tree = update_module.merkle_tree
    monkeypatch.setattr(
        update_module, "merkle_tree",
        lambda leaves: trees.append(len(leaves)) or real_tree(leaves),
    )
    real_walk = encoding._DISPATCH[DeliveryRecord]

    def counting_walk(record, out):
        walked[record.key()] += 1
        real_walk(record, out)

    monkeypatch.setitem(encoding._DISPATCH, DeliveryRecord, counting_walk)
    deployment = run_deployment()
    sent = [
        (batch, entry)
        for replica in deployment.replicas
        for batch, _share, entry in replica._recent_shares.values()
    ]
    batches = {batch.key(): batch for batch, _ in sent}
    # six replicas executed every request; one of them built its batch
    assert len(trees) == len(batches) > 10
    assert sum(trees) == sum(batch.count for batch in batches.values())
    assert sum(r.batches_sent for r in deployment.replicas) == 6 * len(trees)
    # ... and hold that one batch and its entries by reference
    assert len({id(batch) for batch, _ in sent}) == len(batches)
    assert len({id(entry) for _, entry in sent}) == sum(trees)
    # a record is encoded for its leaf digest and walked inside its entry
    # by the first share that is MACed: once each, for 6 x targets shares
    assert set(walked.values()) == {2} and len(walked) == sum(trees)
    assert all(encoding.encode_cached(entry) == encode(from_scratch(entry)) for _, entry in sent)


def test_another_executed_sequence_gets_a_batch_of_its_own():
    request, executed = request_and_executed()
    kept = batch_of_request(request, executed)
    assert kept == batch_record_for("origin#0", 1, executed)
    same = batch_of_request(request, list(executed))
    assert same[0] is kept[0] and same[1] is kept[1]
    others = {
        "a different executed subset": executed[:2] + executed[3:],
        "shifted order indices": [(u, index + 10, r) for u, index, r in executed],
        "equal updates, other objects": [
            (dataclasses.replace(u), index, r) for u, index, r in executed
        ],
        "a prefix": executed[:3],
    }
    for case, sequence in others.items():
        batch, entries = batch_of_request(request, sequence)
        assert (batch, entries) == batch_record_for("origin#0", 1, sequence), case
        assert batch is not kept[0] and all(
            mine is not theirs for mine in entries for theirs in kept[1]
        ), case
        if "equal" not in case:
            assert batch.merkle_root != kept[0].merkle_root, case
        # nobody else sees it, and the first replica's batch is untouched
        again = batch_of_request(request, executed)
        assert again[0] is kept[0] and again[1] is kept[1], case
    assert kept == batch_record_for("origin#0", 1, executed)


def test_the_kept_batch_dies_with_its_request():
    request, executed = request_and_executed()
    batch, entries = batch_of_request(request, executed)
    refs = [weakref.ref(batch), weakref.ref(entries[0]), weakref.ref(request)]
    del request, executed, batch, entries
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def shared_batch_with_kept_bytes(crypto):
    """A shared batch every entry of which has been walked by a share."""
    request, executed = request_and_executed()
    batch, entries = batch_of_request(request, executed)
    encode(BatchDeliveryShare(
        "replica:2", batch, crypto.threshold_sign_share(GROUP, 2, batch), entries
    ))
    assert all(getattr(entry, encoding._ENTRY)[0] for entry in entries)
    return batch, entries


def test_a_replaced_entry_or_record_keeps_nothing_and_encodes_afresh():
    crypto = FastCrypto(seed="replaced")
    crypto.create_threshold_group(GROUP, 4, 2)
    _, entries = shared_batch_with_kept_bytes(crypto)
    victim = entries[1]
    forged_record = dataclasses.replace(victim.record, order_index=999)
    for forged in (
        dataclasses.replace(victim, record=forged_record),
        dataclasses.replace(victim, proof=victim.proof[::-1]),
        dataclasses.replace(victim, index=0),
    ):
        assert getattr(forged, encoding._ENTRY, None) is None
        assert encode(forged) == encode(from_scratch(forged)) != encode(victim)
    assert getattr(forged_record, encoding._ENTRY, None) is None
    assert digest(forged_record) != digest(victim.record)
    same = dataclasses.replace(victim)
    assert getattr(same, encoding._ENTRY, None) is None and encode(same) == encode(victim)


@pytest.mark.parametrize("selection", [
    slice(None), slice(0, 1), slice(1, 3), slice(3, None), slice(0, 0),
])
def test_a_share_with_kept_entry_bytes_encodes_as_one_built_from_scratch(selection):
    crypto = FastCrypto(seed="bytes")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = shared_batch_with_kept_bytes(crypto)
    for index in (1, 2, 3):
        share = BatchDeliveryShare(
            f"replica:{index}", batch,
            crypto.threshold_sign_share(GROUP, index, batch), entries[selection],
        )
        scratch = BatchDeliveryShare(
            share.sender, dataclasses.replace(batch), dataclasses.replace(share.share),
            tuple(from_scratch(entry) for entry in share.entries),
        )
        assert encode(share) == encode(scratch)
        assert digest(share) == digest(scratch)


def test_forgeries_beside_the_shared_batch_are_rejected_entry_by_entry():
    """A Byzantine replica holds the honest shared batch and sends a
    forged record and a forged proof beside it, under its valid share."""
    crypto = FastCrypto(seed="beside")
    crypto.create_threshold_group(GROUP, 4, 2)
    batch, entries = shared_batch_with_kept_bytes(crypto)
    forged_record = dataclasses.replace(
        entries[1], record=dataclasses.replace(entries[1].record, payload=("reading", 666))
    )
    forged_proof = dataclasses.replace(entries[2], proof=entries[1].proof)
    byzantine = (entries[0], forged_record, forged_proof, entries[3])
    endpoint, released = collect_at_endpoint(crypto, batch, byzantine, entries)
    assert released == [1, 2, 3, 4]
    assert endpoint.collector.rejected_entries == 2
    assert forged_record.record not in endpoint.released
    # ... and against the cached signature
    endpoint, released = collect_at_endpoint(crypto, batch, entries[:1])
    assert endpoint.receive(3, batch, byzantine) == [4]
    assert endpoint.collector.rejected_entries == 2
    assert endpoint.receive(4, batch, entries) == [2, 3]


def test_a_forging_replica_is_rejected_at_proxy_and_hmi_in_a_run():
    deployment = SpireDeployment(SpireOptions(**BASE))
    byzantine = deployment.replicas[0]
    honest_send = byzantine.transport.send

    def forging_send(target, payload, **kwargs):
        if isinstance(payload, BatchDeliveryShare):
            first = payload.entries[0]
            forged = dataclasses.replace(
                first, record=dataclasses.replace(first.record, order_index=10**6)
            )
            payload = dataclasses.replace(payload, entries=(forged,) + payload.entries[1:])
        return honest_send(target, payload, **kwargs)

    byzantine.transport.send = forging_send
    deployment.start()
    deployment.run_for(RUN_MS)
    honest = run_deployment()
    for endpoint, reference in (
        (deployment.hmis[0], honest.hmis[0]), (deployment.proxy, honest.proxy),
    ):
        assert endpoint.collector.rejected_entries > 0
        assert endpoint.collector.verified == reference.collector.verified > 0
    assert sorted(deployment.hmis[0].view) == sorted(deployment.grid.substations)
