"""Tests for the canonical encoding."""

import copy
import dataclasses
import gc
import importlib
import json
import pickle
import weakref
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpireDeployment, SpireOptions
from repro.core.update import BatchDeliveryRecord, BatchDeliveryShare, BatchEntry, DeliveryRecord
from repro.crypto import EncodingError, FastCrypto, Signature, ThresholdShare, digest, encode
from repro.crypto import encoding, merkle, provider
from repro.crypto.encoding import digest_bytes, encode_cached
from repro.prime.messages import (
    ClientUpdate,
    PoSummary,
    PrePrepare,
    client_update_body,
    sign_client_update,
    verify_client_update,
)
from repro.prime.ordering import PRIME_AGREEMENT, slot_digest
from repro.replication import AgreementSpec
from repro.replication.messages import SignedMessage
from repro.spines import lan_topology
from repro.spines.messages import OverlayData


@dataclass(frozen=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True)
class Named:
    x: int
    y: int


def test_scalars_encode():
    for value in (None, True, False, 0, -5, 10 ** 40, 1.5, "text", b"bytes"):
        assert isinstance(encode(value), bytes)


def test_deterministic():
    value = {"b": [1, 2.5, "x"], "a": (True, None)}
    assert encode(value) == encode({"a": (True, None), "b": [1, 2.5, "x"]})


def test_distinct_scalars_distinct_encodings():
    values = [None, True, False, 0, 1, -1, 0.0, 1.0, "", "0", b"", b"0", (), {}]
    encodings = [encode(v) for v in values]
    assert len(set(encodings)) == len(encodings)


def test_int_vs_string_of_int_differ():
    assert encode(42) != encode("42")


def test_nested_structure_differs_from_flat():
    assert encode([1, [2, 3]]) != encode([1, 2, 3])
    assert encode(((1,), 2)) != encode((1, (2,)))


def test_dict_key_order_irrelevant_value_order_not():
    assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})
    assert encode({"a": 1, "b": 2}) != encode({"a": 2, "b": 1})


def test_frozenset_is_order_free():
    assert encode(frozenset([1, 2, 3])) == encode(frozenset([3, 1, 2]))


def test_dataclass_encodes_fields():
    assert encode(Point(1, 2)) != encode(Point(2, 1))


def test_dataclass_class_name_matters():
    assert encode(Point(1, 2)) != encode(Named(1, 2))


def test_unsupported_type_raises():
    with pytest.raises(EncodingError):
        encode(object())


def test_unsupported_nested_type_raises():
    with pytest.raises(EncodingError):
        encode({"k": object()})


def test_digest_is_hex_sha256():
    value = ("a", 1)
    d = digest(value)
    assert len(d) == 64
    assert d == digest(("a", 1))
    assert d != digest(("a", 2))


def test_list_and_tuple_equivalent():
    # lists and tuples are interchangeable containers on the wire
    assert encode([1, 2]) == encode((1, 2))


def test_encode_cached_matches_encode():
    value = Point(3, 4)
    assert encode_cached(value) == encode(value)
    # second call hits the cache and must return identical bytes
    assert encode_cached(value) == encode(value)


def test_encode_cached_distinguishes_objects():
    assert encode_cached(Point(1, 2)) != encode_cached(Point(9, 9))


def test_float_precision_preserved():
    assert encode(0.1) != encode(0.1000000001)


def test_bool_not_confused_with_int():
    assert encode(True) != encode(1)
    assert encode(False) != encode(0)


def test_deeply_nested_roundtrip_determinism():
    value = {"outer": [{"inner": (1, 2, frozenset(["x"]))}, Point(0, 0)]}
    assert encode(value) == encode(value)


# --- what is derived from a message lives, and dies, with the message ---


def _authenticate_every_way(message):
    """Encode, digest, sign + verify and MAC ``message``; the provider is
    returned so it outlives the message."""
    crypto = FastCrypto(seed="lifetime")
    assert encode_cached(message) == encode(message)
    assert digest(message) == sha256(encode(message)).hexdigest()
    assert crypto.verify(crypto.sign("a", message), message)
    assert crypto.check_mac("b", "a", message, crypto.mac("a", "b", message))
    return crypto


def _signed_message():
    return SignedMessage(Point(1, 2), Signature("a", "tag"))


def _overlay_datagram():
    return OverlayData("a", ("b",), 1, Point(3, 4))


def _summary(seq):
    summary = PoSummary("r1", seq, (("r1#0", seq),))
    return SignedMessage(summary, Signature("r1", f"tag{seq}"))


def _proposal_with_its_digest():
    """A PrePrepare on which the slot digest has been derived."""
    proposal = PrePrepare("r0", 0, 7, (_summary(1), _summary(2)))
    assert PRIME_AGREEMENT.digest_of(proposal) == slot_digest(7, proposal.matrix)
    return proposal


#: the provider client updates here are signed through; a provider
#: verifies only signers that signed through it
UPDATE_CRYPTO = FastCrypto(seed="lifetime")


def _update_with_its_body():
    """A ClientUpdate on which the signed body is kept."""
    update = sign_client_update(UPDATE_CRYPTO, "c", 3, Point(5, 6))
    assert _kept(update) == client_update_body("c", 3, Point(5, 6))
    return update


def _entry_walked_inside_a_share():
    """A BatchEntry that kept its bytes when a share carrying it was encoded."""
    record = DeliveryRecord("status", "c", 1, 4, Point(7, 8))
    entry = BatchEntry(0, record, ("ab" * 32,))
    share = BatchDeliveryShare(
        "r1", BatchDeliveryRecord("r1#0", 1, "cd" * 32, 1, 4), ThresholdShare("g", 1, "v"), (entry,)
    )
    assert getattr(entry, encoding._ENTRY, None) is None
    encoded = encode(share)
    assert getattr(entry, encoding._ENTRY)[0] in encoded
    return entry


def _kept(message):
    """What ``derived`` keeps on ``message``; None when nothing is."""
    return encoding.derived(message, lambda _: None)


MESSAGES = [
    _signed_message, _overlay_datagram, _proposal_with_its_digest, _update_with_its_body,
    _entry_walked_inside_a_share,
]


@pytest.mark.parametrize("build", MESSAGES)
def test_authenticated_message_dies_with_its_last_reference(build):
    message = build()
    crypto = _authenticate_every_way(message)
    ref = weakref.ref(message)
    del message
    gc.collect()
    assert ref() is None, "something still pins an authenticated message"
    del crypto


@pytest.mark.parametrize("build, change", [
    (_signed_message, {"payload": Point(9, 9)}),
    (_overlay_datagram, {"payload": Point(9, 9)}),
    (_overlay_datagram, {"dests": ("b", "mallory")}),
    (_proposal_with_its_digest, {"matrix": (_summary(1), _summary(9))}),
    (_update_with_its_body, {"payload": Point(9, 9)}),
    (_entry_walked_inside_a_share, {"proof": ("ef" * 32,)}),
    (_entry_walked_inside_a_share, {"record": DeliveryRecord("status", "c", 1, 5, Point(7, 8))}),
])
def test_replaced_message_is_encoded_afresh(build, change):
    """The tamper path of ``FailureInjector.corrupt_payload`` and
    ``attacks/overlay_attacks.py``: a tampered copy never inherits the
    victim's bytes, digest, signature or link MAC."""
    victim = build()
    crypto = _authenticate_every_way(victim)
    signature, tag = crypto.sign("a", victim), crypto.mac("a", "b", victim)
    tampered = dataclasses.replace(victim, **change)
    assert encode_cached(tampered) == encode(tampered) != encode_cached(victim)
    assert digest(tampered) != digest(victim)
    assert not crypto.verify(signature, tampered)
    assert not crypto.check_mac("a", "b", tampered, tag)
    # nor what was derived from the victim: it starts with nothing kept
    assert _kept(tampered) is None
    # an unchanged copy is a new object too, and agrees with the original
    same = dataclasses.replace(victim)
    assert same == victim and encode_cached(same) == encode_cached(victim)
    assert crypto.verify(signature, same) and crypto.check_mac("a", "b", same, tag)
    assert _kept(same) is None


@dataclass(frozen=True)
class Carried:
    """Opts in to what ``BatchEntry`` does: many envelopes carry one."""

    keeps_nested_encoding = True

    index: int
    point: Point


def test_a_class_that_keeps_its_nested_encoding_is_walked_once(monkeypatch):
    encode(Point(0, 0))
    walks = []
    real_walk = encoding._DISPATCH[Point]
    monkeypatch.setitem(
        encoding._DISPATCH, Point, lambda value, out: walks.append(value) or real_walk(value, out)
    )
    carried = [Carried(i, Point(i, i)) for i in range(3)]
    for selection in (carried, carried[1:], carried[:1], carried[::-1]):
        from_scratch = encode(
            ("envelope", [Carried(c.index, Point(c.index, c.index)) for c in selection])
        )
        del walks[:]
        assert encode(("envelope", selection)) == from_scratch
        assert len(walks) == (3 if selection is carried else 0)
    for one in carried:
        copied = dataclasses.replace(one)
        assert getattr(copied, encoding._ENTRY, None) is None
        assert encode(copied) == encode_cached(one)


def test_copy_of_an_update_verifies_on_a_body_derived_afresh():
    crypto = UPDATE_CRYPTO
    update = _update_with_its_body()
    for copied in (dataclasses.replace(update), copy.copy(update)):
        assert verify_client_update(crypto, copied)
        assert _kept(copied) == _kept(update)
    assert not verify_client_update(crypto, dataclasses.replace(update, client_seq=4))


@pytest.mark.parametrize("build", MESSAGES)
def test_copies_agree_with_the_original(build):
    """``copy.copy`` and a pickle round trip (what ``repro.parallel`` does
    to results) may or may not carry the entry along; either way they
    hold the same field values, so they must yield the same bytes."""
    message = build()
    _authenticate_every_way(message)
    for clone in (copy.copy(message), pickle.loads(pickle.dumps(message))):
        assert clone is not message and clone == message
        assert encode_cached(clone) == encode(clone) == encode(message)
        assert digest(clone) == digest(message)
        assert _kept(clone) in (None, _kept(message))


def test_entry_is_invisible_to_dataclass_machinery():
    for build in (_signed_message, _proposal_with_its_digest, _update_with_its_body):
        message, pristine = build(), dataclasses.replace(build())
        _authenticate_every_way(message)
        assert getattr(pristine, encoding._ENTRY, None) is None
        assert message == pristine and hash(message) == hash(pristine)
        assert repr(message) == repr(pristine)
        assert dataclasses.fields(message) == dataclasses.fields(pristine)
        assert dataclasses.asdict(message) == dataclasses.asdict(pristine)
        assert encoding._ENTRY not in dataclasses.asdict(message)


def test_two_providers_never_share_a_tag():
    message = _signed_message()
    one, other = FastCrypto(seed="one"), FastCrypto(seed="other")
    signatures = [crypto.sign("a", message) for crypto in (one, other, one, other)]
    assert signatures[0] == signatures[2] != signatures[1] == signatures[3]
    assert one.verify(signatures[0], message) and other.verify(signatures[1], message)
    assert not one.verify(signatures[1], message)
    assert not other.verify(signatures[0], message)
    for crypto in (one, other):
        crypto.create_threshold_group("g", 4, 2)
    shares = [one.threshold_sign_share("g", index, message) for index in (1, 2)]
    assert one.threshold_verify(one.threshold_combine("g", message, shares), message)
    assert other.threshold_combine("g", message, shares) is None


def test_digest_of_an_uncacheable_value_encodes_it_once(monkeypatch):
    calls = []
    real_encode = encoding.encode
    monkeypatch.setattr(
        encoding, "encode", lambda value: calls.append(value) or real_encode(value)
    )
    value = (1, "a")
    assert digest(value) == sha256(real_encode(value)).hexdigest()
    assert calls == [value]


def _container_sizes(crypto):
    """``len()`` of every module-level container of the crypto modules
    and of every container attribute of the provider."""
    sizes = {}
    for module in (encoding, provider, merkle):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[f"{module.__name__}.{name}"] = len(value)
    for name, value in vars(crypto).items():
        if hasattr(value, "__len__") and not isinstance(value, (str, bytes)):
            sizes[f"FastCrypto.{name}"] = len(value)
    return sizes


def test_crypto_tables_are_flat_in_run_length():
    """ROADMAP 3(c), first leg: what the crypto layer keeps is bounded by
    message classes, principals and links — never by how long a
    deployment has run."""
    deployment = SpireDeployment(
        SpireOptions.lan(
            seed=3, num_substations=2, observability=False,
            checkpoint_interval_seqs=10,
        ),
        topology=lan_topology(1),
    )
    deployment.start()
    horizon_ms = 2000.0
    deployment.run_for(horizon_ms)
    assert min(r.stable_seq for r in deployment.replicas) > 0
    early = _container_sizes(deployment.crypto)
    deployment.run_for(2 * horizon_ms)
    late = _container_sizes(deployment.crypto)
    assert {name.rpartition(".")[2] for name, size in late.items() if size} <= {
        "_DISPATCH", "_secrets", "_link_keys", "_groups",
    }
    assert late == early


# --- the encoding contract: golden vectors and injectivity --------------

#: the modules whose dataclasses travel, are signed or are MAC'd
MESSAGE_MODULES = (
    "repro.crypto.provider",
    "repro.replication.messages",
    "repro.prime.messages",
    "repro.pbft.messages",
    "repro.core.update",
    "repro.spines.messages",
)
#: the two pure envelopes: ``payload`` is encoded by digest
ENVELOPES = {"SignedMessage", "OverlayData"}
VECTORS_FILE = Path(__file__).with_name("encoding_vectors.json")


def message_classes():
    found = {}
    for module_name in MESSAGE_MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if dataclasses.is_dataclass(value) and value.__module__ == module_name:
                found[name] = value
    return found


def golden_instances():
    """One instance of every message dataclass, by class name. Where a
    field is typed as an envelope (``SignedMessage``, ``OverlayData``)
    the instance holds a bare vote instead, or nothing: the vector of a
    non-envelope class must not depend on how envelopes are encoded, so
    that it can be held to the bytes recorded before envelopes were
    encoded by digest. :func:`nested_instances` has the real nestings."""
    from repro.core import update as core
    from repro.pbft import messages as pbft
    from repro.prime import messages as prime
    from repro.replication import messages as replication
    from repro.spines import messages as spines

    signature = Signature("replica:1", "a1b2")
    vote = prime.Commit("replica:2", 3, 17, "d" * 64)
    reading = core.StatusReading(
        "sub-1", 4, 372.5, (("kv", 13.8), ("mw", -2.25)), (("b1", True), ("b2", False))
    )
    command = core.BreakerCommand("sub-1", "b2", False, "hmi:0", reason="shed")
    update = prime.ClientUpdate("proxy:sub-1", 9, reading, signature)
    record = core.DeliveryRecord("status", "proxy:sub-1", 9, 41, reading)
    batch = core.BatchDeliveryRecord("replica:1#0", 6, "e" * 64, 2, 41)
    entry = core.BatchEntry(1, record, ("f" * 64, "0" * 64))
    share = provider.ThresholdShare("spire-masters", 2, "c3d4")
    prepared = prime.PreparedEntry(17, 3, "d" * 64, vote, (vote,))
    data = spines.OverlayData("replica:1", ("hmi:0", "proxy:sub-1"), 12, vote, 350, 88.5)
    instances = [
        signature,
        share,
        provider.ThresholdSignature("spire-masters", "e5f6"),
        prime.SignedMessage(vote, signature),
        prime.Prepare("replica:2", 3, 17, "d" * 64),
        vote,
        prepared,
        prime.NewView("replica:4", 4, (), ()),
        update,
        prime.PoRequest("replica:1#0", 6, (update,)),
        prime.PoAck("replica:2", "replica:1#0", 6, "a" * 64),
        prime.PoSummary("replica:2", 30, (("replica:1#0", 6), ("replica:2#1", 0)), 10, 1),
        prime.PrePrepare("replica:3", 3, 17, ()),
        prime.Suspect("replica:2", 3, "tat"),
        prime.ViewChange("replica:2", 4, 10, (), (prepared,)),
        prime.CheckpointMsg("replica:2", 10, "b" * 64),
        prime.Ping("replica:2", 5, 120.25),
        prime.Pong("replica:1", 5, 120.25),
        prime.ReconRequest("replica:2", "replica:1#0", 4, 6),
        prime.ReconReply("replica:1", vote, ()),
        prime.StateRequest("replica:5"),
        prime.StateReply("replica:1", 10, {"order": 41, "clients": (("proxy:sub-1", 9),)}, (), 3),
        pbft.ForwardedUpdate("replica:2", update),
        pbft.PbftPrePrepare("replica:3", 3, 17, (update,)),
        pbft.PbftCheckpoint("replica:2", 10, "b" * 64),
        pbft.PbftViewChange("replica:2", 4, 16, (prepared,)),
        replication.SlotFetch("replica:5", 11),
        replication.CertifiedSlot("replica:1", 17, vote, (), 20),
        reading,
        command,
        record,
        batch,
        entry,
        core.BatchDeliveryShare("replica:1", batch, share, (entry,)),
        core.UpdateSubmission((update,)),
        data,
        spines.OverlayIngress(vote),
        spines.OverlayForward(vote, "daemon:cc1", b"\x00\x01mac", 88.75),
        spines.OverlayDeliver(vote),
        spines.OverlayHello("daemon:cc1", 3, 90.0, b"\xfftag"),
    ]
    return {type(instance).__name__: instance for instance in instances}


def nested_instances():
    """The two envelopes and what is built from them, by vector name:
    a proposal matrix, the certificates a view change carries, an
    envelope in an envelope."""
    from repro.prime import messages as prime

    sign = FastCrypto(seed="vectors").sign

    def signed(sender, payload):
        return prime.SignedMessage(payload, sign(sender, payload))

    plain = golden_instances()
    summary = signed("replica:2", plain["PoSummary"])
    proposal = prime.PrePrepare("replica:3", 3, 17, (summary,))
    prepared = prime.PreparedEntry(
        17, 3, slot_digest(17, proposal.matrix), signed("replica:3", proposal),
        (signed("replica:2", plain["Prepare"]),),
    )
    view_change = prime.ViewChange(
        "replica:2", 4, 10, (signed("replica:2", plain["CheckpointMsg"]),), (prepared,)
    )
    reproposal = signed("replica:4", prime.PrePrepare("replica:4", 4, 17, (summary,)))
    new_view = prime.NewView(
        "replica:4", 4, (signed("replica:2", view_change),), (reproposal,)
    )
    return {
        "SignedMessage": plain["SignedMessage"],
        "OverlayData": plain["OverlayData"],
        "PrePrepare over a signed matrix": proposal,
        "ViewChange with its certificates": view_change,
        "NewView": new_view,
        "OverlayData around a signed NewView": dataclasses.replace(
            plain["OverlayData"], payload=signed("replica:4", new_view)
        ),
    }


VECTORS = json.loads(VECTORS_FILE.read_text())


def test_every_message_class_has_a_vector():
    assert set(golden_instances()) == set(message_classes())
    assert set(VECTORS["recorded_at_the_parent_of_pr_22"]) == (
        set(message_classes()) - ENVELOPES
    )
    assert set(VECTORS["envelopes_by_digest_recorded_in_pr_22"]) == set(nested_instances())


@pytest.mark.parametrize("name", sorted(set(golden_instances()) - ENVELOPES))
def test_non_envelope_encoding_is_what_it_was_before_envelopes_changed(name):
    expected = VECTORS["recorded_at_the_parent_of_pr_22"][name]
    assert encode(golden_instances()[name]).hex() == expected


@pytest.mark.parametrize("name", sorted(nested_instances()))
def test_envelope_encoding_vector(name):
    expected = VECTORS["envelopes_by_digest_recorded_in_pr_22"][name]
    assert encode(nested_instances()[name]).hex() == expected


def test_an_envelope_is_its_own_fields_and_its_childs_digest():
    vote, signature = golden_instances()["Commit"], Signature("replica:1", "a1b2")
    envelope = SignedMessage(vote, signature)
    assert encode(envelope) == (
        b"D\x00\x0dSignedMessage\x00\x00\x00\x02"
        b"s\x00\x00\x00\x07payload" + b"H" + digest_bytes(vote)
        + b"s\x00\x00\x00\x09signature" + encode(signature)
    )
    # a NewView is smaller than the one ViewChange it certifies with
    nested = nested_instances()
    assert len(encode(nested["NewView"])) < len(
        encode(nested["NewView"].view_changes[0].payload)
    )
    assert len(encode(nested["OverlayData around a signed NewView"])) == len(
        encode(nested["OverlayData"])
    )


# injectivity over nested messages, envelopes in envelopes included

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=6), st.binary(max_size=40),
)


def _messages(children):
    signatures = st.builds(Signature, st.text(max_size=3), st.text(max_size=3))
    return st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.builds(Point, children, children),
        st.builds(SignedMessage, children, signatures),
        st.builds(
            OverlayData, st.text(max_size=3), st.lists(st.text(max_size=3), max_size=2).map(tuple),
            st.integers(0, 9), children,
        ),
    )


nested_messages = st.recursive(_scalars, _messages, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(nested_messages, nested_messages)
def test_distinct_messages_encode_distinctly(a, b):
    if a != b:
        assert encode(a) != encode(b)
    elif type(a) is type(b) and repr(a) == repr(b):
        # equal and alike (``1 == True == 1.0`` are equal, not alike)
        assert encode(a) == encode(b)


@dataclass(frozen=True)
class _Inline:
    """What ``SignedMessage`` would be if ``payload`` were written in
    place: same class name on the wire, same fields."""

    payload: object
    signature: Signature


_Inline.__name__ = "SignedMessage"


@settings(max_examples=300, deadline=None)
@given(nested_messages, nested_messages, st.sampled_from(["", "H", "b"]))
def test_no_envelope_encoding_equals_a_non_envelope_one(child, other, prefix):
    """No value's own encoding starts with the digest tag, so a field
    written by digest is never taken for one written in place — not even
    for a payload that *is* the digest's bytes."""
    signature = Signature("a", "t")
    envelope = encode(SignedMessage(child, signature))
    candidates = (
        other, digest_bytes(child), prefix.encode() + digest_bytes(child),
        prefix + digest(child),
    )
    for payload in candidates:
        assert encode(_Inline(payload, signature)) != envelope
    assert encoding._DIGEST_TAG not in {encode(v)[:1] for v in (child, other)}


# a derived value cannot be carried onto other content, at any replica

from test_replication_agreement import side  # noqa: E402,F401  (a fixture)


def test_replaced_proposal_is_rejected_at_every_replica(side):
    """A Byzantine leader pairs an honestly prepared digest and its
    certificate with a proposal it replaced the content of — and signs
    it, so only the digest binding stands in the way."""
    spec = side.spec
    honest = side.pre_prepare(0, 5, side.proposal(5))
    honest_digest = spec.digest_of(honest.payload)  # now kept on the proposal
    replaced = dataclasses.replace(
        honest.payload, **{spec.proposal_field: side.proposal(6)}
    )
    assert spec.digest_of(replaced) == spec.digest(5, side.proposal(6)) != honest_digest
    entry = side.entry(
        pre_prepare=side.signed(side.leader(0), replaced), digest=honest_digest
    )
    stolen = SignedMessage(replaced, honest.signature)
    for node in side.cluster.nodes:
        assert not node.verify_signed(stolen)
        assert not node.view_manager.validate_prepared(entry, node.verify_signed)
        assert node.view_manager.validate_prepared(side.entry(), node.verify_signed)


def test_replaced_payload_and_forged_signature_are_rejected_at_every_replica(side):
    crypto = side.cluster.crypto
    update = sign_client_update(crypto, "client:x", 1, ("op", 1))
    assert all(verify_client_update(node.crypto, update) for node in side.cluster.nodes)
    replaced = dataclasses.replace(update, payload=("op", 2))
    for node in side.cluster.nodes:
        assert not verify_client_update(node.crypto, replaced)
        assert node.submit(replaced) is False
    # forged in place, on the very object whose body is kept and verified
    assert _kept(update) == client_update_body("client:x", 1, ("op", 1))
    object.__setattr__(update, "signature", Signature("client:x", "forged"))
    for node in side.cluster.nodes:
        assert not verify_client_update(node.crypto, update)
        assert node.submit(update) is False


def test_one_derivation_per_message_object_however_many_replicas_ask(side, monkeypatch):
    """Six replicas and every handler hold one proposal and one update
    object by reference: its slot digest is derived once, its body
    encoded once."""
    proposals, bodies = [], []
    derive_digest = AgreementSpec._derive_digest
    real_encode = encoding.encode

    def counting_derive(spec, pre_prepare):
        proposals.append(pre_prepare)
        return derive_digest(spec, pre_prepare)

    def counting_encode(value):
        if isinstance(value, tuple) and value[:1] == ("client-update",):
            bodies.append(value)
        return real_encode(value)

    monkeypatch.setattr(AgreementSpec, "_derive_digest", counting_derive)
    monkeypatch.setattr(encoding, "encode", counting_encode)
    cluster = side.cluster
    for i in range(8):
        cluster.submit(("op", i))
        cluster.simulator.run_for(30)
    cluster.simulator.run_for(500)
    assert all(len(node.app.log) == 8 for node in cluster.nodes)
    assert len(bodies) == 8 and len({body[2] for body in bodies}) == 8
    assert proposals and len({id(p) for p in proposals}) == len(proposals)
    # ... each of them an object all six replicas ordered through
    for proposal in proposals:
        holders = [node.slots.get(proposal.seq) for node in cluster.nodes]
        assert all(
            slot is not None and slot.ordered[2].payload is proposal for slot in holders
        )


def test_generated_encoders_are_charged_to_the_encoding_module():
    """The e2e ledger attributes time by file name; code compiled under
    any other name would read as unattributed."""
    encode(Point(1, 2))
    generated = encoding._DISPATCH[Point]
    assert generated.__code__.co_filename == encoding.__file__
    assert generated.__name__ == "_enc_Point"
