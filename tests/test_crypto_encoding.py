"""Tests for the canonical encoding."""

import copy
import dataclasses
import gc
import pickle
import weakref
from dataclasses import dataclass
from hashlib import sha256

import pytest

from repro.core import SpireDeployment, SpireOptions
from repro.crypto import EncodingError, FastCrypto, Signature, digest, encode
from repro.crypto import encoding, merkle, provider
from repro.crypto.encoding import encode_cached
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


@pytest.mark.parametrize("build", [_signed_message, _overlay_datagram])
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
    # an unchanged copy is a new object too, and agrees with the original
    same = dataclasses.replace(victim)
    assert same == victim and encode_cached(same) == encode_cached(victim)
    assert crypto.verify(signature, same) and crypto.check_mac("a", "b", same, tag)


@pytest.mark.parametrize("build", [_signed_message, _overlay_datagram])
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


def test_entry_is_invisible_to_dataclass_machinery():
    message, pristine = _signed_message(), _signed_message()
    _authenticate_every_way(message)
    assert message == pristine and hash(message) == hash(pristine)
    assert repr(message) == repr(pristine)
    assert [f.name for f in dataclasses.fields(message)] == ["payload", "signature"]
    assert dataclasses.asdict(message) == dataclasses.asdict(pristine)


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
