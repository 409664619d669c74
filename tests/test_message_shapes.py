"""A valid signer's ill-shaped message is dropped before protocol code.

A compromised replica holds a valid key, so it can sign any object in
any field of its own messages. Every wire message's shape is decided by
one check generated from its dataclass annotations
(``repro.crypto.schema``), which the dispatcher runs before a handler
and which nested payloads are opened with (``is_a``). The rows below are
messages that once raised out of a correct replica's run; the fuzzer
builds the rest from the same annotations.
"""

import dataclasses
import typing
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpireDeployment, SpireOptions
from repro.crypto import FastCrypto, Signature
from repro.crypto.schema import is_a
from repro.pbft import PbftConfig, PbftNode
from repro.prime import LoggingApp
from repro.prime.messages import (
    CheckpointMsg,
    OrderedReply,
    PoAck,
    Pong,
    PoRequest,
    PoSummary,
    PrePrepare,
    ReconReply,
    StateReply,
    Suspect,
)
from repro.replication.messages import SignedMessage
from repro.simnet import LinkSpec, Network, Simulator

SIGNER = "replica:1"


def _signed(crypto, payload, signer=SIGNER):
    return SignedMessage(payload, crypto.sign(signer, payload))


def _prime_replica():
    """``replica:0`` of a LAN deployment 1,500 ms into its run."""
    deployment = SpireDeployment(SpireOptions.lan(seed=3, num_substations=2))
    deployment.start()
    deployment.run_for(1500)
    return deployment.replicas[0], deployment.crypto


#: name -> (message a correct ``replica:1`` never builds, awaiting state)
ROWS = {
    "recon-reply-request-not-signed": (
        lambda c, r: ReconReply(SIGNER, 5, ()), False),
    "recon-reply-int-origin": (
        lambda c, r: ReconReply(SIGNER, _signed(c, PoRequest(7, 1, ())), ()), False),
    "recon-reply-int-acks": (
        lambda c, r: ReconReply(SIGNER, _signed(c, PoRequest(f"{SIGNER}#0", 1, ())), 7),
        False),
    "ordered-reply-int-pre-prepare": (
        lambda c, r: OrderedReply(SIGNER, r.last_executed_seq + 5, 5, ()), False),
    "ordered-reply-str-seq": (
        lambda c, r: OrderedReply(
            SIGNER, "9", _signed(c, PrePrepare(SIGNER, 0, 9, ())), ()
        ), False),
    "checkpoint-str-seq": (lambda c, r: CheckpointMsg(SIGNER, "9", "d"), False),
    "checkpoint-none-seq": (lambda c, r: CheckpointMsg(SIGNER, None, "d"), False),
    "po-request-str-po-seq": (lambda c, r: PoRequest(f"{SIGNER}#0", "1", ()), False),
    "po-ack-str-po-seq": (lambda c, r: PoAck(SIGNER, f"{SIGNER}#0", "1", "d"), False),
    "po-summary-str-summary-seq": (lambda c, r: PoSummary(SIGNER, "1", ()), False),
    "suspect-str-view": (lambda c, r: Suspect(SIGNER, "1", "tat"), False),
    "pong-str-sent-at": (lambda c, r: Pong(SIGNER, 1, "late"), False),
    "state-reply-str-checkpoint-seq": (
        lambda c, r: StateReply(SIGNER, "9", None, (), 0), True),
}


@pytest.mark.parametrize("case", sorted(ROWS))
def test_an_ill_typed_field_from_a_valid_signer_is_dropped(case):
    replica, crypto = _prime_replica()
    build, awaiting_state = ROWS[case]
    payload = build(crypto, replica)
    replica.awaiting_state = awaiting_state
    kind = payload.__class__
    before = replica.dispatcher.counts.get(kind)
    replica.runtime.receive_unwrapped(_signed(crypto, payload))
    assert replica.dispatcher.counts.get(kind) == before


# ----------------------------------------------------------------------
# The fuzzer: one field of a well-shaped message replaced
# ----------------------------------------------------------------------
def _pbft_node():
    simulator = Simulator(seed=3)
    network = Network(simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1))
    crypto = FastCrypto(seed="pbft/3")
    config = PbftConfig(tuple(f"replica:{i}" for i in range(4)), num_faults=1)
    nodes = [
        PbftNode(name, simulator, network, config, crypto, LoggingApp())
        for name in config.replicas
    ]
    for node in nodes:
        node.start()
    simulator.run_for(500)
    return nodes[0], crypto


_TARGETS = {}


def _target(protocol):
    """One replica per protocol, shared by every example: each message
    the fuzzer sends is dropped, so none changes what the next meets."""
    if protocol not in _TARGETS:
        _TARGETS[protocol] = _prime_replica() if protocol == "prime" else _pbft_node()
    return _TARGETS[protocol]


def _valid(hint):
    """A well-shaped value of ``hint``, its strings naming the signer."""
    if hint is Any or isinstance(hint, typing.TypeVar):
        return ("any", 1)
    if hint in (str, int, float, bool, bytes):
        return {str: SIGNER, int: 1, float: 1.0, bool: True, bytes: b"m"}[hint]
    args = typing.get_args(hint)
    base = typing.get_origin(hint) or hint
    if dataclasses.is_dataclass(base):  # SignedMessage[PoAck] binds its payload
        bound = dict(zip(getattr(base, "__parameters__", ()), args))
        hints = {name: bound.get(h, h) for name, h in typing.get_type_hints(base).items()}
        return base(**{f.name: _valid(hints[f.name]) for f in dataclasses.fields(base)})
    if base is typing.Union:  # Optional[X]
        return _valid(args[0])
    if args[-1] is Ellipsis:
        return (_valid(args[0]),)
    return tuple(_valid(arg) for arg in args)


#: encodable values of many classes, so a valid signer can sign them
_PLAIN = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.binary(max_size=4),
    st.lists(st.integers(), max_size=2), st.tuples(st.text(max_size=3)),
    st.just(Signature(SIGNER, 1)),
)


def _accepts(hint):
    """The classes a field annotated ``hint`` may hold."""
    if hint is float:
        return (float, int)
    if typing.get_origin(hint) is typing.Union:
        return tuple(cls for arg in typing.get_args(hint) for cls in _accepts(arg))
    if hint is type(None):
        return (type(None),)
    return (typing.get_origin(hint) or hint,)


def _wrong_class(data, hint):
    accepted = _accepts(hint)
    return data.draw(_PLAIN.filter(lambda value: value.__class__ not in accepted))


def _mutations(hint):
    """The ways to spoil a field annotated ``hint``, each ``data -> value``."""
    found = {"wrong class": lambda data: _wrong_class(data, hint)}
    if type(None) not in _accepts(hint):
        found["None"] = lambda data: None
    if hint is int:
        found["bool for int"] = lambda data: True
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[-1] is Ellipsis and args[0] is not Any:
        item = args[0]
        found["wrong-class element"] = lambda data: (_valid(item), _wrong_class(data, item))
        if typing.get_origin(item) is tuple:
            found["wrong arity"] = lambda data: (_valid(item) + (1,),)
    return found


def _registered(protocol):
    node, _ = _target(protocol)
    return sorted(node.dispatcher._routes, key=lambda kind: kind.__name__)


@pytest.mark.parametrize("protocol", ["prime", "pbft"])
def test_every_registered_kind_has_a_well_shaped_sample(protocol):
    # the fuzzer spoils one field of these; each must pass as built
    kinds = _registered(protocol)
    assert len(kinds) == (18 if protocol == "prime" else 9)
    for kind in kinds:
        assert is_a(_valid(kind), kind), kind


@pytest.mark.parametrize("protocol", ["prime", "pbft"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_valid_signer_with_one_spoiled_field_is_dropped(protocol, data):
    node, crypto = _target(protocol)
    kind = data.draw(st.sampled_from(_registered(protocol)), label="kind")
    hints = typing.get_type_hints(kind)
    fields = [f.name for f in dataclasses.fields(kind) if hints[f.name] is not Any]
    field = data.draw(st.sampled_from(fields), label="field")
    mutations = _mutations(hints[field])
    how = data.draw(st.sampled_from(sorted(mutations)), label="mutation")
    payload = dataclasses.replace(_valid(kind), **{field: mutations[how](data)})
    before = node.dispatcher.counts.get(kind)
    node.runtime.receive_unwrapped(_signed(crypto, payload))
    assert node.dispatcher.counts.get(kind) == before
