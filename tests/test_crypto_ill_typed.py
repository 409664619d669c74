"""A signature or message a Byzantine peer shaped is rejected, not raised on.

Every protocol message of Prime and of the PBFT baseline reaches
``CryptoProvider.verify`` straight off the wire, so the signature object,
its signer and the signed message are whatever the sender chose. Each
provider answers ``False`` for a signature that is not a ``Signature``, a
signer that is not a ``str`` and a message no encoder accepts, before any
key is looked up or derived.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpireDeployment, SpireOptions
from repro.crypto import (
    FastCrypto,
    RealCrypto,
    Signature,
    ThresholdShare,
    ThresholdSignature,
)
from repro.pbft import PbftConfig, PbftNode
from repro.prime import LoggingApp, sign_client_update
from repro.prime.messages import Ping
from repro.replication.messages import SignedMessage
from repro.replication.transport import OverlayTransport
from repro.simnet import LinkSpec, Network, Simulator
from repro.spines import SpinesOverlay
from repro.spines.topology import lan_topology


PROVIDERS = {
    "fast": FastCrypto(seed="ill-typed"),
    "real": RealCrypto(seed="ill-typed", bits=256),
}


def _tables(crypto):
    """What a provider keeps per principal."""
    return len(getattr(crypto, "_keys", ())), len(getattr(crypto, "_secrets", ()))


_not_str = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.binary(),
    st.lists(st.text(max_size=3), max_size=2), st.tuples(st.text(max_size=3)),
    st.sets(st.integers(), max_size=2),
)
_any_value = st.one_of(st.none(), st.integers(), st.text(max_size=8), st.lists(st.integers()))
ill_typed_signatures = st.one_of(
    st.builds(Signature, _not_str, _any_value),
    _any_value,
    st.builds(ThresholdShare, st.text(max_size=3), st.integers(), _any_value),
    st.builds(ThresholdSignature, st.text(max_size=3), _any_value),
)
unencodable_messages = st.one_of(
    st.builds(Ping, st.just("replica:0"), st.sets(st.integers(), min_size=1), st.floats()),
    st.sets(st.integers(), min_size=1),
    st.lists(st.builds(object), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=3), st.builds(bytearray), min_size=1, max_size=2),
)


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@settings(max_examples=60, deadline=None)
@given(signature=ill_typed_signatures, message=st.one_of(st.text(), unencodable_messages))
def test_ill_typed_signature_is_rejected(name, signature, message):
    crypto = PROVIDERS[name]
    before = _tables(crypto)
    assert crypto.verify(signature, message) is False
    assert crypto.verify_batch([signature], [message]) == [False]
    assert _tables(crypto) == before


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@settings(max_examples=60, deadline=None)
@given(message=unencodable_messages, signer=st.sampled_from(["replica:0", "stranger"]))
def test_unencodable_message_is_rejected(name, message, signer):
    crypto = PROVIDERS[name]
    signature = crypto.sign("replica:0", Ping("replica:0", 1, 0.0))
    before = _tables(crypto)
    assert crypto.verify(Signature(signer, signature.value), message) is False
    assert _tables(crypto) == before


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@settings(max_examples=60, deadline=None)
@given(
    signer=st.text(max_size=8).map("made-up:".__add__),
    value=st.one_of(st.integers(min_value=0), st.text(max_size=64)),
    message=st.one_of(
        st.text(max_size=8),
        st.builds(Ping, st.just("replica:0"), st.integers(), st.just(0.0)),
    ),
)
def test_a_made_up_signer_is_rejected_and_not_remembered(name, signer, value, message):
    # well typed throughout, but nobody ever signed as ``signer`` here:
    # verify looks its key up, finds none and adds none
    crypto = PROVIDERS[name]
    before = _tables(crypto)
    assert crypto.verify(Signature(signer, value), message) is False
    assert crypto.verify_batch([Signature(signer, value)], [message]) == [False]
    assert _tables(crypto) == before


# --- end to end: one forged envelope on a one-daemon LAN ---------------

def _bad_envelopes(crypto, sender):
    """The forged envelopes ``sender`` puts on the wire, by name."""
    ping = Ping(sender, 1, 0.0)
    return {
        "unhashable-signer": SignedMessage(ping, Signature(["x"], 5)),
        "int-signer": SignedMessage(ping, Signature(3, "x")),
        "none-signer": SignedMessage(ping, Signature(None, "x")),
        "bytes-signer": SignedMessage(ping, Signature(b"r1", "x")),
        "not-a-signature": SignedMessage(ping, "not-a-signature"),
        # well typed: the sender's genuine value under a name nobody signs as
        "made-up-signer": SignedMessage(
            ping, Signature(f"{sender}/made-up", crypto.sign(sender, ping).value)
        ),
        # a genuine signature over the same ping, with a set as its nonce
        "unencodable": SignedMessage(Ping(sender, {1, 2}, 0.0), crypto.sign(sender, ping)),
    }


BAD_KINDS = sorted(_bad_envelopes(FastCrypto(), "replica:0"))


def _watch_dispatch(process, bad):
    """Record every dispatch of ``bad`` at ``process``."""
    seen = []
    dispatch = process._dispatch

    def watched(signed):
        if signed is bad:
            seen.append(signed)
        dispatch(signed)

    process._dispatch = watched
    return seen


@pytest.mark.parametrize("crypto_kind", ["fast", "real"])
@pytest.mark.parametrize("kind", BAD_KINDS)
def test_prime_run_survives_a_forged_envelope(kind, crypto_kind):
    deployment = SpireDeployment(
        SpireOptions.lan(
            seed=1, num_substations=2, placement={"lan0": 6}, crypto_kind=crypto_kind,
        ),
        topology=lan_topology(1),
    )
    deployment.start()
    deployment.run_for(300)
    sender, receiver = deployment.replicas[0], deployment.replicas[1]
    bad = _bad_envelopes(deployment.crypto, sender.name)[kind]
    seen = _watch_dispatch(receiver, bad)
    tables = _tables(deployment.crypto)
    verified = deployment.hmis[0].collector.verified
    sender.transport.send(receiver.name, bad)
    deployment.run_for(400)
    assert seen == []
    assert _tables(deployment.crypto) == tables
    assert deployment.hmis[0].collector.verified > verified


@pytest.mark.parametrize("crypto_kind", ["fast", "real"])
@pytest.mark.parametrize("kind", BAD_KINDS)
def test_pbft_run_survives_a_forged_envelope(kind, crypto_kind):
    simulator = Simulator(seed=1)
    network = Network(simulator, LinkSpec(latency_ms=0.2, jitter_ms=0.05))
    crypto = (
        FastCrypto(seed="pbft/1") if crypto_kind == "fast"
        else RealCrypto(seed="pbft/1", bits=256)
    )
    overlay = SpinesOverlay(simulator, network, lan_topology(1), mode="shortest", crypto=crypto)
    names = tuple(f"replica:{i}" for i in range(4))
    config = PbftConfig(names, num_faults=1)
    nodes = [
        PbftNode(name, simulator, network, config, crypto, LoggingApp()) for name in names
    ]
    for node in nodes:
        node.transport = OverlayTransport(overlay.attach(node, "lan0"))
        node.start()

    def submit(seq):
        nodes[1].submit(sign_client_update(crypto, "client:c", seq, ("op", seq)))
        simulator.run_for(50)

    submit(1)
    sender, receiver = nodes[0], nodes[1]
    bad = _bad_envelopes(crypto, sender.name)[kind]
    seen = _watch_dispatch(receiver, bad)
    tables = _tables(crypto)
    sender.transport.send(receiver.name, bad)
    submit(2)
    simulator.run_for(500)
    assert seen == []
    assert _tables(crypto) == tables
    assert all(len(node.app.log) == 2 for node in nodes)
