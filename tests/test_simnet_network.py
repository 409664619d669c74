"""Unit tests for the network model."""

import dataclasses

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import SpireDeployment, SpireOptions
from repro.crypto.encoding import digest
from repro.simnet import LinkSpec, Network, Process, Simulator


class Sink(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((self.simulator.now, src, payload))


@pytest.fixture
def net():
    sim = Simulator(seed=1)
    network = Network(sim, LinkSpec(latency_ms=2.0))
    a = Sink("a", sim, network)
    b = Sink("b", sim, network)
    return sim, network, a, b


def test_basic_delivery(net):
    sim, network, a, b = net
    a.send("b", "hello")
    sim.run()
    assert len(b.received) == 1
    assert b.received[0][1] == "a"
    assert b.received[0][2] == "hello"


def test_latency_applied(net):
    sim, network, a, b = net
    a.send("b", "x")
    sim.run()
    assert b.received[0][0] == pytest.approx(2.0)


def test_jitter_bounded():
    sim = Simulator(seed=3)
    network = Network(sim, LinkSpec(latency_ms=2.0, jitter_ms=1.0))
    a = Sink("a", sim, network)
    b = Sink("b", sim, network)
    for _ in range(50):
        a.send("b", "x")
    sim.run()
    for at, _, _ in b.received:
        assert 2.0 <= at < 3.0


def test_loss_drops_fraction():
    sim = Simulator(seed=3)
    network = Network(sim, LinkSpec(latency_ms=1.0, loss=0.5))
    a = Sink("a", sim, network)
    b = Sink("b", sim, network)
    for _ in range(400):
        a.send("b", "x")
    sim.run()
    assert 100 < len(b.received) < 300
    assert network.stats.dropped_loss == 400 - len(b.received)


def test_per_link_spec_overrides_default(net):
    sim, network, a, b = net
    network.set_link("a", "b", LinkSpec(latency_ms=10.0))
    a.send("b", "x")
    sim.run()
    assert b.received[0][0] == pytest.approx(10.0)


def test_symmetric_link_spec(net):
    sim, network, a, b = net
    network.set_link("a", "b", LinkSpec(latency_ms=10.0), symmetric=True)
    b.send("a", "x")
    sim.run()
    assert a.received[0][0] == pytest.approx(10.0)


def test_asymmetric_link_spec(net):
    sim, network, a, b = net
    network.set_link("a", "b", LinkSpec(latency_ms=10.0), symmetric=False)
    b.send("a", "x")
    sim.run()
    assert a.received[0][0] == pytest.approx(2.0)  # reverse stays default


def test_bandwidth_serialization_queues_messages():
    sim = Simulator(seed=1)
    # 1 Mbps -> 1000 bytes take 8 ms to serialize
    network = Network(sim, LinkSpec(latency_ms=1.0, bandwidth_mbps=1.0))
    a = Sink("a", sim, network)
    b = Sink("b", sim, network)
    a.send("b", "one", size_bytes=1000)
    a.send("b", "two", size_bytes=1000)
    sim.run()
    first, second = (at for at, _, _ in b.received)
    assert first == pytest.approx(9.0)    # 8 serialize + 1 propagate
    assert second == pytest.approx(17.0)  # queued behind the first


def test_partition_blocks_and_heals(net):
    sim, network, a, b = net
    heal = network.partition(["a"], ["b"])
    a.send("b", "lost")
    sim.run()
    assert b.received == []
    assert network.stats.dropped_partition == 1
    heal()
    a.send("b", "through")
    sim.run()
    assert len(b.received) == 1


def test_partition_is_bidirectional(net):
    sim, network, a, b = net
    network.partition(["a"], ["b"])
    b.send("a", "x")
    sim.run()
    assert a.received == []


def test_filter_can_drop(net):
    sim, network, a, b = net
    network.add_filter(lambda s, d, p: None if p == "bad" else p)
    a.send("b", "bad")
    a.send("b", "good")
    sim.run()
    assert [p for _, _, p in b.received] == ["good"]
    assert network.stats.dropped_filter == 1


def test_filter_can_rewrite(net):
    sim, network, a, b = net
    remove = network.add_filter(lambda s, d, p: p.upper())
    a.send("b", "x")
    sim.run()
    remove()
    a.send("b", "y")
    sim.run()
    assert [p for _, _, p in b.received] == ["X", "y"]


def test_degrade_link_adds_delay_and_restores(net):
    sim, network, a, b = net
    restore = network.degrade_link("a", "b", extra_delay_ms=20.0)
    a.send("b", "slow")
    sim.run()
    restore()
    a.send("b", "fast")
    sim.run()
    slow, fast = b.received
    assert slow[0] == pytest.approx(22.0)
    assert fast[0] - slow[0] == pytest.approx(2.0)


def test_degrade_link_adds_loss():
    sim = Simulator(seed=9)
    network = Network(sim, LinkSpec(latency_ms=1.0))
    a = Sink("a", sim, network)
    b = Sink("b", sim, network)
    network.degrade_link("a", "b", extra_loss=1.0)
    for _ in range(10):
        a.send("b", "x")
    sim.run()
    assert b.received == []


def test_block_link_and_unblock(net):
    sim, network, a, b = net
    unblock = network.block_link("a", "b")
    a.send("b", "x")
    sim.run()
    assert b.received == []
    unblock()
    a.send("b", "y")
    sim.run()
    assert len(b.received) == 1


def test_send_to_unknown_destination_returns_false(net):
    sim, network, a, b = net
    assert a.send("nobody", "x") is False
    sim.run()
    assert network.stats.dropped_down == 1
    assert network.stats.delivered == 0


def test_crashed_destination_drops(net):
    sim, network, a, b = net
    a.send("b", "x")
    b.crash()
    sim.run()
    assert b.received == []


def test_crashed_sender_cannot_send(net):
    sim, network, a, b = net
    a.crash()
    assert a.send("b", "x") is False


def test_broadcast_counts(net):
    sim, network, a, b = net
    c = Sink("c", sim, network)
    count = network.broadcast("a", ["b", "c", "missing"], "x")
    sim.run()
    assert count == 2
    assert len(b.received) == 1 and len(c.received) == 1


def test_duplicate_registration_rejected(net):
    sim, network, a, b = net
    with pytest.raises(ValueError):
        Sink("a", sim, network)


def test_stats_counters(net):
    sim, network, a, b = net
    a.send("b", "x")
    sim.run()
    assert network.stats.sent == 1
    assert network.stats.delivered == 1
    assert network.stats.bytes_sent == 256


# ----------------------------------------------------------------------
# The hop table behaves like a fresh lookup on every send
# ----------------------------------------------------------------------


class LookupEverySend(Network):
    """The reference: destination and link resolved by name on every send
    and every delay worked out from the link's fields, nothing kept from
    one send to the next (what ``Network.send`` did before it kept hops,
    without the clean-link shortcut)."""

    def send(self, src, dst, payload, size_bytes=256):
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        process = self._processes.get(dst)
        if process is None:
            stats.dropped_down += 1
            return False
        if self._partitioned(src, dst):
            stats.dropped_partition += 1
            return False
        for fn in self._filters:
            payload = fn(src, dst, payload)
            if payload is None:
                stats.dropped_filter += 1
                return False
        link = self._link(src, dst)
        if link.blocked:
            stats.dropped_partition += 1
            return False
        loss = min(1.0, link.spec.loss + link.extra_loss)
        if loss > 0.0 and self._rng.random() < loss:
            stats.dropped_loss += 1
            return False
        delay = link.spec.latency_ms + link.extra_delay_ms
        if link.spec.jitter_ms > 0.0:
            delay += self._rng.random() * link.spec.jitter_ms
        if link.spec.bandwidth_mbps > 0.0:
            serialize_ms = (size_bytes * 8) / (link.spec.bandwidth_mbps * 1000.0)
            start = max(self.simulator.now, link.queue_free_at)
            link.queue_free_at = start + serialize_ms
            delay += (start - self.simulator.now) + serialize_ms
        self.simulator.post(delay, self._deliver, src, process, payload)
        return True


NAMES = ("a", "b", "c", "d", "e")
names = st.sampled_from(NAMES)
specs = st.builds(
    LinkSpec,
    latency_ms=st.sampled_from([0.5, 2.0, 7.0]),
    jitter_ms=st.sampled_from([0.0, 0.0, 1.5]),
    loss=st.sampled_from([0.0, 0.0, 0.4, 1.0]),
    bandwidth_mbps=st.sampled_from([0.0, 0.0, 0.05]),
)


class Side:
    """One network under test with its own simulator and delivery log."""

    def __init__(self, network_class):
        self.simulator = Simulator(seed=11)
        self.network = network_class(self.simulator, LinkSpec(latency_ms=1.0))
        self.log = []
        self.undo = []

    def register(self, name):
        side = self

        class Logged(Process):
            def on_message(self, src, payload):
                side.log.append((self.simulator.now, self.name, src, payload))

        return Logged(name, self.simulator, self.network)


class HopTableMachine(RuleBasedStateMachine):
    """Drives ``Network`` and the reference through the same calls."""

    @initialize()
    def build(self):
        self.sides = [Side(Network), Side(LookupEverySend)]
        self.sent = 0
        for name in NAMES[:2]:
            self.both(lambda side: side.register(name))

    def both(self, call):
        ours, reference = (call(side) for side in self.sides)
        return ours, reference

    def install(self, hook):
        """``hook(network)`` returns its undo; kept for :meth:`undo_one`."""
        self.both(lambda side: side.undo.append(hook(side.network)))

    @rule(src=names, dst=names, size=st.sampled_from([64, 256, 4000]))
    def send(self, src, dst, size):
        self.sent += 1
        ours, reference = self.both(
            lambda side: side.network.send(src, dst, ("msg", self.sent), size)
        )
        assert ours == reference

    @rule(name=names)
    def register(self, name):
        # also after a send to that name was dropped: a miss is not kept
        if name not in self.sides[0].network.process_names:
            self.both(lambda side: side.register(name))

    @rule(src=names, dst=names, spec=specs, symmetric=st.booleans())
    def set_link(self, src, dst, spec, symmetric):
        self.both(lambda side: side.network.set_link(src, dst, spec, symmetric))

    @rule(src=names, dst=names, delay=st.sampled_from([0.0, 3.0]),
          loss=st.sampled_from([0.0, 0.5]), symmetric=st.booleans())
    def degrade_link(self, src, dst, delay, loss, symmetric):
        self.install(lambda network: network.degrade_link(src, dst, delay, loss, symmetric))

    @rule(src=names, dst=names, symmetric=st.booleans())
    def block_link(self, src, dst, symmetric):
        self.install(lambda network: network.block_link(src, dst, symmetric))

    @rule(group=st.sets(names, min_size=1, max_size=2), other=st.sets(names, min_size=1, max_size=2))
    def partition(self, group, other):
        self.install(lambda network: network.partition(group, other))

    @rule(victim=names, rewrite=st.booleans())
    def add_filter(self, victim, rewrite):
        def filter_fn(src, dst, payload):
            if dst != victim:
                return payload
            return ("rewritten", payload) if rewrite else None

        self.install(lambda network: network.add_filter(filter_fn))

    @rule(which=st.integers(0, 50))
    def undo_one(self, which):
        """Restore, unblock, heal or remove one installed hook."""
        if self.sides[0].undo:
            self.both(lambda side: side.undo.pop(which % len(side.undo))())

    @rule(name=names, up=st.booleans())
    def crash_or_recover(self, name, up):
        def flip(side):
            process = side.network._processes.get(name)
            if process is not None:
                process.recover() if up else process.crash()

        self.both(flip)

    @rule(ms=st.sampled_from([0.3, 2.0, 25.0]))
    def advance(self, ms):
        self.both(lambda side: side.simulator.run_for(ms))

    @invariant()
    def both_networks_agree(self):
        ours, reference = self.sides
        assert dataclasses.asdict(ours.network.stats) == dataclasses.asdict(reference.network.stats)
        assert ours.log == reference.log  # delivery order and times
        assert ours.simulator.rng("network").getstate() == \
            reference.simulator.rng("network").getstate()  # equal draws

    def teardown(self):
        self.both(lambda side: side.simulator.run_for(500.0))
        self.both_networks_agree()


HopTableMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
test_hop_table_behaves_like_a_fresh_lookup = HopTableMachine.TestCase


# ----------------------------------------------------------------------
# Pinned small-n trace image
# ----------------------------------------------------------------------


def _trace_fingerprint(options, run_ms):
    deployment = SpireDeployment(options)
    deployment.start()
    deployment.simulator.run_until(run_ms)
    image = tuple(
        (e.time, e.component, e.kind, tuple(sorted(e.details.items())))
        for e in deployment.obs.log.events()
    )
    return digest((image, deployment.simulator.events_processed))


#: digests (both re-pinned when the protocols took one
#: head-of-line repair path, when Prime's reconciliation pushed only on
#: evidence and when a proxy submitted each poll round in one message;
#: the ``shortest`` ``lan21`` also when a routed overlay took one
#: datagram per destination site, and again when it took one per
#: multicast; reasons in CHANGES.md): the event trace of a full
#: deployment, in order and at its simulated times
PINNED_TRACES = {
    "wan7": (
        dict(seed=7, num_substations=3),
        6000.0,
        "873a4f7f2711517247142d14d4623e98d047784a0baa761bec488659006b8383",
    ),
    "lan21": (
        dict(seed=21, num_substations=2, poll_interval_ms=200.0),
        4000.0,
        "0f1d85207c3a3a4d64fa2ceb33b59441f6dbf5bb8c91bfd70b249521c66b2113",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRACES))
def test_trace_image_pinned(case):
    overrides, run_ms, expected = PINNED_TRACES[case]
    preset = SpireOptions.wan if case.startswith("wan") else SpireOptions.lan
    assert _trace_fingerprint(preset(**overrides), run_ms) == expected
