"""Tests for name-keyed process registration and delivery in the network.

The network keys its processes, link state and delivery on endpoint
names; there is no separate integer id layer.  These tests pin that a
process registers under its name, in registration order, and that a send
is delivered (or dropped) by name alone.
"""

from repro.simnet import LinkSpec, Network, Process, Simulator


def _make_net():
    simulator = Simulator(seed=5)
    network = Network(simulator, LinkSpec(latency_ms=1.0, jitter_ms=0.0))
    return simulator, network


def test_network_registers_processes_into_symbol_table():
    simulator, network = _make_net()
    a = Process("a", simulator, network)
    b = Process("b", simulator, network)
    z = Process("0", simulator, network)  # sorts first, registers last
    assert network.process("a") is a
    assert network.process("b") is b
    assert network.process("0") is z
    # registration-ordered name iteration is part of the determinism
    # contract (failure injection samples from it)
    assert list(network.process_names) == ["a", "b", "0"]


def test_send_delivers_through_interned_path():
    simulator, network = _make_net()
    inbox = []

    class Sink(Process):
        def on_message(self, src, payload):
            inbox.append((src, payload))

    a = Process("a", simulator, network)
    Sink("b", simulator, network)
    assert a.send("b", "hello") is True
    simulator.run_until(10.0)
    assert inbox == [("a", "hello")]
    assert network.stats.delivered == 1


def test_send_to_unknown_destination_is_dropped():
    simulator, network = _make_net()
    a = Process("a", simulator, network)
    assert a.send("ghost", "x") is False
    simulator.run_until(10.0)
    assert network.stats.dropped_down == 1
