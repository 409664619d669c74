"""Tests for k-disjoint-paths overlay routing."""

import pytest

from repro.crypto import FastCrypto
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.spines import (
    DisjointPathsRouting,
    OverlayStack,
    SpinesOverlay,
    continental_topology,
    make_routing,
)


class Endpoint(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            self.received.append(unwrapped)


def build(**kwargs):
    sim = Simulator(seed=17)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    topo = continental_topology()
    overlay = SpinesOverlay(sim, net, topo, mode="disjoint",
                            crypto=FastCrypto(), **kwargs)
    a = Endpoint("ep:a", sim, net)
    b = Endpoint("ep:b", sim, net)
    sa = overlay.attach(a, "nyc")
    overlay.attach(b, "lax")
    return sim, net, overlay, a, b, sa


def test_factory_builds_disjoint():
    topo = continental_topology()
    assert isinstance(make_routing("disjoint", topo), DisjointPathsRouting)


def test_paths_are_node_disjoint():
    routing = DisjointPathsRouting(continental_topology(), k=2)
    paths = routing._k_disjoint_paths("nyc", "lax")
    assert len(paths) == 2
    interior_a = set(paths[0][1:-1])
    interior_b = set(paths[1][1:-1])
    assert not (interior_a & interior_b)


def test_end_to_end_delivery():
    sim, net, overlay, a, b, sa = build()
    sa.send("ep:b", "hello")
    sim.run_for(200)
    assert len(b.received) == 1


def test_survives_single_interior_daemon_crash():
    sim, net, overlay, a, b, sa = build()
    routing = overlay.routing
    paths = routing._k_disjoint_paths("nyc", "lax")
    victim = paths[0][1]  # first interior hop of the primary path
    overlay.daemon(victim).crash()
    sa.send("ep:b", "after-crash")
    sim.run_for(300)
    assert len(b.received) == 1  # the second disjoint path delivers


def test_cheaper_than_flooding():
    """Disjoint-path routing forwards far fewer copies than flooding."""
    costs = {}
    for mode in ("disjoint", "flooding"):
        sim = Simulator(seed=19)
        net = Network(sim, LinkSpec(latency_ms=0.1))
        overlay = SpinesOverlay(sim, net, continental_topology(), mode=mode,
                                crypto=FastCrypto())
        a = Endpoint("ep:a", sim, net)
        b = Endpoint("ep:b", sim, net)
        sa = overlay.attach(a, "nyc")
        overlay.attach(b, "lax")
        for i in range(20):
            sa.send("ep:b", i)
        sim.run_for(500)
        totals = overlay.total_stats()
        assert totals["delivered"] == 20
        costs[mode] = totals["forwarded"]
    assert costs["disjoint"] < costs["flooding"] / 2


def test_forward_targets_exclude_arrival():
    routing = DisjointPathsRouting(continental_topology(), k=2)
    paths = routing._k_disjoint_paths("nyc", "lax")
    first_hop = paths[0][1]
    targets = routing.forward_targets(first_hop, "nyc", ("lax",), arrived_from="nyc")
    assert "nyc" not in targets
    assert targets  # keeps moving toward the destination
