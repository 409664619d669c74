"""End-to-end self-healing tests: reroute around failures, per mode.

The static overlay's known weakness (``shortest`` keeps using a dead
link forever) must disappear with ``self_healing=True``; all three
routing strategies must rebuild from the observed topology. Also covers
daemon crash/recover re-participation under every routing mode
(both static and self-healing overlays).
"""

import pytest

from repro.crypto import FastCrypto
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.spines import (
    LinkMonitorConfig,
    OverlayStack,
    SpinesOverlay,
    wide_area_topology,
)

MODES = ["shortest", "flooding", "disjoint"]


class Endpoint(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            self.received.append((self.simulator.now, *unwrapped))


def build(mode, self_healing, seed=11):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode=mode, crypto=FastCrypto(),
        self_healing=self_healing,
    )
    a = Endpoint("ep:a", sim, net)
    b = Endpoint("ep:b", sim, net)
    stack_a = overlay.attach(a, "field")
    stack_b = overlay.attach(b, "dc2")
    return sim, net, overlay, (a, stack_a), (b, stack_b)


def first_hop(overlay, src_site="field", dst_site="dc2"):
    """The neighbour a datagram from src leaves through under shortest."""
    return overlay.routing.forward_targets(src_site, src_site, (dst_site,), None)[0]


def test_selfhealing_shortest_reroutes_around_dead_link():
    """The exact failure static shortest cannot survive."""
    outcomes = {}
    for self_healing in (False, True):
        sim, net, overlay, (a, sa), (b, sb) = build("shortest", self_healing)
        hop = first_hop(overlay)
        net.block_link("spines:field", f"spines:{hop}")
        bound = LinkMonitorConfig.detection_bound_ms
        sim.run_for(bound + 100.0)  # let detection + reroute complete
        sa.send("ep:b", "after-cut")
        sim.run_for(500.0)
        outcomes[self_healing] = len(b.received)
    assert outcomes[False] == 0  # static tables keep using the dead link
    assert outcomes[True] == 1   # self-healing routed around it


@pytest.mark.parametrize("mode", MODES)
def test_delivery_resumes_within_detection_bound(mode):
    """A stream crossing a killed link resumes within the configured
    detection + reroute bound in every routing mode."""
    sim, net, overlay, (a, sa), (b, sb) = build(mode, self_healing=True)
    counter = {"n": 0}

    def send_one():
        counter["n"] += 1
        sa.send("ep:b", ("m", counter["n"]))

    sim.call_every(20.0, send_one)
    kill_at = 1000.0
    hop = (first_hop(overlay) if mode == "shortest" else "cc1")
    sim.schedule(kill_at, lambda: net.block_link(
        "spines:field", f"spines:{hop}"
    ))
    bound = LinkMonitorConfig.detection_bound_ms
    sim.run_until(kill_at + bound + 500.0)
    arrivals = [at for at, _, _ in b.received]
    resumed = [at for at in arrivals if at >= kill_at]
    assert resumed, f"no delivery after link kill in mode={mode}"
    # flooding/disjoint never stall (redundant paths); shortest must
    # resume within the detection + reroute bound plus one send period
    assert min(resumed) <= kill_at + bound + 20.0


@pytest.mark.parametrize("mode", MODES)
def test_interior_daemon_kill_rerouted(mode):
    """Killing an interior daemon (cc1) must not stop field->dc2 traffic
    once the control plane reroutes around it."""
    sim, net, overlay, (a, sa), (b, sb) = build(mode, self_healing=True)
    overlay.daemon("cc1").crash()
    bound = LinkMonitorConfig.detection_bound_ms
    sim.run_for(bound + 100.0)
    sa.send("ep:b", "x")
    sim.run_for(500.0)
    assert len(b.received) == 1
    # the control plane marked every cc1 link dead
    down = overlay.control_plane.links_down()
    assert all("cc1" in pair for pair in down)
    assert len(down) == 4  # cc1 touches cc2, dc1, dc2, field


# ----------------------------------------------------------------------
# on_recover re-participation (all three routing modes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_static_daemon_recover_rejoins_forwarding(mode):
    """After crash+recover on a static overlay, the daemon forwards
    again: volatile state is gone but wiring and routing still stand."""
    sim, net, overlay, (a, sa), (b, sb) = build(mode, self_healing=False)
    hop = (first_hop(overlay) if mode == "shortest" else "cc1")
    daemon = overlay.daemon(hop)
    sa.send("ep:b", "before")
    sim.run_for(200.0)
    assert len(b.received) == 1
    daemon.crash()
    sim.run_for(100.0)
    daemon.recover()
    forwarded_before = daemon.stats["forwarded"]
    sa.send("ep:b", "after")
    sim.run_for(500.0)
    assert [p for _, _, p in b.received] == ["before", "after"]
    if mode != "disjoint":
        # the recovered daemon itself is on the forwarding path again
        # (disjoint may route this pair around hop entirely)
        assert daemon.stats["forwarded"] > forwarded_before


@pytest.mark.parametrize("mode", MODES)
def test_selfhealing_daemon_recover_links_come_back(mode):
    """With self-healing, a crashed daemon's links go down; on recovery
    its restarted monitor re-announces them and they come back up."""
    sim = Simulator(seed=11)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode=mode, crypto=FastCrypto(),
        self_healing=True,
    )
    a = Endpoint("ep:a", sim, net)
    b = Endpoint("ep:b", sim, net)
    sa = overlay.attach(a, "field")
    overlay.attach(b, "dc2")
    daemon = overlay.daemon("cc1")
    daemon.crash()
    sim.run_for(LinkMonitorConfig.detection_bound_ms + 200.0)
    assert overlay.control_plane.links_down()  # cc1 links detected dead
    daemon.recover()
    sim.run_for(1000.0)
    assert overlay.control_plane.links_down() == set()
    sa.send("ep:b", "post-recovery")
    sim.run_for(500.0)
    assert len(b.received) == 1
