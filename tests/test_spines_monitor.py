"""Tests for the self-healing overlay control plane (link monitors).

Covers hello-based dead-link detection, link recovery, latency-degradation
detection with hysteresis, partition detection, flap damping against a
route-flapping attacker, and hello authentication.
"""

import pytest

from repro.attacks import RouteFlapAttacker
from repro.crypto import FastCrypto
from repro.obs import (
    COMP_OVERLAY,
    EV_OVERLAY_LINK_DEGRADED,
    EV_OVERLAY_LINK_DOWN,
    EV_OVERLAY_LINK_SUPPRESSED,
    EV_OVERLAY_LINK_UP,
    EV_OVERLAY_PARTITION,
    EV_OVERLAY_REROUTE,
    Observability,
)
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.spines import (
    LinkMonitorConfig,
    OverlayHello,
    OverlayStack,
    SpinesOverlay,
    wide_area_topology,
)


class Endpoint(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            self.received.append((self.simulator.now, *unwrapped))


def build(mode="shortest", seed=11, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    obs = Observability(now_fn=lambda: sim.now)
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode=mode, crypto=FastCrypto(),
        self_healing=True, obs=obs, **kwargs
    )
    return sim, net, overlay, obs


def test_detection_bound_math():
    config = LinkMonitorConfig
    assert (config.hello_interval_ms, config.miss_threshold, config.reroute_delay_ms) \
        == (100.0, 3, 50.0)
    assert config.dead_after_ms == 300.0
    assert config.detection_bound_ms == 450.0


def test_dead_link_detected_within_bound():
    sim, net, overlay, obs = build()
    net.block_link("spines:cc1", "spines:dc2")
    bound = LinkMonitorConfig.detection_bound_ms
    sim.run_for(bound + 50.0)
    assert ("cc1", "dc2") in overlay.control_plane.links_down()
    downs = obs.log.events(COMP_OVERLAY, EV_OVERLAY_LINK_DOWN)
    assert downs and downs[0].time <= bound
    assert obs.log.events(COMP_OVERLAY, EV_OVERLAY_REROUTE)


def test_link_recovery_detected_when_hellos_resume():
    sim, net, overlay, obs = build()
    unblock = net.block_link("spines:cc1", "spines:dc2")
    sim.run_for(600.0)
    assert ("cc1", "dc2") in overlay.control_plane.links_down()
    unblock()
    sim.run_for(600.0)
    assert overlay.control_plane.links_down() == set()
    assert obs.log.events(COMP_OVERLAY, EV_OVERLAY_LINK_UP)


def test_degraded_link_detected_and_recovers_with_hysteresis():
    sim, net, overlay, obs = build()
    # cc1<->cc2 advertises 4ms; +50ms pushes the EWMA far past 3x
    restore = net.degrade_link("spines:cc1", "spines:cc2", extra_delay_ms=50.0)
    sim.run_for(1500.0)
    degraded = overlay.control_plane.degraded_links()
    assert ("cc1", "cc2") in degraded
    assert degraded[("cc1", "cc2")] > 4.0 * LinkMonitorConfig.degraded_factor
    events = obs.log.events(COMP_OVERLAY, EV_OVERLAY_LINK_DEGRADED)
    assert events and "cc1<->cc2" in events[0].details["link"]
    # observed topology carries the measured latency, not the advertised one
    observed = overlay.control_plane.observed
    assert observed.link_attributes("cc1", "cc2")["latency_ms"] > 12.0
    restore()
    sim.run_for(3000.0)  # EWMA must decay below recovered_factor x advertised
    assert overlay.control_plane.degraded_links() == {}


def test_partition_detected_when_site_cut_off():
    sim, net, overlay, obs = build()
    net.block_link("spines:field", "spines:cc1")
    net.block_link("spines:field", "spines:cc2")
    sim.run_for(1000.0)
    assert overlay.control_plane.partitioned
    events = obs.log.events(COMP_OVERLAY, EV_OVERLAY_PARTITION)
    assert events and events[0].details["components"] == 2


def test_flap_damping_suppresses_flapping_link():
    sim, net, overlay, obs = build()
    # silences of one period outlast the dead-link threshold
    attacker = RouteFlapAttacker(overlay.daemon("dc1"))
    attacker.start()
    sim.run_for(6000.0)
    suppressed = obs.log.events(COMP_OVERLAY, EV_OVERLAY_LINK_SUPPRESSED)
    assert suppressed, "flapping links must be suppressed"
    # while suppressed, up-reports are held down, so route churn is bounded
    assert overlay.control_plane.reroutes < 40
    attacker.stop()
    sim.run_for(LinkMonitorConfig.suppress_ms + 2000.0)
    # after the attacker stops and suppression expires, links recover
    assert overlay.control_plane.links_down() == set()


def test_flap_attacker_requires_self_healing():
    sim = Simulator(seed=3)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    static = SpinesOverlay(
        sim, net, wide_area_topology(), mode="shortest", crypto=FastCrypto()
    )
    with pytest.raises(ValueError):
        RouteFlapAttacker(static.daemon("cc1"))


def test_forged_hello_rejected():
    """An external process cannot fake link liveness: hellos are
    link-authenticated and neighbour-checked."""
    sim, net, overlay, obs = build()
    daemon = overlay.daemon("cc1")
    evil = Endpoint("spines:evil", sim, net)
    evil.send(daemon.name, OverlayHello("evil", 1, 0.0))
    # a non-neighbour site name via the attacker's own process name
    evil2 = Endpoint("spines:dc9", sim, net)
    evil2.send(daemon.name, OverlayHello("dc9", 1, 0.0, b"bad"))
    sim.run_for(50.0)
    assert daemon.stats["dropped_auth"] >= 2


def test_hello_with_bad_mac_rejected():
    sim, net, overlay, obs = build()
    daemon = overlay.daemon("cc1")
    # a correct neighbour source name but a forged MAC, injected straight
    # onto the wire (a network attacker replaying/forging link traffic)
    hello = OverlayHello("cc2", 999, sim.now, b"not-a-mac")
    net.inject("spines:cc2", daemon.name, hello, delay_ms=0.1)
    before = daemon.stats["dropped_auth"]
    sim.run_for(10.0)
    assert daemon.stats["dropped_auth"] == before + 1


def test_static_overlay_sends_no_hellos():
    sim = Simulator(seed=11)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode="shortest", crypto=FastCrypto()
    )
    assert overlay.control_plane is None
    assert all(d.monitor is None for d in overlay.daemons.values())
    before = net.stats.sent
    sim.run_for(1000.0)
    assert net.stats.sent == before  # an idle static overlay is silent
