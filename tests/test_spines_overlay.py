"""Tests for overlay routing, delivery, authentication, and resilience."""

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import FastCrypto, RealCrypto
from repro.obs import Observability
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.simnet.graph import dijkstra
from repro.spines import (
    DisjointPathsRouting,
    FloodingRouting,
    OverlayStack,
    OverlayTopology,
    ShortestPathRouting,
    Site,
    SpinesOverlay,
    continental_topology,
    make_routing,
    wide_area_topology,
)
from repro.spines.daemon import SpinesDaemon
from repro.spines.messages import OverlayData, OverlayForward, OverlayHello, OverlayIngress


class Endpoint(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            self.received.append((self.simulator.now, *unwrapped))


def build(mode="flooding", crypto=None, **kwargs):
    sim = Simulator(seed=11)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    topo = wide_area_topology()
    overlay = SpinesOverlay(
        sim, net, topo, mode=mode, crypto=crypto or FastCrypto(), **kwargs
    )
    a = Endpoint("ep:a", sim, net)
    b = Endpoint("ep:b", sim, net)
    stack_a = overlay.attach(a, "cc1")
    stack_b = overlay.attach(b, "dc2")
    return sim, net, overlay, (a, stack_a), (b, stack_b)


@pytest.mark.parametrize("mode", ["shortest", "flooding"])
def test_end_to_end_delivery(mode):
    sim, net, overlay, (a, sa), (b, sb) = build(mode)
    sa.send("ep:b", {"x": 1})
    sim.run_for(100)
    assert len(b.received) == 1
    assert b.received[0][1] == "ep:a"
    assert b.received[0][2] == {"x": 1}


@pytest.mark.parametrize("mode", ["shortest", "flooding"])
def test_latency_close_to_path(mode):
    sim, net, overlay, (a, sa), (b, sb) = build(mode)
    sa.send("ep:b", "x")
    sim.run_for(100)
    at = b.received[0][0]
    assert 11.0 < at < 16.0  # 12 ms cc1-dc2 link + last miles + jitter


def test_flooding_no_duplicate_delivery():
    # flooding guarantees exactly-once delivery but not ordering (copies
    # race along different paths)
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    for i in range(5):
        sa.send("ep:b", i)
    sim.run_for(200)
    assert sorted(p for _, _, p in b.received) == [0, 1, 2, 3, 4]


def test_flooding_survives_link_failure_shortest_does_not():
    outcomes = {}
    for mode in ("shortest", "flooding"):
        sim, net, overlay, (a, sa), (b, sb) = build(mode)
        net.block_link("spines:cc1", "spines:dc2")
        sa.send("ep:b", "after-cut")
        sim.run_for(200)
        outcomes[mode] = len(b.received)
    assert outcomes["shortest"] == 0  # static tables keep using the dead link
    assert outcomes["flooding"] == 1  # any surviving path suffices


def test_flooding_survives_daemon_crash():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    overlay.daemon("dc1").crash()
    sa.send("ep:b", "x")
    sim.run_for(200)
    assert len(b.received) == 1


def test_bidirectional_traffic():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    sa.send("ep:b", "ping")
    sb.send("ep:a", "pong")
    sim.run_for(100)
    assert len(a.received) == 1 and len(b.received) == 1


def test_same_site_delivery():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    c = Endpoint("ep:c", sim, net)
    sc = overlay.attach(c, "cc1")
    sa.send("ep:c", "local")
    sim.run_for(50)
    assert len(c.received) == 1
    assert c.received[0][0] < 2.0  # never leaves the site


def test_unknown_destination_silently_dropped():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    sa.send("ep:nobody", "x")
    sim.run_for(100)  # must not raise; nothing delivered


def test_attach_unknown_site_rejected():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    c = Endpoint("ep:c", sim, net)
    with pytest.raises(KeyError):
        overlay.attach(c, "nowhere")


def test_double_attach_rejected():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    with pytest.raises(ValueError):
        overlay.attach(a, "cc2")


def test_forged_ingress_rejected():
    """An endpoint cannot inject traffic claiming another origin."""
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    daemon = overlay.daemon("cc1")
    forged = OverlayData(origin="ep:b", dests=("ep:a",), seq=1, payload="forged")
    a.send(daemon.name, OverlayIngress(forged))
    sim.run_for(100)
    assert a.received == []
    assert daemon.stats["dropped_auth"] >= 1


def test_forward_without_valid_mac_rejected():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    daemon = overlay.daemon("cc2")
    data = OverlayData(origin="ep:a", dests=("ep:b",), seq=99, payload="spoof")
    # attacker process injects a forward with a bogus MAC from a neighbor id
    attacker = Endpoint("spines:evil", sim, net)
    attacker.send(daemon.name, OverlayForward(data, "cc1", b"bad-mac"))
    sim.run_for(100)
    assert b.received == []


# Link authentication proper: the forward arrives under a real
# neighbour's process name (an on-path attacker spoofing cc1's address),
# so the name check passes and only the MAC stands in the way.
@pytest.fixture(params=[FastCrypto, RealCrypto])
def spoofed_link(request):
    sim, net, overlay, (a, sa), (b, sb) = build("flooding", crypto=request.param())
    return sim, net, overlay, b


def test_spoofed_neighbor_with_wrong_mac_rejected(spoofed_link):
    sim, net, overlay, b = spoofed_link
    dc2 = overlay.daemon("dc2")
    data = OverlayData(origin="ep:a", dests=("ep:b",), seq=1, payload="spoof")
    net.inject("spines:cc1", dc2.name, OverlayForward(data, "cc1", b"\x00" * 32))
    sim.run_for(100)
    assert b.received == []
    assert dc2.stats["dropped_auth"] == 1
    assert overlay.total_stats()["delivered"] == 0


def test_valid_mac_does_not_carry_over_to_altered_datagram(spoofed_link):
    sim, net, overlay, b = spoofed_link
    dc2 = overlay.daemon("dc2")
    genuine = OverlayData(origin="ep:a", dests=("ep:b",), seq=1, payload="open breaker 7")
    altered = OverlayData(origin="ep:a", dests=("ep:b",), seq=1, payload="open breaker 9")
    mac = overlay.crypto.mac("spines:cc1", dc2.name, genuine)
    net.inject("spines:cc1", dc2.name, OverlayForward(altered, "cc1", mac))
    sim.run_for(100)
    assert b.received == []
    # rejected by the MAC check, before the dedup window saw (origin, seq)
    assert dc2.stats["dropped_auth"] == 1 and dc2.stats["dropped_dup"] == 0
    # the same tag is good for the datagram it was computed over
    net.inject("spines:cc1", dc2.name, OverlayForward(genuine, "cc1", mac))
    sim.run_for(100)
    assert [payload for _, _, payload in b.received] == ["open breaker 7"]


def test_mac_of_one_link_rejected_on_another(spoofed_link):
    sim, net, overlay, b = spoofed_link
    dc1 = overlay.daemon("dc1")
    data = OverlayData(origin="ep:a", dests=("ep:b",), seq=1, payload="x")
    mac = overlay.crypto.mac("spines:cc1", "spines:cc2", data)
    net.inject("spines:cc1", dc1.name, OverlayForward(data, "cc1", mac))
    sim.run_for(100)
    assert b.received == []
    assert dc1.stats["dropped_auth"] == 1
    assert overlay.total_stats()["forwarded"] == 0


def test_non_neighbor_forward_rejected():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    daemon = overlay.daemon("cc1")
    crypto = overlay.crypto
    data = OverlayData(origin="ep:a", dests=("ep:b",), seq=7, payload="x")
    evil = Endpoint("spines:field2", sim, net)
    mac = crypto.mac(evil.name, daemon.name, data)
    evil.send(daemon.name, OverlayForward(data, "field2", mac))
    sim.run_for(100)
    assert b.received == []
    assert daemon.stats["dropped_auth"] >= 1


def test_daemon_recover_clears_dedup():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    daemon = overlay.daemon("cc1")
    sa.send("ep:b", "x")
    sim.run_for(100)
    daemon.crash()
    daemon.recover()
    assert len(daemon._seen) == 0


class DictOfTuples:
    """The dedup table as one dict of ``(origin, seq)`` keys that evicts
    its first key: the reference the daemon's per-origin tables keep."""

    def __init__(self, window):
        self.window = window
        self.seen = {}

    def record(self, origin, seq):
        if (origin, seq) in self.seen:
            return False
        self.seen[origin, seq] = None
        if len(self.seen) > self.window:
            del self.seen[next(iter(self.seen))]
        return True


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(1, 5),
    steps=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["ep:a", "ep:b", "ep:c"]), st.integers(0, 7)),
            st.just("recover"),
        ),
        max_size=80,
    ),
)
def test_dedup_window_decides_as_one_dict_of_tuples(window, steps):
    """Repeats, re-sends after eviction and recoveries: every decision and
    every kept key (oldest first) equal the reference's; no origin keeps
    an empty table."""
    _, _, overlay, _, _ = build("flooding")
    daemon = overlay.daemon("cc1")
    daemon.dedup_window = window
    model = DictOfTuples(window)
    for step in steps:
        if step == "recover":
            daemon.crash()
            daemon.recover()
            model = DictOfTuples(window)
            assert not daemon._seen and not daemon._seen_origins and not daemon._seen_seqs
            continue
        origin, seq = step
        assert daemon._record_seen(_datagram(origin=origin, seq=seq)) == model.record(origin, seq)
        kept = list(zip(daemon._seen_origins, daemon._seen_seqs))
        assert kept == list(model.seen) and len(kept) <= window
        assert all(daemon._seen.values())
        assert sorted(kept) == sorted(
            (origin, seq) for origin, seqs in daemon._seen.items() for seq in seqs
        )


def _retained_bytes(fill):
    """Bytes ``fill()`` leaves allocated while what it returns is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = fill()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained


def test_dedup_keys_retain_at_most_three_quarters_of_a_dict_of_tuples():
    """A full window held as per-origin int tables and two deques costs
    fewer bytes a key than tuples in one dict; both sides are measured
    here, on the running Python."""
    keys, origins = SpinesDaemon.dedup_window, [f"ep:{index}" for index in range(5)]
    _, _, overlay, _, _ = build("flooding")
    daemon = overlay.daemon("cc1")

    def fill_daemon():
        for seq in range(keys):
            daemon._record_seen(_datagram(origin=origins[seq % 5], seq=1_000 + seq))
        return daemon

    def fill_reference():
        model = DictOfTuples(SpinesDaemon.dedup_window)
        for seq in range(keys):
            model.record(origins[seq % 5], 1_000 + seq)
        return model

    reference = _retained_bytes(fill_reference)
    held = _retained_bytes(fill_daemon)
    assert len(daemon._seen_origins) == keys
    assert held <= 0.75 * reference, (held / keys, reference / keys)


def test_total_stats_aggregates():
    sim, net, overlay, (a, sa), (b, sb) = build("flooding")
    sa.send("ep:b", "x")
    sim.run_for(100)
    totals = overlay.total_stats()
    assert totals["delivered"] == 1
    assert totals["forwarded"] > 0


def test_make_routing_factory():
    topo = wide_area_topology()
    assert isinstance(make_routing("shortest", topo), ShortestPathRouting)
    assert isinstance(make_routing("flooding", topo), FloodingRouting)
    with pytest.raises(ValueError):
        make_routing("bogus", topo)


def test_shortest_path_next_hops():
    topo = wide_area_topology()
    routing = ShortestPathRouting(topo)
    assert routing.forward_targets("field", "field", ("dc1",), None) in (["cc1"], ["cc2"])
    assert routing.forward_targets("cc1", "cc1", ("cc1",), None) == []


def test_flooding_excludes_arrival_link():
    topo = wide_area_topology()
    routing = FloodingRouting(topo)
    targets = routing.forward_targets("cc1", "field", ("dc2",), arrived_from="cc2")
    assert "cc2" not in targets
    assert "dc2" in targets


def test_fairness_keeps_honest_latency_low_under_flood():
    """A co-located source flooding 200 datagrams at once cannot starve
    an honest one: daemons forward at no modelled cost, so the honest
    datagram arrives as fast as it does with no flood at all."""
    results = {}
    for flood in (True, False):
        sim = Simulator(seed=5)
        net = Network(sim, LinkSpec(latency_ms=0.1))
        overlay = SpinesOverlay(
            sim, net, wide_area_topology(), mode="shortest", crypto=FastCrypto()
        )
        honest = Endpoint("ep:honest", sim, net)
        victim = Endpoint("ep:victim", sim, net)
        flooder = Endpoint("ep:flood", sim, net)
        s_honest = overlay.attach(honest, "cc1")
        overlay.attach(victim, "dc2")
        s_flood = overlay.attach(flooder, "cc1")
        if flood:  # the attacker floods 200 messages at t=0 toward the victim
            for i in range(200):
                s_flood.send("ep:victim", ("junk", i))
        sim.run_for(1.0)
        s_honest.send("ep:victim", "honest")
        sim.run_for(2000)
        honest_arrivals = [
            at for at, origin, payload in victim.received if payload == "honest"
        ]
        results[flood] = honest_arrivals[0] if honest_arrivals else float("inf")
        assert len(victim.received) == (201 if flood else 1)
    assert results[True] < 40.0
    assert results[True] <= results[False] * 1.2


# ----------------------------------------------------------------------
# Destination sets: one flooded datagram serves a whole multicast
# ----------------------------------------------------------------------
WAN_SITES = ("cc1", "cc2", "dc1", "dc2", "field")


def build_everywhere(mode="flooding", **kwargs):
    """The WAN topology with one endpoint ``ep:<site>`` at every site and
    a second one, ``ep:dc2b``, at ``dc2``."""
    sim = Simulator(seed=11)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode=mode, crypto=FastCrypto(), **kwargs
    )
    endpoints, stacks = {}, {}
    for key, site in [(site, site) for site in WAN_SITES] + [("dc2b", "dc2")]:
        endpoints[key] = Endpoint(f"ep:{key}", sim, net)
        stacks[key] = overlay.attach(endpoints[key], site)
    return sim, net, overlay, endpoints, stacks


def random_topology(draw, max_sites):
    """(site count, links) of a random connected topology."""
    count = draw(st.integers(min_value=2, max_value=max_sites))
    # a random spanning tree keeps it connected; extra links add cycles
    links = {
        (draw(st.integers(min_value=0, max_value=i - 1)), i)
        for i in range(1, count)
    }
    pairs = [(a, b) for b in range(count) for a in range(b)]
    links |= set(draw(st.lists(st.sampled_from(pairs), max_size=12)))
    return count, sorted(links)


def build_random(count, links, mode):
    """An overlay of sites ``s0``… on ``links``, no endpoint attached."""
    sim = Simulator(seed=3)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    topo = OverlayTopology()
    for site in range(count):
        topo.add_site(Site(f"s{site}"))
    for a, b in links:
        topo.connect(f"s{a}", f"s{b}", latency_ms=1.0 + a + b, jitter_ms=0.3)
    return sim, net, SpinesOverlay(sim, net, topo, mode=mode, crypto=FastCrypto())


@st.composite
def flooded_multicasts(draw):
    """(site count, links, origin endpoint, named endpoints) on a random
    connected topology of at most 8 sites with two endpoints per site."""
    count, links = random_topology(draw, max_sites=8)
    endpoints = [(site, slot) for site in range(count) for slot in (0, 1)]
    origin = draw(st.sampled_from(endpoints))
    named = draw(st.lists(st.sampled_from(endpoints), unique=True))
    return count, links, origin, named


@settings(max_examples=60, deadline=None)
@given(flooded_multicasts())
def test_flooded_multicast_serves_exactly_the_named_endpoints(case):
    count, links, origin, named = case
    sim, net, overlay = build_random(count, links, "flooding")
    endpoints, stacks = {}, {}
    for site in range(count):
        for slot in (0, 1):
            endpoint = Endpoint(f"ep:{site}:{slot}", sim, net)
            endpoints[(site, slot)] = endpoint
            stacks[(site, slot)] = overlay.attach(endpoint, f"s{site}")
    stacks[origin].multicast(
        [endpoints[key].name for key in named], "payload", size_bytes=100
    )
    sim.run_for(1000)  # quiescent: the longest path is < 8 hops of < 16 ms
    for key, endpoint in endpoints.items():
        expected = [(endpoints[origin].name, "payload")] if key in named else []
        assert [(o, p) for _, o, p in endpoint.received] == expected
    totals = overlay.total_stats()
    assert totals["ingress"] == (1 if named else 0)
    assert totals["delivered"] == len(named)
    # the origin's daemon forwards on every link, every other daemon on
    # every link but the one the first copy arrived on
    assert totals["forwarded"] == totals["ingress"] * (2 * len(links) - (count - 1))


@pytest.mark.parametrize("dropper", ["cc2", "dc1", "dc2", "field"])
def test_flooded_multicast_survives_one_dropping_daemon(dropper):
    """The WAN topology is 2-connected: whichever single daemon drops
    everything, the flood still reaches every other site."""
    sim, net, overlay, endpoints, stacks = build_everywhere()
    overlay.daemon(dropper).set_behavior(lambda data, default_action: None)
    stacks["cc1"].multicast([f"ep:{site}" for site in WAN_SITES if site != "cc1"], "x")
    sim.run_for(200)
    for site in WAN_SITES:
        served = site not in ("cc1", dropper)
        assert len(endpoints[site].received) == (1 if served else 0), site


def test_flooded_multicast_misses_only_the_crashed_daemons_endpoint():
    sim, net, overlay, endpoints, stacks = build_everywhere()
    overlay.daemon("dc1").crash()
    stacks["cc1"].multicast(["ep:cc2", "ep:dc1", "ep:dc2", "ep:field"], "x")
    sim.run_for(200)
    assert endpoints["dc1"].received == []
    for site in ("cc2", "dc2", "field"):
        assert [p for _, _, p in endpoints[site].received] == ["x"]


def test_unnamed_endpoint_at_a_named_site_gets_nothing():
    sim, net, overlay, endpoints, stacks = build_everywhere()
    stacks["cc1"].multicast(["ep:dc2", "ep:field"], "x")
    sim.run_for(200)
    assert endpoints["dc2b"].received == []
    assert len(endpoints["dc2"].received) == 1


def test_altered_destination_set_fails_the_link_mac(spoofed_link):
    """The MAC covers ``dests``: widening the set in flight is a forgery,
    rejected before the dedup window sees ``(origin, seq)``."""
    sim, net, overlay, b = spoofed_link
    dc2 = overlay.daemon("dc2")
    c = Endpoint("ep:c", sim, net)
    overlay.attach(c, "dc2")
    genuine = OverlayData(origin="ep:a", dests=("ep:b",), seq=1, payload="trip")
    widened = OverlayData(origin="ep:a", dests=("ep:b", "ep:c"), seq=1, payload="trip")
    mac = overlay.crypto.mac("spines:cc1", dc2.name, genuine)
    net.inject("spines:cc1", dc2.name, OverlayForward(widened, "cc1", mac))
    sim.run_for(100)
    assert b.received == [] and c.received == []
    assert dc2.stats["dropped_auth"] == 1 and dc2.stats["dropped_dup"] == 0
    net.inject("spines:cc1", dc2.name, OverlayForward(genuine, "cc1", mac))
    sim.run_for(100)
    assert [p for _, _, p in b.received] == ["trip"] and c.received == []


def test_multicast_costs_one_token_however_many_destinations():
    """The entry daemon admits a multicast as one ingress datagram, however
    many destinations it names, and every one of them gets it once."""
    sim, net, overlay, endpoints, stacks = build_everywhere()
    # a fifth destination: a second endpoint next to the sender
    neighbour = Endpoint("ep:cc1b", sim, net)
    overlay.attach(neighbour, "cc1")
    stacks["cc1"].multicast(
        ["ep:cc1b", "ep:cc2", "ep:dc1", "ep:dc2", "ep:field"], "x"
    )
    sim.run_for(200)
    assert all(len(endpoints[site].received) == 1 for site in WAN_SITES[1:])
    assert len(neighbour.received) == 1
    assert overlay.daemon("cc1").stats["ingress"] == 1
    totals = overlay.total_stats()
    assert totals["ingress"] == 1 and totals["delivered"] == 5
    assert totals["dropped_auth"] == 0 and totals["dropped_behavior"] == 0


@pytest.mark.parametrize("mode", ["shortest", "disjoint"])
def test_routed_overlay_multicasts_one_datagram(mode):
    sim, net, overlay, endpoints, stacks = build_everywhere(mode)
    named = ("cc2", "dc1", "dc2", "dc2b", "field")
    stacks["cc1"].multicast([f"ep:{key}" for key in named], "x")
    sim.run_for(200)
    totals = overlay.total_stats()
    assert totals["ingress"] == 1 and totals["delivered"] == len(named)
    for key in named:
        assert [p for _, _, p in endpoints[key].received] == ["x"], key
    # the two endpoints at dc2 ride one forward chain: a datagram to both
    # costs the hops of a datagram to one
    forwarded = []
    for dests in (["ep:dc2"], ["ep:dc2", "ep:dc2b"]):
        sim, net, overlay, endpoints, stacks = build_everywhere(mode)
        stacks["cc1"].multicast(dests, "x")
        sim.run_for(200)
        totals = overlay.total_stats()
        assert totals["ingress"] == 1 and totals["delivered"] == len(dests)
        forwarded.append(totals["forwarded"])
    assert forwarded[0] == forwarded[1] > 0


@pytest.mark.parametrize("mode", ["shortest", "disjoint"])
@pytest.mark.parametrize("dests", [
    (), ("ep:dc2", "ep:field"), ("ep:dc2", "ep:dc2b"), ("ep:dc2", "ep:nowhere"),
    ("ep:nowhere",),
])
def test_routed_overlay_drops_a_destination_set_at_ingress(mode, dests):
    """Only the empty set is refused, like any malformed input. An
    attached endpoint may hand its daemon any other set, however many
    sites it spans, and every named endpoint with a home gets it once; an
    endpoint with no known home is reached by nobody."""
    sim, net, overlay, endpoints, stacks = build_everywhere(mode)
    data = OverlayData(origin="ep:cc1", dests=dests, seq=1, payload="x")
    endpoints["cc1"].send("spines:cc1", OverlayIngress(data))
    sim.run_for(200)
    totals = overlay.total_stats()
    received = {key for key, endpoint in endpoints.items() if endpoint.received}
    if dests:
        assert totals["dropped_auth"] == 0 and totals["ingress"] == 1
        assert {f"ep:{key}" for key in received} == set(dests) - {"ep:nowhere"}
        assert totals["delivered"] == len(received)
        assert all(len(endpoints[key].received) == 1 for key in received)
    else:
        assert totals["dropped_auth"] == 1
        assert totals["ingress"] == totals["forwarded"] == totals["delivered"] == 0
        assert received == set()


@st.composite
def placed_multicasts(draw):
    """(site count, links, every endpoint's site, origin, named endpoints):
    endpoints placed at random on a random connected topology, so a site
    may hold none, one or several."""
    count, links = random_topology(draw, max_sites=6)
    homes = draw(st.lists(
        st.integers(min_value=0, max_value=count - 1), min_size=1, max_size=10
    ))
    origin = draw(st.integers(min_value=0, max_value=len(homes) - 1))
    named = draw(st.lists(
        st.integers(min_value=0, max_value=len(homes) - 1), unique=True
    ))
    return count, links, homes, origin, named


def run_placed(mode, count, links, homes, origin, named):
    """Multicast from endpoint ``origin`` to the ``named`` endpoints, with
    endpoint ``i`` homed at site ``s<homes[i]>``; returns the endpoints
    and the overlay once quiescent."""
    sim, net, overlay = build_random(count, links, mode)
    endpoints, stacks = [], []
    for index, site in enumerate(homes):
        endpoints.append(Endpoint(f"ep:{index}", sim, net))
        stacks.append(overlay.attach(endpoints[-1], f"s{site}"))
    stacks[origin].multicast([endpoints[i].name for i in named], "payload")
    sim.run_for(1000)  # quiescent: the longest path is < 6 hops of < 12 ms
    return endpoints, overlay


@pytest.mark.parametrize("mode", ["flooding", "shortest", "disjoint"])
@settings(max_examples=40, deadline=None)
@given(placed_multicasts())
def test_multicast_is_one_datagram(mode, case):
    """Whatever the placement and the mode, every named endpoint receives
    exactly once, nobody else receives anything, and the overlay takes
    one ingress datagram for the whole multicast."""
    count, links, homes, origin, named = case
    endpoints, overlay = run_placed(mode, *case)
    for index, endpoint in enumerate(endpoints):
        expected = [(endpoints[origin].name, "payload")] if index in named else []
        assert [(o, p) for _, o, p in endpoint.received] == expected
    assert overlay.total_stats()["ingress"] == (1 if named else 0)


@pytest.mark.parametrize("mode", ["shortest", "disjoint"])
@settings(max_examples=40, deadline=None)
@given(placed_multicasts())
def test_a_routed_multicast_forwards_no_more_than_its_unicasts(mode, case):
    """One datagram along the union of the destinations' paths costs no
    more hops than one unicast to each named site would in total."""
    count, links, homes, origin, named = case
    _, overlay = run_placed(mode, *case)
    multicast = overlay.total_stats()["forwarded"]
    unicasts = 0
    for site in sorted({homes[i] for i in named}):
        one = next(i for i in named if homes[i] == site)
        _, overlay = run_placed(mode, count, links, homes, origin, [one])
        unicasts += overlay.total_stats()["forwarded"]
    assert multicast <= unicasts


def meeting_topology():
    """Two destination sites whose disjoint-path routes from ``origin``
    meet at ``x`` from different neighbours: ``t2``'s one route runs
    origin–a–t1–x–t2, and ``t1``'s second route origin–b–x–t1 reaches
    ``x`` from ``b``, a millisecond later (no jitter)."""
    topo = OverlayTopology()
    for name in ("origin", "a", "b", "x", "t1", "t2"):
        topo.add_site(Site(name))
    for a, b, latency in [("origin", "a", 1.0), ("a", "t1", 1.0), ("t1", "x", 2.0),
                          ("x", "t2", 4.0), ("origin", "b", 4.0), ("b", "x", 1.0)]:
        topo.connect(a, b, latency_ms=latency)
    return topo


@pytest.mark.parametrize("mode", ["shortest", "disjoint"])
def test_paths_that_meet_at_one_daemon_serve_both_destinations(mode):
    """``x`` forwards for every destination it serves on its first copy,
    whichever destination's route that copy came along, and the later copy
    is a duplicate. Under ``shortest`` the two hop-by-hop paths share
    their prefix here, so no daemon sees a second copy."""
    sim = Simulator(seed=3)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(sim, net, meeting_topology(), mode=mode, crypto=FastCrypto())
    endpoints = {site: Endpoint(f"ep:{site}", sim, net) for site in ("origin", "t1", "t2")}
    stacks = {site: overlay.attach(endpoint, site) for site, endpoint in endpoints.items()}
    stacks["origin"].multicast(["ep:t1", "ep:t2"], "x")
    sim.run_for(200)
    for site in ("t1", "t2"):
        assert [p for _, _, p in endpoints[site].received] == ["x"], site
    totals = overlay.total_stats()
    assert totals["ingress"] == 1 and totals["delivered"] == 2
    if mode == "disjoint":
        assert totals["dropped_dup"] == overlay.daemon("x").stats["dropped_dup"] == 1
    else:
        # origin–a–t1 and origin–a–t1–x–t2: four hops, no copy twice
        assert totals["dropped_dup"] == 0 and totals["forwarded"] == 4


def unicast_next_hops(mode, topology, origin, dest):
    """site -> its next hops on a unicast from ``origin`` to ``dest``,
    built from the graph alone: the first hop of each site's shortest
    path, or the next hops of the origin's own ``k`` node-disjoint paths."""
    hops = {}
    if mode == "shortest":
        for site in (site.name for site in topology.sites):
            path = dijkstra(topology.graph, site, "latency_ms")[1].get(dest)
            if path is not None and len(path) >= 2:
                hops[site] = [path[1]]
        return hops
    for path in DisjointPathsRouting(topology)._k_disjoint_paths(origin, dest):
        for hop, nxt in zip(path, path[1:]):
            hops.setdefault(hop, [])
            if nxt not in hops[hop]:
                hops[hop].append(nxt)
    return hops


@pytest.mark.parametrize("mode", ["shortest", "disjoint"])
@pytest.mark.parametrize("build_topology", [wide_area_topology, continental_topology])
def test_every_unicast_walks_its_hop_by_hop_path(mode, build_topology):
    """For every (origin site, destination site) pair, each daemon a
    unicast reaches forwards it to exactly its own next hops but the link
    it arrived on, once; under ``shortest`` that is the hop-by-hop path,
    one forward per hop, and under ``disjoint`` the origin's own ``k``
    paths, not another source's."""
    sites = [site.name for site in build_topology().sites]
    links = 0  # next-hop links held by the daemons the unicasts reach
    for origin in sites:
        for dest in sites:
            if origin == dest:
                continue
            sim = Simulator(seed=3)
            net = Network(sim, LinkSpec(latency_ms=0.1))
            topology = build_topology()
            overlay = SpinesOverlay(sim, net, topology, mode=mode, crypto=FastCrypto())
            sender = Endpoint("ep:from", sim, net)
            receiver = Endpoint("ep:to", sim, net)
            stack = overlay.attach(sender, origin)
            overlay.attach(receiver, dest)
            routed = {}  # daemon site -> the link its first copy came on
            forward_targets = overlay.routing.forward_targets

            def recording(daemon_site, origin_site, dest_sites, arrived_from):
                assert daemon_site not in routed
                routed[daemon_site] = arrived_from
                return forward_targets(daemon_site, origin_site, dest_sites, arrived_from)

            overlay.routing.forward_targets = recording
            stack.send("ep:to", "x")
            sim.run_for(500)
            assert [p for _, _, p in receiver.received] == ["x"], (origin, dest)
            hops = unicast_next_hops(mode, topology, origin, dest)
            # the daemons reached are those the next hops lead to
            reached, frontier = {origin}, [origin]
            while frontier:
                for nxt in hops.get(frontier.pop(), ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            assert set(routed) == reached, (origin, dest)
            links += sum(len(hops.get(site, ())) for site in reached)
            expected = sum(
                len([nxt for nxt in hops.get(site, ()) if nxt != arrived])
                for site, arrived in routed.items()
            )
            totals = overlay.total_stats()
            assert totals["forwarded"] == expected, (origin, dest)
            if mode == "shortest":
                assert totals["forwarded"] == len(reached) - 1
                assert totals["dropped_dup"] == 0
    if mode == "disjoint" and build_topology is continental_topology:
        # the 90 unicasts' own plans; merging every source's plans into one
        # (daemon, destination) table reached 521
        assert links == 382


def _datagram(**fields):
    """``ep:cc1``'s honest datagram to ``ep:cc2``, with ``fields`` replaced."""
    honest = dict(origin="ep:cc1", dests=("ep:cc2",), seq=1, payload="x")
    return OverlayData(**{**honest, **fields})


def _forward(overlay, data, sender="cc1", mac=None, sent_at=0.0):
    """The compromised ``spines:cc1`` holds its link keys: it forwards
    ``data`` to ``spines:cc2`` under a genuine MAC unless given one."""
    if mac is None:
        mac = overlay.crypto.mac("spines:cc1", "spines:cc2", data)
    overlay.network.inject(
        "spines:cc1", "spines:cc2", OverlayForward(data, sender, mac, sent_at)
    )


def _hello(overlay, *fields):
    overlay.network.inject("spines:cc1", "spines:cc2", OverlayHello(*fields))


def _mutate_one_hello(overlay, **fields):
    """``spines:cc1`` MACs one hello to ``cc2`` with ``fields`` replaced,
    then behaves."""
    spent = []

    def mutator(neighbor, hello):
        if neighbor != "cc2" or spent:
            return hello
        spent.append(hello)
        return dataclasses.replace(hello, **fields)

    overlay.daemon("cc1").monitor.set_hello_mutator(mutator)


#: what an attached endpoint (``ep:cc1``) hands its daemon, or the
#: compromised daemon ``spines:cc1`` its neighbour ``spines:cc2``
HOSTILE_INPUTS = {
    "ingress-not-a-datagram": lambda overlay, ep: ep.send("spines:cc1", OverlayIngress(5)),
    "ingress-int-dests": lambda overlay, ep: ep.send(
        "spines:cc1", OverlayIngress(_datagram(dests=5))
    ),
    "ingress-list-seq": lambda overlay, ep: ep.send(
        "spines:cc1", OverlayIngress(_datagram(seq=[1]))
    ),
    "forward-list-sender": lambda overlay, ep: _forward(
        overlay, _datagram(), sender=["cc1"], mac=b""
    ),
    "forward-int-mac": lambda overlay, ep: _forward(overlay, _datagram(), mac=5),
    "forward-maced-not-a-datagram": lambda overlay, ep: _forward(overlay, ("ep:cc1", 1)),
    "forward-maced-list-origin": lambda overlay, ep: _forward(
        overlay, _datagram(origin=["ep:cc1"])
    ),
    "forward-maced-list-seq": lambda overlay, ep: _forward(overlay, _datagram(seq=[1])),
    "forward-maced-int-dests": lambda overlay, ep: _forward(overlay, _datagram(dests=5)),
    "hello-list-sender": lambda overlay, ep: _hello(overlay, ["cc1"], 1, 0.0, b""),
    "hello-set-seq": lambda overlay, ep: _hello(overlay, "cc1", {1}, 0.0, b""),
    "hello-int-mac": lambda overlay, ep: _hello(overlay, "cc1", 1, 0.0, 5),
    "hello-str-sent-at": lambda overlay, ep: _mutate_one_hello(overlay, sent_at="late"),
    "ingress-list-in-dests": lambda overlay, ep: ep.send(
        "spines:cc1", OverlayIngress(_datagram(dests=(["ep:cc2"],)))
    ),
    "forward-maced-list-in-dests": lambda overlay, ep: _forward(
        overlay, _datagram(dests=(["ep:cc2"],))
    ),
    "ingress-str-size": lambda overlay, ep: ep.send(
        "spines:cc1", OverlayIngress(_datagram(size_bytes="256"))
    ),
    "forward-maced-str-size": lambda overlay, ep: _forward(
        overlay, _datagram(size_bytes="256")
    ),
    # the two send times are read only to observe latencies, with obs on
    "ingress-str-sent-at": lambda overlay, ep: ep.send(
        "spines:cc1", OverlayIngress(_datagram(sent_at="late"))
    ),
    "forward-str-hop-sent-at": lambda overlay, ep: _forward(
        overlay, _datagram(), sent_at="late"
    ),
}
OBSERVED_INPUTS = {"ingress-str-sent-at", "forward-str-hop-sent-at"}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_is_dropped_not_raised(case):
    """An attached endpoint and a neighbour daemon are outside senders:
    a malformed message from either counts one ``dropped_auth`` and ends
    there, and the overlay keeps carrying honest traffic."""
    obs = Observability() if case in OBSERVED_INPUTS else None
    sim, _, overlay, endpoints, stacks = build_everywhere(self_healing=True, obs=obs)
    HOSTILE_INPUTS[case](overlay, endpoints["cc1"])
    sim.run_for(250)
    totals = overlay.total_stats()
    assert totals["dropped_auth"] == 1
    assert totals["ingress"] == totals["delivered"] == 0
    stacks["cc1"].multicast([f"ep:{site}" for site in WAN_SITES if site != "cc1"], "after")
    sim.run_for(200)
    for site in WAN_SITES[1:]:
        assert [p for _, _, p in endpoints[site].received] == ["after"], site


def test_broadcasts_reach_the_overlay_as_one_datagram_each():
    """Deployment level: on the flooding WAN every replica broadcast or
    retransmission is one ingress datagram, every unicast one more."""
    from repro.core import SpireDeployment, SpireOptions

    deployment = SpireDeployment(SpireOptions.wan(seed=3, num_substations=3))
    deployment.start()
    deployment.run_for(2000)
    registry = deployment.obs.registry
    peers = len(deployment.replicas) - 1
    # Prime sends each kind either only point-to-point or only to all peers
    unicast_kinds = {
        "Pong", "ReconRequest", "ReconReply", "SlotFetch", "CertifiedSlot",
        "StateReply",
    }
    prefix = "prime.send."
    sends = {
        name[len(prefix):]: registry.get(name).value
        for name in registry.names() if name.startswith(prefix)
    }
    assert sends["Commit"] > 0 and sends["Pong"] > 0
    broadcasts = sum(
        value for kind, value in sends.items() if kind not in unicast_kinds
    )
    unicasts = sum(value for kind, value in sends.items() if kind in unicast_kinds)
    assert broadcasts % peers == 0
    # whatever else a replica hands its transport is a delivery to a client
    overlay_sends = registry.get("prime.transport.overlay.sent").value
    deliveries = overlay_sends - broadcasts - unicasts
    assert deliveries == sum(r.deliveries_sent for r in deployment.replicas)
    from_clients = deployment.proxy.stack._seq + sum(
        hmi.stack._seq for hmi in deployment.hmis
    )
    assert deployment.overlay.total_stats()["ingress"] == (
        broadcasts // peers + unicasts + deliveries + from_clients
    )
