"""Load on the overlay data plane.

A daemon forwards at no modelled cost: nothing limits how much it
accepts, and a datagram goes out on its links the moment it is routed,
so no backlog forms ahead of honest traffic. These tests pin that model:
a burst is forwarded whole, on-site traffic is never gated, and a source
flooding at ten times the honest rate leaves honest latency where it is
while each daemon's memory stays within its dedup window.
"""

from repro.crypto import FastCrypto
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.spines import OverlayStack, SpinesOverlay, wide_area_topology


class Endpoint(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = []

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            self.received.append((self.simulator.now, *unwrapped))


def build(seed=7):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkSpec(latency_ms=0.1))
    overlay = SpinesOverlay(
        sim, net, wide_area_topology(), mode="shortest", crypto=FastCrypto()
    )
    return sim, net, overlay


def test_without_queue_limit_backlog_is_unbounded():
    """No limit bounds what a daemon accepts: a single-instant burst of
    200 is forwarded whole and all of it arrives within the path latency."""
    sim, net, overlay = build()
    sender = Endpoint("ep:s", sim, net)
    victim = Endpoint("ep:v", sim, net)
    stack = overlay.attach(sender, "cc1")
    overlay.attach(victim, "dc2")
    for index in range(200):
        stack.send("ep:v", ("burst", index))
    sim.run_for(5000.0)
    daemon = overlay.daemon("cc1")
    assert daemon.stats["ingress"] == 200
    assert daemon.stats["forwarded"] == 200  # one next hop each, none held
    assert len(victim.received) == 200
    assert max(at for at, _, _ in victim.received) < 40.0
    totals = overlay.total_stats()
    assert totals["dropped_auth"] == totals["dropped_behavior"] == 0


def test_rate_limit_never_gates_local_delivery():
    """Traffic that stays on-site is delivered whatever its rate, and no
    daemon forwards any of it."""
    sim, net, overlay = build()
    sender = Endpoint("ep:s", sim, net)
    local = Endpoint("ep:l", sim, net)
    stack = overlay.attach(sender, "cc1")
    overlay.attach(local, "cc1")  # same site: no forwarding involved
    for index in range(50):
        stack.send("ep:l", ("local", index))
    sim.run_for(100.0)
    assert len(local.received) == 50
    assert overlay.daemon("cc1").stats["delivered"] == 50
    assert overlay.total_stats()["forwarded"] == 0


# ----------------------------------------------------------------------
# Flooding at 10x the honest rate
# ----------------------------------------------------------------------
DEDUP_WINDOW = 1000


def _honest_under_flood(attack):
    """Honest sender at 0.1 msg/ms, optional flooder at 1.0 msg/ms (10x),
    both attached at cc1, victim at dc2; every daemon keeps at most
    ``DEDUP_WINDOW`` dedup keys. Returns (mean honest latency, overlay,
    flood datagrams sent) over a 5 s run."""
    sim, net, overlay = build()
    for daemon in overlay.daemons.values():
        daemon.dedup_window = DEDUP_WINDOW
    honest = Endpoint("ep:honest", sim, net)
    victim = Endpoint("ep:victim", sim, net)
    stack = overlay.attach(honest, "cc1")
    overlay.attach(victim, "dc2")
    sent_at = {}
    counter = {"n": 0, "flood": 0}

    def send_honest():
        counter["n"] += 1
        sent_at[counter["n"]] = sim.now
        stack.send("ep:victim", ("h", counter["n"]))

    sim.call_every(10.0, send_honest)
    if attack:
        flooder = Endpoint("ep:flood", sim, net)
        flood_stack = overlay.attach(flooder, "cc1")

        def send_flood():
            counter["flood"] += 1
            flood_stack.send("ep:victim", ("junk", counter["flood"]))

        sim.call_every(1.0, send_flood)
    sim.run_for(5000.0)
    latencies = [
        at - sent_at[payload[1]]
        for at, _, payload in victim.received
        if isinstance(payload, tuple) and payload[0] == "h"
    ]
    assert latencies, "honest traffic must get through"
    # everything not still in flight at cutoff arrived
    assert counter["n"] - len(latencies) <= 3
    return sum(latencies) / len(latencies), overlay, counter["flood"]


def test_flood_10x_honest_latency_and_memory_bounded():
    baseline, _, _ = _honest_under_flood(attack=False)
    flooded, overlay, flood_sent = _honest_under_flood(attack=True)
    assert flood_sent >= 4900
    assert flooded <= 2.0 * baseline
    entry = overlay.daemon("cc1")
    assert entry.stats["forwarded"] >= flood_sent  # the flood went through
    # no daemon's memory grows with the flood: each keeps at most its
    # dedup window of keys, nowhere near the flood volume
    for daemon in overlay.daemons.values():
        kept = sum(len(seqs) for seqs in daemon._seen.values())
        assert kept == len(daemon._seen_origins) <= DEDUP_WINDOW
