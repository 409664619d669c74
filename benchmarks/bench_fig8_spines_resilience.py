"""F8 — Overlay resilience: intrusion-tolerant flooding vs shortest-path
routing under link attacks and a compromised daemon, plus the
self-healing control plane closing shortest-path routing's gap.

The paper's network-attack resilience rests on Spines' intrusion-tolerant
dissemination: as long as *any* correct path exists, messages arrive.
The bench sends a steady stream across the 10-site continental overlay
while an attacker (a) kills links on the primary path and (b) compromises
an interior daemon into a black hole, and compares delivery ratio and
latency across routing modes. A second comparison pits static
shortest-path routing against the self-healing overlay under the same
link kills: the static tables lose the rest of the stream, while the
link monitors detect the dead links and reroute within the configured
detection + reroute bound.
"""

from repro.analysis import print_table
from repro.attacks import compromise_daemon_drop_all
from repro.crypto import FastCrypto
from repro.simnet import LinkSpec, Network, Process, Simulator
from repro.simnet.graph import shortest_path
from repro.spines import (
    LinkMonitorConfig,
    OverlayStack,
    SpinesOverlay,
    continental_topology,
)

from common import once, reporter

MESSAGES = 400
INTERVAL_MS = 20.0


class Receiver(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.received = {}
        self.arrivals = {}

    def on_message(self, src, payload):
        unwrapped = OverlayStack.unwrap(payload)
        if unwrapped is not None:
            origin, (kind, seq, sent_at) = unwrapped
            self.received[seq] = self.simulator.now - sent_at
            self.arrivals[seq] = self.simulator.now


def run_mode(mode, attack, self_healing=False):
    simulator = Simulator(seed=61)
    network = Network(simulator, LinkSpec(latency_ms=0.1))
    topology = continental_topology()
    overlay = SpinesOverlay(simulator, network, topology, mode=mode,
                            crypto=FastCrypto(), self_healing=self_healing)
    sender = Receiver("ep:sender", simulator, network)
    receiver = Receiver("ep:receiver", simulator, network)
    stack = overlay.attach(sender, "nyc")
    overlay.attach(receiver, "lax")
    kill_at = MESSAGES * INTERVAL_MS / 2.0  # strike mid-stream
    if attack == "links":
        # cut the first two segments of the latency-shortest path, the one
        # DisjointPathsRouting takes first
        path = shortest_path(topology.graph, "nyc", "lax", "latency_ms")
        cuts = list(zip(path, path[1:]))[:2]
        for a, b in cuts:
            simulator.schedule_at(
                kill_at,
                lambda a=a, b=b: network.block_link(f"spines:{a}", f"spines:{b}"),
            )
    elif attack == "daemon":
        simulator.schedule_at(
            kill_at, lambda: compromise_daemon_drop_all(overlay.daemon("den"))
        )

    seq_counter = {"value": 0}

    def send_one():
        seq_counter["value"] += 1
        stack.send("ep:receiver",
                   ("probe", seq_counter["value"], simulator.now),
                   size_bytes=256)

    stop = simulator.call_every(INTERVAL_MS, send_one, rng_name="probe")
    simulator.run_until(MESSAGES * INTERVAL_MS + 500.0)
    stop.stop()
    simulator.run_for(1_000.0)
    sent = seq_counter["value"]
    delivered = len(receiver.received)
    latencies = sorted(receiver.received.values())
    mean = sum(latencies) / len(latencies) if latencies else float("nan")
    worst = latencies[-1] if latencies else float("nan")
    # first delivery of a message *sent* after the kill (in-flight
    # messages sent before it don't count as recovery)
    post_kill = sorted(
        at for seq, at in receiver.arrivals.items()
        if at - receiver.received[seq] >= kill_at
    )
    restore = post_kill[0] - kill_at if post_kill else float("nan")
    return sent, delivered, mean, worst, restore, overlay


def test_fig8_spines_resilience(benchmark):
    emit = reporter("fig8_spines_resilience")

    def scenario():
        rows = []
        for attack in ("none", "links", "daemon"):
            for mode in ("shortest", "flooding"):
                sent, delivered, mean, worst, _, _ = run_mode(mode, attack)
                rows.append([attack, mode, sent, delivered,
                             f"{delivered / sent:.1%}", mean, worst])
        heal_rows = {}
        for self_healing in (False, True):
            sent, delivered, mean, worst, restore, overlay = run_mode(
                "shortest", "links", self_healing=self_healing,
            )
            heal_rows[self_healing] = [
                "self-healing" if self_healing else "static",
                sent, delivered, f"{delivered / sent:.1%}",
                restore, LinkMonitorConfig.detection_bound_ms,
            ]
        return rows, heal_rows

    (rows, heal_rows) = once(benchmark, scenario)
    emit("F8: overlay delivery under attack, nyc -> lax over the "
         "10-daemon continental topology")
    print_table(
        "delivery vs routing mode",
        ["attack", "routing", "sent", "delivered", "ratio", "mean (ms)",
         "max (ms)"],
        rows,
        out=emit,
    )
    print_table(
        "shortest-path routing under link kills: static vs self-healing",
        ["overlay", "sent", "delivered", "ratio", "restore (ms)",
         "bound (ms)"],
        [heal_rows[False], heal_rows[True]],
        out=emit,
    )
    emit("shape check: flooding keeps ~100% delivery through link kills and "
         "a black-hole daemon; static shortest-path loses everything once "
         "its path dies, while the self-healing overlay detects the dead "
         "links and reroutes within the detection bound.")
    table = {
        (attack, mode): delivered / sent
        for attack, mode, sent, delivered, *_ in rows
    }
    assert table[("none", "shortest")] >= 0.99
    assert table[("none", "flooding")] >= 0.99
    assert table[("links", "flooding")] >= 0.95
    assert table[("daemon", "flooding")] >= 0.95
    # static shortest-path suffers under both attacks (its path is what we cut)
    assert table[("links", "shortest")] < 0.8
    assert table[("daemon", "shortest")] < 0.8
    # self-healing comparison: the static overlay never recovers; the
    # self-healing one loses only the detection + reroute window
    _, sent_s, delivered_s, _, _, _ = heal_rows[False]
    _, sent_h, delivered_h, _, restore, bound = heal_rows[True]
    assert delivered_s / sent_s < 0.8
    assert delivered_h / sent_h >= 1.0 - (bound + 200.0) / (
        MESSAGES * INTERVAL_MS
    )
    # first post-kill delivery: detection bound + one send interval + WAN path
    assert restore <= bound + INTERVAL_MS + 150.0
