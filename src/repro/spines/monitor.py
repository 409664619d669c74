"""Self-healing overlay control plane: link monitors + route manager.

The real Spines daemons run a link-state protocol: every daemon probes its
links with hello packets, floods link-state updates when a link dies or
degrades, and recomputes routes from the resulting *observed* topology.
This module reproduces that feedback loop on top of the simulator:

* :class:`LinkMonitor` — one per daemon. Sends an authenticated
  :class:`~repro.spines.messages.OverlayHello` on every advertised link
  each ``hello_interval_ms`` and watches incoming hellos. A link is
  **dead** after ``miss_threshold`` missed intervals, and **degraded**
  when the one-way latency EWMA exceeds ``degraded_factor ×`` the
  advertised latency (silent degradation — the DoS the paper highlights
  because static routing cannot see it).
* :class:`OverlayControlPlane` — one per overlay. Collects link reports,
  maintains the observed :class:`~repro.spines.topology.OverlayTopology`
  view (advertised minus dead links, with degraded latencies substituted),
  coalesces changes for ``reroute_delay_ms`` (modelling link-state
  propagation), then calls ``routing.rebuild(observed)`` — one shared
  routing instance serves all daemons, so a single rebuild is the
  converged link-state database. Partitions of the observed view surface
  as an obs event and a counter, and **flap damping** suppresses links
  whose state thrashes (the defence against a route-flapping attacker
  that lies in its hellos).

Everything here is opt-in (``SpinesOverlay(self_healing=True)``): a
static overlay sends no hellos and never reroutes, preserving seed-exact
behaviour of existing scenarios.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from ..obs import (
    COMP_OVERLAY,
    EV_OVERLAY_LINK_DEGRADED,
    EV_OVERLAY_LINK_DOWN,
    EV_OVERLAY_LINK_SUPPRESSED,
    EV_OVERLAY_LINK_UP,
    EV_OVERLAY_PARTITION,
    EV_OVERLAY_REROUTE,
    NULL_OBS,
)
from ..simnet import Simulator
from .messages import OverlayHello
from .routing import RoutingStrategy
from .topology import OverlayTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .daemon import SpinesDaemon

__all__ = ["LinkMonitorConfig", "LinkMonitor", "OverlayControlPlane"]

#: Hook applied to each outgoing hello: ``(neighbor_site, hello) ->
#: hello | None``. Returning ``None`` suppresses the probe; returning a
#: modified hello lies about it (the attack library's flap attacker).
HelloMutator = Callable[[str, OverlayHello], Optional[OverlayHello]]


@dataclass(frozen=True)
class LinkMonitorConfig:
    """Timing/thresholds of the hello protocol and the reroute loop: all
    constants, since no experiment varies them."""

    #: hello send period per link (also the dead-link check period)
    hello_interval_ms: ClassVar[float] = 100.0
    #: consecutive missed hellos before a link is declared dead
    miss_threshold: ClassVar[int] = 3
    #: smoothing factor of the one-way latency EWMA
    ewma_alpha: ClassVar[float] = 0.3
    #: coalescing delay between a link report and the route rebuild
    #: (models link-state-update propagation across the overlay)
    reroute_delay_ms: ClassVar[float] = 50.0
    #: flap damping: this many down-transitions within ``flap_window_ms``
    #: suppresses the link for ``suppress_ms`` (hold-down)
    max_flaps: ClassVar[int] = 4
    flap_window_ms: ClassVar[float] = 5000.0
    suppress_ms: ClassVar[float] = 5000.0
    #: EWMA > advertised × this ⇒ the link is reported degraded
    degraded_factor: ClassVar[float] = 3.0
    #: EWMA ≤ advertised × this ⇒ a degraded link is reported recovered
    #: (hysteresis, so jitter at the threshold does not thrash routes)
    recovered_factor: ClassVar[float] = 1.5
    #: wire size of one hello probe
    hello_size_bytes: ClassVar[int] = 64

    #: silence duration after which a link is considered dead
    dead_after_ms: ClassVar[float] = hello_interval_ms * miss_threshold
    #: worst-case failure-to-reroute time: a hello sent just before the
    #: failure keeps the link alive for ``dead_after_ms``, the periodic
    #: check adds up to one interval of phase lag, and the rebuild is
    #: coalesced for ``reroute_delay_ms``
    detection_bound_ms: ClassVar[float] = (
        dead_after_ms + hello_interval_ms + reroute_delay_ms
    )


class LinkMonitor:
    """Per-daemon hello sender + per-link failure/degradation detector.

    Timers ride on the daemon's incarnation (:meth:`Process.every`), so
    they stop with the daemon on a crash; a recovered daemon calls
    :meth:`start` again, which is exactly a rejoining daemon re-announcing
    itself (its neighbours mark the links back up as soon as its hellos
    resume).
    """

    def __init__(self, daemon: "SpinesDaemon", control: OverlayControlPlane) -> None:
        self.daemon = daemon
        self.control = control
        self._seq = 0
        self._mutator: Optional[HelloMutator] = None
        self.hellos_sent = 0
        self.hellos_received = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the daemon incarnation's view of its links and arm its hello
        and dead-link-check loops (on start, and again on each recovery)."""
        neighbors = sorted(self.daemon.neighbors)
        self._last_seen = dict.fromkeys(neighbors, self.daemon.simulator.now)
        self._alive = dict.fromkeys(neighbors, True)
        self._degraded = dict.fromkeys(neighbors, False)
        self._ewma: Dict[str, float] = {}
        interval = LinkMonitorConfig.hello_interval_ms
        self.daemon.every(interval, self._send_hellos)
        self.daemon.every(interval, self._check_links)

    def set_hello_mutator(self, mutator: Optional[HelloMutator]) -> None:
        """Install (or clear) a compromised-daemon hello hook."""
        self._mutator = mutator

    def is_alive(self, neighbor: str) -> bool:
        """This side's view of the link to ``neighbor``."""
        return self._alive.get(neighbor, True)

    # ------------------------------------------------------------------
    # Hello send / receive
    # ------------------------------------------------------------------
    def _send_hellos(self) -> None:
        daemon = self.daemon
        now = daemon.simulator.now
        self._seq += 1
        for neighbor in sorted(daemon.neighbors):
            hello = OverlayHello(daemon.site_name, self._seq, now)
            if self._mutator is not None:
                mutated = self._mutator(neighbor, hello)
                if mutated is None:
                    continue
                hello = mutated
            dst = daemon.neighbors[neighbor]
            mac = daemon.crypto.mac(
                daemon.name, dst, (hello.sender, hello.seq, hello.sent_at)
            )
            hello = dataclasses.replace(hello, mac=mac)
            self.hellos_sent += 1
            daemon.send(dst, hello, size_bytes=LinkMonitorConfig.hello_size_bytes)

    def on_hello(self, sender: str, hello: OverlayHello) -> None:
        """Authenticated hello from a neighbour (the daemon verified the
        MAC and neighbour-ship before delegating here)."""
        config = LinkMonitorConfig
        now = self.daemon.simulator.now
        self.hellos_received += 1
        self._last_seen[sender] = now
        sample = max(0.0, now - hello.sent_at)
        if not self._alive.get(sender, True):
            # first hello after a dead period: the link is back
            self._alive[sender] = True
            self._degraded[sender] = False
            self._ewma[sender] = sample
            self.control.report_link_up(self.daemon.site_name, sender)
            return
        previous = self._ewma.get(sender)
        ewma = (
            sample if previous is None
            else config.ewma_alpha * sample + (1.0 - config.ewma_alpha) * previous
        )
        self._ewma[sender] = ewma
        advertised = self.control.advertised_latency(self.daemon.site_name, sender)
        if not self._degraded.get(sender) and (
            ewma > advertised * config.degraded_factor
        ):
            self._degraded[sender] = True
            self.control.report_link_degraded(
                self.daemon.site_name, sender, ewma
            )
        elif self._degraded.get(sender) and (
            ewma <= advertised * config.recovered_factor
        ):
            self._degraded[sender] = False
            self.control.report_link_restored(self.daemon.site_name, sender)

    # ------------------------------------------------------------------
    # Dead-link detection
    # ------------------------------------------------------------------
    def _check_links(self) -> None:
        now = self.daemon.simulator.now
        dead_after = LinkMonitorConfig.dead_after_ms
        for neighbor in sorted(self.daemon.neighbors):
            if not self._alive.get(neighbor, True):
                continue
            if now - self._last_seen.get(neighbor, now) > dead_after:
                self._alive[neighbor] = False
                self._degraded[neighbor] = False
                self.control.report_link_down(self.daemon.site_name, neighbor)


class OverlayControlPlane:
    """The overlay's converged link-state view + route recomputation.

    All daemons of one overlay share one routing-strategy instance, so
    this object models the *converged* link-state database: monitors
    report per-link transitions, the control plane folds them into an
    observed topology copy and rebuilds the shared routing after a
    coalescing delay. One report per transition suffices — a link is down
    if *either* endpoint declares it dead, and up again when either side
    hears hellos across it.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: OverlayTopology,
        routing: RoutingStrategy,
        obs=None,
    ) -> None:
        self.simulator = simulator
        self.advertised = topology
        self.routing = routing
        self.obs = obs if obs is not None else NULL_OBS
        #: site -> that daemon's LinkMonitor (filled by SpinesOverlay)
        self.monitors: Dict[str, LinkMonitor] = {}
        self._down: Set[Tuple[str, str]] = set()
        self._degraded: Dict[Tuple[str, str], float] = {}
        self._suppressed_until: Dict[Tuple[str, str], float] = {}
        self._flap_times: Dict[Tuple[str, str], List[float]] = {}
        self._rebuild_pending = False
        self.observed = topology.copy()
        self.reroutes = 0
        self.obs.read("overlay.reroutes", lambda: self.reroutes)
        self.partitioned = False
        self.partitions_seen = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def advertised_latency(self, a: str, b: str) -> float:
        return self.advertised.link_attributes(a, b).get("latency_ms", 1.0)

    def links_down(self) -> Set[Tuple[str, str]]:
        return set(self._down)

    def degraded_links(self) -> Dict[Tuple[str, str], float]:
        return dict(self._degraded)

    # ------------------------------------------------------------------
    # Reports from link monitors
    # ------------------------------------------------------------------
    def report_link_down(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key in self._down:
            return
        self._down.add(key)
        self._degraded.pop(key, None)
        self._event(EV_OVERLAY_LINK_DOWN, link=f"{key[0]}<->{key[1]}")
        self._note_flap(key)
        self._schedule_rebuild()

    def report_link_up(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key not in self._down:
            return
        if self._suppressed_until.get(key, 0.0) > self.simulator.now:
            return  # hold-down: re-checked when the suppression expires
        self._down.discard(key)
        self._event(EV_OVERLAY_LINK_UP, link=f"{key[0]}<->{key[1]}")
        self._schedule_rebuild()

    def report_link_degraded(self, a: str, b: str, latency_ms: float) -> None:
        key = self._key(a, b)
        if key in self._down:
            return
        self._degraded[key] = latency_ms
        self._event(
            EV_OVERLAY_LINK_DEGRADED,
            link=f"{key[0]}<->{key[1]}", latency_ms=round(latency_ms, 3),
        )
        self._schedule_rebuild()

    def report_link_restored(self, a: str, b: str) -> None:
        """A degraded (not dead) link's latency returned to normal."""
        key = self._key(a, b)
        if self._degraded.pop(key, None) is None:
            return
        self._event(
            EV_OVERLAY_LINK_UP, link=f"{key[0]}<->{key[1]}",
            reason="latency-recovered",
        )
        self._schedule_rebuild()

    # ------------------------------------------------------------------
    # Flap damping
    # ------------------------------------------------------------------
    def _note_flap(self, key: Tuple[str, str]) -> None:
        now = self.simulator.now
        times = self._flap_times.setdefault(key, [])
        times.append(now)
        config = LinkMonitorConfig
        cutoff = now - config.flap_window_ms
        while times and times[0] < cutoff:
            times.pop(0)
        if len(times) < config.max_flaps:
            return
        self._suppressed_until[key] = now + config.suppress_ms
        self._event(
            EV_OVERLAY_LINK_SUPPRESSED,
            link=f"{key[0]}<->{key[1]}",
            flaps=len(times),
            until_ms=round(now + config.suppress_ms, 3),
        )
        self.simulator.schedule(
            config.suppress_ms, lambda: self._suppression_expired(key)
        )

    def _suppression_expired(self, key: Tuple[str, str]) -> None:
        if self._suppressed_until.get(key, 0.0) > self.simulator.now:
            return  # re-suppressed in the meantime
        a, b = key
        monitor_a = self.monitors.get(a)
        monitor_b = self.monitors.get(b)
        alive = (
            (monitor_a is None or monitor_a.is_alive(b))
            and (monitor_b is None or monitor_b.is_alive(a))
        )
        if alive and key in self._down:
            self._down.discard(key)
            self._event(
                EV_OVERLAY_LINK_UP, link=f"{a}<->{b}",
                reason="suppression-expired",
            )
            self._schedule_rebuild()

    # ------------------------------------------------------------------
    # Route recomputation
    # ------------------------------------------------------------------
    def _schedule_rebuild(self) -> None:
        if self._rebuild_pending:
            return
        self._rebuild_pending = True
        self.simulator.schedule(LinkMonitorConfig.reroute_delay_ms, self._rebuild)

    def _rebuild(self) -> None:
        self._rebuild_pending = False
        observed = self.advertised.copy()
        for a, b in sorted(self._down):
            observed.disconnect(a, b)
        for (a, b), latency_ms in sorted(self._degraded.items()):
            if observed.has_link(a, b):
                observed.set_link_latency(a, b, latency_ms)
        self.observed = observed
        self.routing.rebuild(observed)
        self.reroutes += 1
        self._event(
            EV_OVERLAY_REROUTE,
            links_down=len(self._down), degraded=len(self._degraded),
        )
        partitioned = not observed.is_connected()
        if partitioned and not self.partitioned:
            self.partitions_seen += 1
            self._event(
                EV_OVERLAY_PARTITION, components=observed.component_count()
            )
        self.partitioned = partitioned

    # ------------------------------------------------------------------
    def _event(self, kind: str, **details) -> None:
        self.obs.event(COMP_OVERLAY, kind, **details)
