"""Spines overlay daemon.

One daemon runs per site. It accepts datagrams from locally attached
endpoints, forwards datagrams daemon-to-daemon over authenticated links,
deduplicates flooded copies, and delivers to attached destination
endpoints.

Defences modelled from the paper:

* **Per-link authentication** — each daemon-to-daemon hop carries an HMAC
  keyed on the link; datagrams arriving from non-neighbours or failing the
  MAC are dropped. This stops an external network attacker from injecting
  or replaying traffic *inside* the overlay.
* **Malformed input** — a message from an attached endpoint or a
  neighbour daemon (which holds its link keys) that fails its shape check
  (:mod:`repro.crypto.schema`) counts one ``dropped_auth``.

A daemon forwards at no modelled cost: a datagram goes out on its links
the moment it is routed, so a flooding source queues nothing ahead of
honest traffic and costs it nothing (DESIGN.md §9).

A compromised daemon is modelled via :meth:`set_behavior`; the attack
library installs droppers/delayers there. When the self-healing control
plane is enabled (:mod:`repro.spines.monitor`), the overlay assigns each
daemon a :class:`~repro.spines.monitor.LinkMonitor` via :attr:`monitor`;
incoming :class:`~repro.spines.messages.OverlayHello` probes are
link-authenticated here and then handed to it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Set

from ..crypto.encoding import EncodingError, digest_bytes
from ..crypto.provider import CryptoProvider
from ..crypto.schema import check_for
from ..obs import NULL_OBS, Observability
from ..simnet import Network, Process, Simulator
from .messages import (
    OverlayData,
    OverlayDeliver,
    OverlayForward,
    OverlayHello,
    OverlayIngress,
)
from .routing import RoutingStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .monitor import LinkMonitor

__all__ = ["SpinesDaemon"]

_INGRESS_SHAPE = check_for(OverlayIngress)
_FORWARD_SHAPE = check_for(OverlayForward)
_HELLO_SHAPE = check_for(OverlayHello)

#: A behaviour hook: (data, default_action) -> None. The hook decides
#: whether/when to call default_action; not calling it drops the datagram.
BehaviorHook = Callable[[OverlayData, Callable[[], None]], None]


class SpinesDaemon(Process):
    """One overlay daemon at a site."""

    #: flooded-copy dedup memory: the ``(origin, seq)`` keys kept, FIFO
    dedup_window = 50_000

    def __init__(
        self,
        site_name: str,
        simulator: Simulator,
        network: Network,
        routing: RoutingStrategy,
        crypto: CryptoProvider,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(f"spines:{site_name}", simulator, network)
        self.site_name = site_name
        self.routing = routing
        self.crypto = crypto
        self.obs = obs if obs is not None else NULL_OBS
        # Histograms shared by all daemons of a deployment (same names →
        # same registry entries); resolved once so hops pay a None test.
        self._hop_latency = None
        self._e2e_latency = None
        if self.obs.enabled:
            self._hop_latency = self.obs.histogram("spines.hop_latency_ms")
            self._e2e_latency = self.obs.histogram("spines.transit_latency_ms")
        #: neighbour site -> its daemon's process name, so no hop has to
        #: format the name again
        self.neighbors: Dict[str, str] = {}
        self.attached: Set[str] = set()            # endpoint names homed here
        self.endpoint_home: Dict[str, str] = {}    # endpoint -> site (global map)
        #: origin -> seqs kept; ``_seen_origins`` / ``_seen_seqs`` hold the
        #: same keys oldest first, so eviction deletes exactly the oldest
        self._seen: Dict[str, Dict[int, None]] = {}
        self._seen_origins: Deque[str] = deque()
        self._seen_seqs: Deque[int] = deque()
        self._behavior: Optional[BehaviorHook] = None
        #: set by SpinesOverlay when self-healing is enabled
        self.monitor: Optional["LinkMonitor"] = None
        self.stats = {
            "ingress": 0, "forwarded": 0, "delivered": 0,
            "dropped_auth": 0, "dropped_dup": 0, "dropped_behavior": 0,
        }
        for key in self.stats:
            if key.startswith("dropped_"):
                self.obs.read(f"spines.{key}", lambda key=key: self.stats[key])

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_neighbor(self, site_name: str) -> None:
        self.neighbors[site_name] = self.daemon_name(site_name)

    def attach_endpoint(self, endpoint_name: str) -> None:
        self.attached.add(endpoint_name)

    def set_behavior(self, hook: Optional[BehaviorHook]) -> None:
        """Install (or clear) a compromised-daemon behaviour hook."""
        self._behavior = hook

    @staticmethod
    def daemon_name(site_name: str) -> str:
        return f"spines:{site_name}"

    # ------------------------------------------------------------------
    # Receive paths
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        # nine in ten of a daemon's messages are forwards
        kind = payload.__class__
        if kind is OverlayForward:
            self._on_forward(src, payload)
        elif kind is OverlayIngress:
            self._on_ingress(src, payload)
        elif kind is OverlayHello:
            self._on_hello(src, payload)

    def _on_ingress(self, src: str, message: OverlayIngress) -> None:
        data = message.data
        if (
            src not in self.attached
            or not _INGRESS_SHAPE(message)
            or data.origin != src
            or not data.dests
        ):
            self.stats["dropped_auth"] += 1
            return
        self.stats["ingress"] += 1
        if self._record_seen(data):
            self._route(data, arrived_from=None)

    def _on_forward(self, src: str, message: OverlayForward) -> None:
        # a neighbour holds the link key: what it MACs may still be
        # malformed, and the MAC does not cover the hop's send time
        sender_site = message.sender
        if not _FORWARD_SHAPE(message) or self.neighbors.get(sender_site) != src:
            self.stats["dropped_auth"] += 1
            return
        data = message.data
        try:
            authentic = self.crypto.check_mac(src, self.name, data, message.mac)
        except EncodingError:  # a payload no encoder accepts has no digest
            authentic = False
        if not authentic:
            self.stats["dropped_auth"] += 1
            return
        if self._hop_latency is not None and message.sent_at:
            self._hop_latency.observe(self.simulator.now - message.sent_at)
        if not self._record_seen(data):
            self.stats["dropped_dup"] += 1
            return
        self._route(data, arrived_from=sender_site)

    def _on_hello(self, src: str, hello: OverlayHello) -> None:
        """Link-monitor keepalive: authenticate, then hand to the monitor."""
        sender = hello.sender
        if (
            not _HELLO_SHAPE(hello)
            or self.neighbors.get(sender) != src
            or not self.crypto.check_mac(
                src, self.name, (sender, hello.seq, hello.sent_at), hello.mac
            )
        ):
            self.stats["dropped_auth"] += 1
            return
        if self.monitor is not None:
            self.monitor.on_hello(sender, hello)

    def _record_seen(self, data: OverlayData) -> bool:
        """Record (origin, seq); returns False if already seen."""
        seen = self._seen
        origin, seq = data.origin, data.seq
        if origin in seen:
            seqs = seen[origin]
            if seq in seqs:
                return False
        else:
            seqs = seen[origin] = {}
        seqs[seq] = None
        origins = self._seen_origins
        origins.append(origin)
        self._seen_seqs.append(seq)
        if len(origins) > self.dedup_window:
            # FIFO eviction of exactly the oldest key; an origin whose
            # last key goes loses its table
            oldest = origins.popleft()
            oldest_seqs = seen[oldest]
            del oldest_seqs[self._seen_seqs.popleft()]
            if not oldest_seqs:
                del seen[oldest]
        return True

    # ------------------------------------------------------------------
    # Routing / delivery
    # ------------------------------------------------------------------
    def _route(self, data: OverlayData, arrived_from: Optional[str]) -> None:
        if self._behavior is not None:
            # a datagram the hook holds counts as dropped until released
            stats = self.stats
            stats["dropped_behavior"] += 1

            def default_action() -> None:
                stats["dropped_behavior"] -= 1
                self._route_default(data, arrived_from)

            self._behavior(data, default_action)
        else:
            # no byzantine behavior installed (the common case): route
            # directly, skipping the per-message closure allocation
            self._route_default(data, arrived_from)

    def _route_default(self, data: OverlayData, arrived_from: Optional[str]) -> None:
        # forward while some destination has a known home, towards the
        # sites of all of them (a dict: ordered as named, not by string
        # hash); an origin with no known home is routed as if it entered
        # here, and an isolated daemon has nobody to forward to
        targets: Any = ()
        if self.neighbors:
            home = self.endpoint_home
            dest_sites: Dict[str, None] = {}
            for dest in data.dests:
                if dest in home:
                    dest_sites[home[dest]] = None
            if dest_sites:
                origin = data.origin
                targets = self.routing.forward_targets(
                    self.site_name,
                    home[origin] if origin in home else self.site_name,
                    dest_sites,
                    arrived_from,
                )
        if targets and arrived_from is None:
            # the first need of an ingress datagram's digest (a forwarded
            # one had its MAC checked): no encoder, no hop and no delivery
            try:
                digest_bytes(data)
            except EncodingError:
                self.stats["dropped_auth"] += 1
                return
        # deliver to every endpoint that is attached here *and* named
        attached = self.attached
        for dest in data.dests:
            if dest in attached:
                self._deliver_local(dest, data)
        for neighbor in targets:
            self._forward(neighbor, data)

    def _deliver_local(self, dest: str, data: OverlayData) -> None:
        self.stats["delivered"] += 1
        if self._e2e_latency is not None and data.sent_at:
            self._e2e_latency.observe(self.simulator.now - data.sent_at)
        self.send(dest, OverlayDeliver(data), size_bytes=data.size_bytes)

    def _forward(self, neighbor_site: str, data: OverlayData) -> None:
        dst = self.neighbors[neighbor_site]
        mac = self.crypto.mac(self.name, dst, data)
        self.stats["forwarded"] += 1
        sent_at = self.simulator.now if self._hop_latency is not None else 0.0
        self.send(dst, OverlayForward(data, self.site_name, mac, sent_at),
                  size_bytes=data.size_bytes)

    # ------------------------------------------------------------------
    def on_recover(self) -> None:
        """A rejoining daemon loses its dedup state (volatile) and —
        when self-healing is on — restarts its link monitor, whose resumed
        hellos are what re-announce this daemon to its neighbours."""
        self._seen.clear()
        self._seen_origins.clear()
        self._seen_seqs.clear()
        if self.monitor is not None:
            self.monitor.start()
