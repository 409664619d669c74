"""Overlay facade: builds daemons from a topology and attaches endpoints.

The :class:`SpinesOverlay` is what deployment code uses: it instantiates
one :class:`SpinesDaemon` per site, programs the underlying simnet links
from the topology's latencies, and hands each endpoint an
:class:`OverlayStack` — the endpoint-side API (``send``/``multicast``/
``unwrap``) that plays the role of the Spines client library in the real
system.

With ``self_healing=True`` the overlay also builds the control plane from
:mod:`repro.spines.monitor`: one :class:`LinkMonitor` per daemon probing
its links with authenticated hellos, reporting to a shared
:class:`OverlayControlPlane` that reroutes around dead/degraded links.
Static overlays (the default) construct none of it and behave exactly as
before.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..crypto.provider import CryptoProvider, FastCrypto
from ..obs import NULL_OBS, Observability
from ..simnet import LinkSpec, Network, Process, Simulator
from .daemon import SpinesDaemon
from .messages import OverlayData, OverlayDeliver, OverlayIngress
from .monitor import LinkMonitor, OverlayControlPlane
from .routing import make_routing
from .topology import OverlayTopology

__all__ = ["SpinesOverlay", "OverlayStack"]


class OverlayStack:
    """Endpoint-side overlay API (the 'Spines library' linked into apps)."""

    def __init__(self, overlay: "SpinesOverlay", endpoint: Process, site: str) -> None:
        self._overlay = overlay
        self._endpoint = endpoint
        self.site = site
        self._seq = 0
        # send() runs once per outbound app message; resolve the loop
        # invariants here instead of per call
        self.daemon_name = SpinesDaemon.daemon_name(site)
        self._origin = endpoint.name
        self._endpoint_send = endpoint.send
        self._obs_enabled = overlay.obs.enabled
        self._simulator = overlay.simulator

    def send(self, dest_endpoint: str, payload: Any, size_bytes: int = 256) -> bool:
        """Send ``payload`` to another overlay endpoint by name."""
        return self._submit((dest_endpoint,), payload, size_bytes)

    def multicast(self, dests: Sequence[str], payload: Any,
                  size_bytes: int = 256) -> None:
        """Send ``payload`` to every endpoint in ``dests`` as one datagram
        naming them all: one ingress, one dedup key and one link MAC per
        hop, whatever the overlay's mode (a routed one forwards it along
        the union of the paths to the destination sites,
        :meth:`~repro.spines.routing.RoutingStrategy.forward_targets`).
        """
        if dests:
            self._submit(tuple(dests), payload, size_bytes)

    def _submit(self, dests: Tuple[str, ...], payload: Any, size_bytes: int) -> bool:
        self._seq += 1
        data = OverlayData(
            self._origin,
            dests,
            self._seq,
            payload,
            size_bytes,
            self._simulator.now if self._obs_enabled else 0.0,
        )
        return self._endpoint_send(self.daemon_name, OverlayIngress(data),
                                   size_bytes=size_bytes)

    @staticmethod
    def unwrap(message: Any) -> Optional[Tuple[str, Any]]:
        """If ``message`` is an overlay delivery, return (origin, payload)."""
        if isinstance(message, OverlayDeliver):
            return message.data.origin, message.data.payload
        return None


class SpinesOverlay:
    """All daemons of one overlay network plus endpoint attachment state."""

    #: one-way latency of the access link between an endpoint and its
    #: site's daemon (same machine room)
    last_mile_latency_ms = 0.1

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        topology: OverlayTopology,
        mode: str = "flooding",
        crypto: Optional[CryptoProvider] = None,
        self_healing: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.topology = topology
        self.mode = mode
        self.crypto = crypto or FastCrypto()
        self.obs = obs if obs is not None else NULL_OBS
        self.routing = make_routing(mode, topology)
        self.daemons: Dict[str, SpinesDaemon] = {}
        self._endpoint_home: Dict[str, str] = {}
        for site in topology.sites:
            self.daemons[site.name] = SpinesDaemon(
                site.name, simulator, network, self.routing, self.crypto, obs=obs,
            )
        for a, b in topology.graph.edges:
            attrs = topology.link_attributes(a, b)
            spec = LinkSpec(
                latency_ms=attrs.get("latency_ms", 1.0),
                jitter_ms=attrs.get("jitter_ms", 0.0),
                loss=attrs.get("loss", 0.0),
                bandwidth_mbps=attrs.get("bandwidth_mbps", 0.0),
            )
            network.set_link(SpinesDaemon.daemon_name(a), SpinesDaemon.daemon_name(b), spec)
            self.daemons[a].add_neighbor(b)
            self.daemons[b].add_neighbor(a)
        # Daemons share one endpoint-home map so routing can resolve any
        # destination (link-state routing advertises client attachment).
        for daemon in self.daemons.values():
            daemon.endpoint_home = self._endpoint_home
        # Self-healing control plane: shared across daemons (they share the
        # routing instance too, so one rebuild reroutes the whole overlay).
        self.control_plane: Optional[OverlayControlPlane] = None
        if self_healing:
            self.control_plane = OverlayControlPlane(
                simulator, topology, self.routing, obs=self.obs,
            )
            for site_name in sorted(self.daemons):
                daemon = self.daemons[site_name]
                monitor = LinkMonitor(daemon, self.control_plane)
                daemon.monitor = monitor
                self.control_plane.monitors[site_name] = monitor
                monitor.start()

    def attach(self, endpoint: Process, site_name: str) -> OverlayStack:
        """Attach an endpoint process to its site's daemon."""
        if site_name not in self.daemons:
            raise KeyError(f"unknown site {site_name}")
        if endpoint.name in self._endpoint_home:
            raise ValueError(f"endpoint {endpoint.name} already attached")
        self._endpoint_home[endpoint.name] = site_name
        daemon = self.daemons[site_name]
        daemon.attach_endpoint(endpoint.name)
        spec = LinkSpec(latency_ms=self.last_mile_latency_ms, jitter_ms=0.02)
        self.network.set_link(endpoint.name, daemon.name, spec)
        return OverlayStack(self, endpoint, site_name)

    def endpoint_site(self, endpoint_name: str) -> Optional[str]:
        return self._endpoint_home.get(endpoint_name)

    def daemon(self, site_name: str) -> SpinesDaemon:
        return self.daemons[site_name]

    def total_stats(self) -> Dict[str, int]:
        """Aggregate daemon counters (for overlay-cost reporting)."""
        totals: Dict[str, int] = {}
        for daemon in self.daemons.values():
            for key, value in daemon.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals
