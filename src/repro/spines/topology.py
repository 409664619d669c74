"""Overlay topologies.

The paper deploys Spines daemons at each site (control centers, data
centers, and client sites) connected by WAN links, and evaluates Spire over
both a LAN and an emulated/real wide-area topology spanning US East-coast
sites. The builders here generate those shapes with representative
latencies; the exact testbed latencies are not public, so values are chosen
to match the paper's reported scale (LAN well under 1 ms, WAN links a few
to ~20 ms one-way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..simnet.graph import Graph, components, dijkstra

__all__ = ["Site", "OverlayTopology", "lan_topology", "wide_area_topology", "continental_topology"]


@dataclass(frozen=True)
class Site:
    """A physical site hosting one overlay daemon plus attached endpoints.

    kind: ``control`` (control center — replicas + ability to command field
    devices), ``data`` (data center — replicas only), or ``field`` (client
    site — substations with RTU proxies, or an HMI site).
    """

    name: str
    kind: str = "control"

    def __post_init__(self) -> None:
        if self.kind not in ("control", "data", "field"):
            raise ValueError(f"unknown site kind: {self.kind}")

    @property
    def daemon_name(self) -> str:
        return f"spines:{self.name}"


class OverlayTopology:
    """Sites plus the daemon-to-daemon link graph (latencies in ms)."""

    def __init__(self) -> None:
        self.graph = Graph()
        self._sites: Dict[str, Site] = {}

    # ------------------------------------------------------------------
    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ValueError(f"duplicate site {site.name}")
        self._sites[site.name] = site
        self.graph.add_node(site.name)
        return site

    def connect(self, a: str, b: str, latency_ms: float, jitter_ms: float = 0.0,
                loss: float = 0.0, bandwidth_mbps: float = 0.0) -> None:
        """Add a (bidirectional) daemon link between two sites."""
        for name in (a, b):
            if name not in self._sites:
                raise KeyError(f"unknown site {name}")
        self.graph.add_edge(a, b, latency_ms=latency_ms, jitter_ms=jitter_ms,
                            loss=loss, bandwidth_mbps=bandwidth_mbps)

    def copy(self) -> "OverlayTopology":
        """Independent copy (shared :class:`Site` records, copied graph).

        The self-healing control plane derives its *observed* topology
        view from a copy of the advertised one, so link removals and
        latency updates never mutate the deployment's source of truth.
        """
        clone = OverlayTopology()
        clone.graph = self.graph.copy()
        clone._sites = dict(self._sites)
        return clone

    def disconnect(self, a: str, b: str) -> None:
        """Remove a link (observed-topology mutation; no-op if absent)."""
        if self.graph.has_edge(a, b):
            self.graph.remove_edge(a, b)

    def has_link(self, a: str, b: str) -> bool:
        return self.graph.has_edge(a, b)

    def set_link_latency(self, a: str, b: str, latency_ms: float) -> None:
        """Override a link's latency (observed degradation)."""
        self.graph.adj[a][b]["latency_ms"] = latency_ms

    # ------------------------------------------------------------------
    def site(self, name: str) -> Site:
        return self._sites[name]

    @property
    def sites(self) -> List[Site]:
        return list(self._sites.values())

    def sites_of_kind(self, kind: str) -> List[Site]:
        return [s for s in self._sites.values() if s.kind == kind]

    def neighbors(self, name: str) -> List[str]:
        return list(self.graph.adj[name])

    def link_attributes(self, a: str, b: str) -> Dict[str, float]:
        return dict(self.graph.adj[a][b])

    def shortest_paths(self, source: str) -> Dict[str, List[str]]:
        """Latency-weighted shortest paths from ``source`` to every site."""
        return dijkstra(self.graph, source, "latency_ms")[1]

    def is_connected_without(self, removed: Iterable[str]) -> bool:
        """Connectivity check after removing sites (for resilience math)."""
        g = self.graph.copy()
        g.remove_nodes_from(list(removed))
        return sum(1 for _ in components(g.adj)) == 1

    def is_connected(self) -> bool:
        return self.component_count() == 1

    def component_count(self) -> int:
        return sum(1 for _ in components(self.graph.adj))


def lan_topology(num_sites: int = 1) -> OverlayTopology:
    """Single-LAN topology: all sites in one machine room (~0.2 ms links)."""
    topo = OverlayTopology()
    names = [f"lan{i}" for i in range(num_sites)]
    for name in names:
        topo.add_site(Site(name, "control"))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            topo.connect(a, b, latency_ms=0.2, jitter_ms=0.05)
    return topo


def wide_area_topology() -> OverlayTopology:
    """The paper's deployment shape: 2 control centers + 2 data centers
    + a field site, spread across the US East coast, fully meshed with
    WAN latencies of a few to ~20 ms one-way, plus a field site attached
    to both control centers.
    """
    topo = OverlayTopology()
    topo.add_site(Site("cc1", "control"))   # primary control center
    topo.add_site(Site("cc2", "control"))   # backup control center
    topo.add_site(Site("dc1", "data"))      # commodity data center 1
    topo.add_site(Site("dc2", "data"))      # commodity data center 2
    topo.add_site(Site("field", "field"))   # substation / HMI site
    wan_links = [
        ("cc1", "cc2", 4.0), ("cc1", "dc1", 8.0), ("cc1", "dc2", 12.0),
        ("cc2", "dc1", 6.0), ("cc2", "dc2", 10.0), ("dc1", "dc2", 9.0),
        ("field", "cc1", 3.0), ("field", "cc2", 5.0),
    ]
    for a, b, latency in wan_links:
        topo.connect(a, b, latency_ms=latency, jitter_ms=0.5)
    return topo


def continental_topology() -> OverlayTopology:
    """A 10-daemon sparse continental overlay for routing-resilience
    experiments (multiple disjoint paths between any two sites)."""
    topo = OverlayTopology()
    cities = ["nyc", "dc", "atl", "chi", "dal", "den", "lax", "sfo", "sea", "slc"]
    kinds = {"nyc": "control", "dc": "control", "chi": "data", "dal": "data"}
    for city in cities:
        topo.add_site(Site(city, kinds.get(city, "field")))
    links = [
        ("nyc", "dc", 2.5), ("nyc", "chi", 9.0), ("dc", "atl", 7.0),
        ("dc", "chi", 8.5), ("atl", "dal", 9.5), ("chi", "den", 11.0),
        ("chi", "dal", 10.0), ("dal", "lax", 15.0), ("den", "slc", 6.0),
        ("den", "dal", 8.0), ("slc", "sfo", 8.0), ("sfo", "lax", 4.0),
        ("sfo", "sea", 9.0), ("sea", "slc", 10.0), ("lax", "den", 12.0),
        ("nyc", "atl", 10.0),
    ]
    for a, b, latency in links:
        topo.connect(a, b, latency_ms=latency, jitter_ms=0.5)
    return topo
