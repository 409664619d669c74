"""Routing strategies for the overlay.

Two modes, matching the paper's discussion:

* ``shortest`` — classical link-state routing: each daemon forwards toward
  the destination site along the latency-weighted shortest path computed
  from the *advertised* topology. A routing attacker (or a DoS that delays
  a link without taking it down) is invisible to these tables, which is
  exactly the weakness the paper's intrusion-tolerant mode addresses.
* ``flooding`` — constrained flooding: every daemon forwards each *new*
  authenticated datagram on all links except the one it arrived on.
  Delivery is guaranteed whenever any correct path exists, at the price of
  bandwidth; daemons forward at no modelled cost (see
  :mod:`repro.spines.daemon`), so a flooding attacker delays nobody.

A strategy also decides which destinations one datagram may serve
(:meth:`RoutingStrategy.route_of`): destinations with one route share a
datagram. Next-hop and disjoint-path tables route per destination site,
so the endpoints homed at one site share every hop and one datagram; one
flood reaches every daemon, so a flooded datagram serves any set.

All strategies additionally support :meth:`RoutingStrategy.rebuild`: the
self-healing control plane (:mod:`repro.spines.monitor`) hands them an
*observed* topology view with dead links removed and degraded latencies
substituted, and they recompute forwarding state from it — shortest-path
and disjoint-path tables re-route, flooding prunes dead links.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..simnet.graph import dijkstra, shortest_path
from .topology import OverlayTopology

__all__ = [
    "RoutingStrategy",
    "ShortestPathRouting",
    "FloodingRouting",
    "DisjointPathsRouting",
    "make_routing",
]


class RoutingStrategy:
    """Chooses which neighbour daemons a datagram is forwarded to."""

    name = "abstract"

    def forward_targets(
        self, daemon_site: str, dest_site: str, arrived_from: Optional[str]
    ) -> List[str]:
        """Return neighbour sites the datagram should be forwarded to."""
        raise NotImplementedError

    def route_of(self, site: str) -> Optional[str]:
        """The route of the endpoints homed at ``site``: one datagram
        serves the destinations of one route, and an endpoint with no
        known home has route ``None``. Per-site tables route per site."""
        return site

    def rebuild(self, observed: OverlayTopology) -> None:
        """Recompute forwarding state from an observed topology view."""
        raise NotImplementedError


class ShortestPathRouting(RoutingStrategy):
    """Latency-weighted next-hop tables.

    Built from the advertised topology; a self-healing control plane may
    :meth:`rebuild` them from its observed view when links die or degrade.
    """

    name = "shortest"

    def __init__(self, topology: OverlayTopology) -> None:
        self.topology = topology
        self._next_hop: Dict[Tuple[str, str], Optional[str]] = {}
        self._rebuild()

    def _rebuild(self) -> None:
        self._next_hop.clear()
        for source in self.topology.graph.nodes:
            _, paths = dijkstra(self.topology.graph, source, "latency_ms")
            for dest, path in paths.items():
                self._next_hop[(source, dest)] = path[1] if len(path) >= 2 else None

    def rebuild(self, observed: OverlayTopology) -> None:
        self.topology = observed
        self._rebuild()

    def forward_targets(
        self, daemon_site: str, dest_site: str, arrived_from: Optional[str]
    ) -> List[str]:
        hop = self._next_hop.get((daemon_site, dest_site))
        return [hop] if hop is not None else []


class FloodingRouting(RoutingStrategy):
    """Constrained flooding: forward on every link except the arrival link."""

    name = "flooding"

    def __init__(self, topology: OverlayTopology) -> None:
        self.rebuild(topology)

    def route_of(self, site: str) -> Optional[str]:
        # one flood reaches every daemon, known home or not
        return None

    def rebuild(self, observed: OverlayTopology) -> None:
        # flooding has no tables beyond each site's neighbour tuple;
        # adopting the observed view (always a fresh copy from the control
        # plane) prunes dead links from the per-datagram fan-out
        self.topology = observed
        self._neighbors: Dict[str, Tuple[str, ...]] = {
            site.name: tuple(observed.neighbors(site.name))
            for site in observed.sites
        }

    def forward_targets(
        self, daemon_site: str, dest_site: str, arrived_from: Optional[str]
    ) -> List[str]:
        return [
            neighbor
            for neighbor in self._neighbors[daemon_site]
            if neighbor != arrived_from
        ]


class DisjointPathsRouting(RoutingStrategy):
    """K node-disjoint-path dissemination (Spines' middle ground).

    Every datagram is forwarded along ``k`` precomputed node-disjoint
    paths between the source and destination sites. This tolerates up to
    ``k - 1`` compromised/failed interior daemons at a fraction of
    flooding's bandwidth cost. Paths are computed from the advertised
    topology (like real dissemination-graph routing, they do not react to
    silent degradation — that remains flooding's advantage).

    Implementation note: forwarding state is per (source site, dest site):
    a daemon forwards to the next hop of every chosen path it lies on.
    Because the daemon-level API does not expose the origin site, the
    per-source plans are merged at build time into one
    ``(daemon, dest) -> targets`` table (a superset — slightly more
    redundancy, never less), so the per-datagram lookup is O(1) instead
    of a scan over all O(sites²) plans.
    """

    name = "disjoint"

    def __init__(self, topology: OverlayTopology, k: int = 2) -> None:
        self.topology = topology
        self.k = k
        #: (src_site, dst_site) -> daemon_site -> [next hops]
        self._plans: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
        #: (daemon_site, dest_site) -> merged next hops across all sources
        self._targets: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._build()

    def _build(self) -> None:
        self._plans.clear()
        sites = list(self.topology.graph.nodes)
        for src in sites:
            for dst in sites:
                if src == dst:
                    continue
                paths = self._k_disjoint_paths(src, dst)
                plan: Dict[str, List[str]] = {}
                for path in paths:
                    for hop, nxt in zip(path, path[1:]):
                        plan.setdefault(hop, [])
                        if nxt not in plan[hop]:
                            plan[hop].append(nxt)
                self._plans[(src, dst)] = plan
        self._merge_plans()

    def _merge_plans(self) -> None:
        """Precompute the per-(daemon, dest) union of all source plans.

        Iterates the plans in the same source-major insertion order as the
        former per-datagram scan, so the merged target order (and thus
        forwarding behaviour) is identical.
        """
        merged: Dict[Tuple[str, str], List[str]] = {}
        for (_, dst), plan in self._plans.items():
            for daemon_site, next_hops in plan.items():
                targets = merged.setdefault((daemon_site, dst), [])
                for nxt in next_hops:
                    if nxt not in targets:
                        targets.append(nxt)
        self._targets = {key: tuple(value) for key, value in merged.items()}

    def rebuild(self, observed: OverlayTopology) -> None:
        self.topology = observed
        self._build()

    def _k_disjoint_paths(self, src: str, dst: str) -> List[List[str]]:
        graph = self.topology.graph.copy()
        paths: List[List[str]] = []
        for _ in range(self.k):
            path = shortest_path(graph, src, dst, "latency_ms")
            if path is None:
                break
            paths.append(path)
            # remove interior nodes to force node-disjointness
            graph.remove_nodes_from(path[1:-1])
        return paths

    def forward_targets(
        self, daemon_site: str, dest_site: str, arrived_from: Optional[str]
    ) -> List[str]:
        targets = self._targets.get((daemon_site, dest_site), ())
        return [nxt for nxt in targets if nxt != arrived_from]


def make_routing(mode: str, topology: OverlayTopology, k: int = 2) -> RoutingStrategy:
    """Factory for routing strategies (``shortest``, ``disjoint``, or
    ``flooding``)."""
    if mode == "shortest":
        return ShortestPathRouting(topology)
    if mode == "flooding":
        return FloodingRouting(topology)
    if mode == "disjoint":
        return DisjointPathsRouting(topology, k=k)
    raise ValueError(f"unknown routing mode: {mode}")
