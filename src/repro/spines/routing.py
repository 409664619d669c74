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

One datagram carries a whole multicast, so a strategy routes a *set* of
destination sites (:meth:`RoutingStrategy.forward_targets`): a flood
reaches every daemon whatever the set; next-hop and disjoint-path tables
(:class:`PathTableRouting`) forward along the union of the routes that a
unicast from the origin's site to each destination site takes. A unicast
is the set of one, and walks only its own origin's route.

All strategies additionally support :meth:`RoutingStrategy.rebuild`: the
self-healing control plane (:mod:`repro.spines.monitor`) hands them an
*observed* topology view with dead links removed and degraded latencies
substituted, and they recompute forwarding state from it — shortest-path
and disjoint-path tables re-route, flooding prunes dead links.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, List, Optional, Tuple

from ..simnet.graph import dijkstra, shortest_path
from .topology import OverlayTopology

__all__ = [
    "RoutingStrategy",
    "PathTableRouting",
    "ShortestPathRouting",
    "FloodingRouting",
    "DisjointPathsRouting",
    "make_routing",
]


class RoutingStrategy:
    """Chooses which neighbour daemons a datagram is forwarded to."""

    name = "abstract"

    def forward_targets(
        self,
        daemon_site: str,
        origin_site: str,
        dest_sites: Collection[str],
        arrived_from: Optional[str],
    ) -> List[str]:
        """Return the neighbour sites that a datagram from an endpoint at
        ``origin_site``, now at ``daemon_site``, is forwarded to so that
        it reaches every site in ``dest_sites`` (the order of
        ``dest_sites`` decides the order of the targets)."""
        raise NotImplementedError

    def rebuild(self, observed: OverlayTopology) -> None:
        """Recompute forwarding state from an observed topology view."""
        raise NotImplementedError


class PathTableRouting(RoutingStrategy):
    """Routing along per-unicast plans, keyed by the origin's site.

    A subclass names, for each (origin site, destination site) pair, the
    next hops of every daemon a unicast between them reaches. A datagram
    is forwarded, at every daemon, to the next hops of each destination
    site whose unicast from the origin's site reaches that daemon, less
    the link it arrived on: a multicast walks the union of its unicasts'
    routes, and a unicast exactly its own. Keyed by origin, not by arrival
    link: a daemon first reached on one destination's route forwards on
    every other route it lies on too (a later copy is a duplicate).
    """

    def __init__(self, topology: OverlayTopology) -> None:
        self.topology = topology
        #: (origin site, daemon site) -> {destination site: next hops} for
        #: every destination whose unicast from the origin reaches the daemon
        self._along: Dict[Tuple[str, str], Dict[str, Tuple[str, ...]]] = {}
        self._build()

    def _unicast_plans(
        self,
    ) -> Iterator[Tuple[Tuple[str, str], Dict[str, Tuple[str, ...]]]]:
        """Yield ((origin site, destination site), {daemon site: next
        hops}) for every pair a unicast is routed between."""
        raise NotImplementedError

    def _build(self) -> None:
        along: Dict[Tuple[str, str], Dict[str, Tuple[str, ...]]] = {}
        for (origin, dest), plan in self._unicast_plans():
            for at, hops in plan.items():
                along.setdefault((origin, at), {})[dest] = hops
        self._along = along

    def rebuild(self, observed: OverlayTopology) -> None:
        self.topology = observed
        self._build()

    def forward_targets(
        self,
        daemon_site: str,
        origin_site: str,
        dest_sites: Collection[str],
        arrived_from: Optional[str],
    ) -> List[str]:
        along = self._along.get((origin_site, daemon_site))
        if along is None:
            return []
        targets: List[str] = []
        for dest in dest_sites:
            if dest in along:
                for nxt in along[dest]:
                    if nxt != arrived_from and nxt not in targets:
                        targets.append(nxt)
        return targets


class ShortestPathRouting(PathTableRouting):
    """Latency-weighted next-hop tables.

    Each site's next hop towards each destination is the first hop of its
    own shortest path; a unicast follows the *hop-by-hop path*, and a
    multicast the union of its destinations' hop-by-hop paths.

    Built from the advertised topology; a self-healing control plane may
    :meth:`rebuild` them from its observed view when links die or degrade.
    """

    name = "shortest"

    def _unicast_plans(
        self,
    ) -> Iterator[Tuple[Tuple[str, str], Dict[str, Tuple[str, ...]]]]:
        graph = self.topology.graph
        next_hop: Dict[Tuple[str, str], str] = {}
        for source in graph.nodes:
            _, paths = dijkstra(graph, source, "latency_ms")
            for dest, path in paths.items():
                if len(path) >= 2:
                    next_hop[(source, dest)] = path[1]
        for origin in graph.nodes:
            for dest in graph.nodes:
                plan: Dict[str, Tuple[str, ...]] = {}
                at = origin
                while (at, dest) in next_hop and at not in plan:
                    plan[at] = (next_hop[(at, dest)],)
                    at = next_hop[(at, dest)]
                yield (origin, dest), plan


class FloodingRouting(RoutingStrategy):
    """Constrained flooding: forward on every link except the arrival link."""

    name = "flooding"

    def __init__(self, topology: OverlayTopology) -> None:
        self.rebuild(topology)

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
        self,
        daemon_site: str,
        origin_site: str,
        dest_sites: Collection[str],
        arrived_from: Optional[str],
    ) -> List[str]:
        # one flood reaches every daemon, whichever sites it is for
        return [
            neighbor
            for neighbor in self._neighbors[daemon_site]
            if neighbor != arrived_from
        ]


class DisjointPathsRouting(PathTableRouting):
    """K node-disjoint-path dissemination (Spines' middle ground).

    Every datagram is forwarded along ``k`` precomputed node-disjoint
    paths between the source and destination sites. This tolerates up to
    ``k - 1`` compromised/failed interior daemons at a fraction of
    flooding's bandwidth cost. Paths are computed from the advertised
    topology (like real dissemination-graph routing, they do not react to
    silent degradation — that remains flooding's advantage).

    Forwarding state is per (source site, dest site): a daemon forwards to
    the next hop of every path of the datagram's own origin that it lies
    on, so a unicast walks exactly its ``k`` paths.
    """

    name = "disjoint"

    def __init__(self, topology: OverlayTopology, k: int = 2) -> None:
        self.k = k
        super().__init__(topology)

    def _unicast_plans(
        self,
    ) -> Iterator[Tuple[Tuple[str, str], Dict[str, Tuple[str, ...]]]]:
        sites = list(self.topology.graph.nodes)
        for src in sites:
            for dst in sites:
                if src == dst:
                    continue
                plan: Dict[str, List[str]] = {}
                for path in self._k_disjoint_paths(src, dst):
                    for hop, nxt in zip(path, path[1:]):
                        hops = plan.setdefault(hop, [])
                        if nxt not in hops:
                            hops.append(nxt)
                yield (src, dst), {hop: tuple(hops) for hop, hops in plan.items()}

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
