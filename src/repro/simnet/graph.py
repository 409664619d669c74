"""Undirected graphs and the three searches the overlay and the grid run.

Every order is networkx 3.x's, tie for tie (node and neighbour insertion,
edges, copies, heap tie-breaks), because routing tables, link programming
and the flooding fan-out follow them; ``tests/test_simnet_graph.py``
checks them against networkx.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, islice
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = ["Graph", "dijkstra", "shortest_path", "components"]


class Graph:
    """``adj[node][neighbour]``: the edge's attribute dict, shared by both ends."""

    def __init__(self) -> None:
        self.adj: Dict[Hashable, Dict[Hashable, Dict[str, Any]]] = {}

    @property
    def nodes(self) -> List[Hashable]:
        return list(self.adj)

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """Each edge once, from the endpoint inserted first."""
        rank = {node: i for i, node in enumerate(self.adj)}
        return [(a, b) for a, nbrs in self.adj.items() for b in nbrs if rank[b] >= rank[a]]

    def add_node(self, node: Hashable) -> None:
        self.adj.setdefault(node, {})

    def add_edge(self, a: Hashable, b: Hashable, **attrs: Any) -> None:
        data = self.adj.setdefault(a, {}).get(b, {})
        data.update(attrs)
        self.add_node(b)
        self.adj[a][b] = self.adj[b][a] = data

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        return b in self.adj.get(a, ())

    def remove_edge(self, a: Hashable, b: Hashable) -> None:
        del self.adj[a][b], self.adj[b][a]

    def remove_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            for nbr in self.adj.pop(node, ()):
                del self.adj[nbr][node]

    def copy(self) -> "Graph":
        """An independent copy; re-adding edges from both ends may reorder neighbours."""
        clone = Graph()
        clone.adj = {node: {} for node in self.adj}
        for a, nbrs in self.adj.items():
            for b, data in nbrs.items():
                if b not in clone.adj[a]:
                    clone.adj[a][b] = clone.adj[b][a] = dict(data)
        return clone


def dijkstra(graph: Graph, source: Hashable, weight: str) -> Tuple[Dict, Dict]:
    """Distances and paths from ``source``, both keyed in the order nodes
    settle. An edge without a ``weight`` attribute weighs 1."""
    dist: Dict[Hashable, float] = {}
    pred: Dict[Hashable, Hashable] = {}
    seen, tie, fringe = {source: 0}, count(1), [(0, 0, source)]
    while fringe:
        length, _, node = heappop(fringe)
        if node in dist:
            continue
        dist[node] = length
        for nbr, data in graph.adj[node].items():
            through = length + data.get(weight, 1)
            if nbr not in dist and (nbr not in seen or through < seen[nbr]):
                seen[nbr] = through
                heappush(fringe, (through, next(tie), nbr))
                pred[nbr] = node
    paths = {source: [source]}
    for node in islice(dist, 1, None):
        paths[node] = paths[pred[node]] + [node]
    return dist, paths


def shortest_path(graph: Graph, source: Hashable, target: Hashable, weight: str) -> Optional[List]:
    """``networkx.shortest_path(G, s, t, weight=w)``'s bidirectional search, which may
    break ties unlike :func:`dijkstra`; None when ``target`` is unreachable."""
    if source == target:
        return [source]
    # index 0 searches forward from source, 1 backward from target
    dists: Tuple[Dict, Dict] = ({}, {})
    paths: Tuple[Dict, Dict] = ({source: [source]}, {target: [target]})
    seen: Tuple[Dict, Dict] = ({source: 0}, {target: 0})
    fringes = ([(0, 0, source)], [(0, 1, target)])
    tie, best, meet, way = count(2), None, None, 1
    while fringes[0] and fringes[1]:
        way = 1 - way
        length, _, node = heappop(fringes[way])
        if node in dists[way]:
            continue
        dists[way][node] = length
        if node in dists[1 - way]:
            return paths[0][meet] + paths[1][meet][-2::-1]
        for nbr, data in graph.adj[node].items():
            through = length + data.get(weight, 1)
            if nbr not in dists[way] and (nbr not in seen[way] or through < seen[way][nbr]):
                seen[way][nbr] = through
                heappush(fringes[way], (through, next(tie), nbr))
                paths[way][nbr] = paths[way][node] + [nbr]
                if nbr in seen[1 - way]:
                    total = through + seen[1 - way][nbr]
                    if best is None or best > total:
                        best, meet = total, nbr
    return None


def components(adj: Mapping[Hashable, Iterable[Hashable]]) -> Iterator[Set[Hashable]]:
    """Connected components of ``Graph.adj`` or any node -> neighbours
    mapping, in node order, each set filled breadth-first."""
    assigned: Set[Hashable] = set()
    for start in adj:
        if start in assigned:
            continue
        found, level = {start}, [start]
        while level:
            frontier, level = level, []
            for node in frontier:
                for nbr in adj[node]:
                    if nbr not in found:
                        found.add(nbr)
                        level.append(nbr)
        assigned |= found
        yield found
