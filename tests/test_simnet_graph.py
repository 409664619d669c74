"""``repro.simnet.graph`` against networkx, the reference it replaces.

Every order the runtime depends on is compared, not only the results:
edge iteration and neighbour order drive the overlay's link programming
and the flooding fan-out, and among equal-length paths the search picks
the one networkx picks. Small integer weights make such ties common.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scada.grid import build_radial_grid
from repro.simnet import Simulator
from repro.simnet.graph import Graph, components, dijkstra, shortest_path
from repro.spines import (
    FloodingRouting,
    OverlayControlPlane,
    continental_topology,
    lan_topology,
    wide_area_topology,
)
from repro.spines import routing as routing_module
from repro.spines import topology as topology_module
from repro.spines.monitor import LinkMonitorConfig
from repro.spines.routing import DisjointPathsRouting, ShortestPathRouting


@st.composite
def graphs(draw):
    """The same random graph of at most 10 nodes built twice, ours and
    networkx's, by one sequence of insertions and then removals."""
    count = draw(st.integers(min_value=1, max_value=10))
    nodes = draw(st.permutations(range(count)))
    pairs = [(a, b) for a in range(count) for b in range(count) if a != b]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.sampled_from([None, 1, 2, 3])),
        max_size=25,
    )) if pairs else []
    # some nodes come in alone, the others with their first edge
    alone = draw(st.integers(min_value=0, max_value=count))
    ours, theirs = Graph(), nx.Graph()
    for node in nodes[:alone]:
        ours.add_node(node)
        theirs.add_node(node)
    for (a, b), weight in edges:
        attrs = {} if weight is None else {"w": weight}
        ours.add_edge(a, b, **attrs)
        theirs.add_edge(a, b, **attrs)
    for node in nodes[alone:]:
        ours.add_node(node)
        theirs.add_node(node)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        present = list(theirs.edges)
        if present and draw(st.booleans()):
            a, b = draw(st.sampled_from(present))
            ours.remove_edge(a, b)
            theirs.remove_edge(a, b)
        else:
            gone = draw(st.lists(st.sampled_from(nodes), max_size=2))
            ours.remove_nodes_from(gone)
            theirs.remove_nodes_from(gone)
    return ours, theirs


def _orders(ours, theirs):
    assert ours.nodes == list(theirs.nodes)
    assert ours.edges == list(theirs.edges)
    assert {n: list(nbrs.items()) for n, nbrs in ours.adj.items()} == {
        n: list(theirs.adj[n].items()) for n in theirs.nodes
    }


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_orders_match_networkx_also_after_copy(pair):
    ours, theirs = pair
    _orders(ours, theirs)
    clone = ours.copy()
    _orders(clone, theirs.copy())
    # the copy is independent: its attribute dicts are its own
    for a, b in clone.edges:
        clone.adj[a][b]["w"] = -1
    _orders(ours, theirs)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_searches_and_components_match_networkx(pair, data):
    ours, theirs = pair
    assert list(components(ours.adj)) == list(nx.connected_components(theirs))
    if not ours.nodes:
        return
    source = data.draw(st.sampled_from(ours.nodes))
    dist, paths = dijkstra(ours, source, "w")
    assert list(dist.items()) == list(
        nx.single_source_dijkstra_path_length(theirs, source, weight="w").items())
    assert list(paths.items()) == list(
        nx.single_source_dijkstra_path(theirs, source, weight="w").items())
    for target in ours.nodes:
        try:
            expected = nx.shortest_path(theirs, source, target, weight="w")
        except nx.NetworkXNoPath:
            expected = None
        assert shortest_path(ours, source, target, "w") == expected, (source, target)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=99),
       st.data())
def test_grid_energization_matches_the_networkx_sweep(size, seed, data):
    """Same set, laid out the same way, so sums over it keep their order."""
    grid = build_radial_grid(num_substations=size, seed=seed)
    for sub in data.draw(st.lists(st.sampled_from(sorted(grid.substations)), max_size=4)):
        for breaker in grid.substations[sub].breakers:
            grid.set_breaker(sub, breaker, False)
    closed = nx.Graph()
    closed.add_nodes_from(grid.graph.nodes)
    closed.add_edges_from(e for e in grid.graph.edges if grid.line_energized(*e))
    expected = set()
    for component in nx.connected_components(closed):
        if any(grid.substations[n].is_source for n in component):
            expected |= component
    assert list(grid.energized_substations()) == list(expected)


def _nx_dijkstra(graph, source, weight):
    return (nx.single_source_dijkstra_path_length(graph, source, weight=weight),
            nx.single_source_dijkstra_path(graph, source, weight=weight))


def _nx_shortest_path(graph, source, target, weight):
    try:
        return nx.shortest_path(graph, source, target, weight=weight)
    except nx.NetworkXNoPath:
        return None


BUILDERS = {
    **{f"lan{n}": (lambda n=n: lan_topology(n)) for n in range(1, 7)},
    "wide_area": wide_area_topology,
    "continental": continental_topology,
}


def _tables(build, removed, over_networkx, monkeypatch):
    """Each strategy's forwarding state on ``build()`` with ``removed`` cut
    through the control plane's observed copy, on our graphs or on
    networkx's (the same classes, with networkx underneath)."""
    with monkeypatch.context() as patch:
        if over_networkx:
            patch.setattr(topology_module, "Graph", nx.Graph)
            patch.setattr(topology_module, "dijkstra", _nx_dijkstra)
            patch.setattr(routing_module, "dijkstra", _nx_dijkstra)
            patch.setattr(routing_module, "shortest_path", _nx_shortest_path)
        tables = {}
        for cls in (ShortestPathRouting, DisjointPathsRouting, FloodingRouting):
            topology = build()
            simulator = Simulator(seed=1)
            plane = OverlayControlPlane(simulator, topology, cls(topology))
            if removed is not None:
                plane.report_link_down(*removed)
                simulator.run_for(LinkMonitorConfig.reroute_delay_ms + 1.0)
                assert not plane.observed.has_link(*removed)
            routing = plane.routing
            observed = plane.observed
            tables[cls.name] = (
                [(site.name, observed.neighbors(site.name)) for site in observed.sites],
                list(observed.graph.edges),
                list(getattr(routing, "_along", {}).items()),
                list(getattr(routing, "_neighbors", {}).items()),
                observed.component_count(),
            )
        return tables


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_routing_tables_match_networkx_on_every_single_link_removal(name, monkeypatch):
    build = BUILDERS[name]
    for removed in [None, *build().graph.edges]:
        assert _tables(build, removed, False, monkeypatch) == \
            _tables(build, removed, True, monkeypatch), removed
