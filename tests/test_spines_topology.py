"""Tests for overlay topologies."""

import pytest

from repro.spines import (
    OverlayTopology,
    Site,
    continental_topology,
    lan_topology,
    wide_area_topology,
)


def test_site_kinds_validated():
    with pytest.raises(ValueError):
        Site("x", "bogus")


def test_site_daemon_name():
    assert Site("cc1").daemon_name == "spines:cc1"


def test_add_and_connect():
    topo = OverlayTopology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", latency_ms=5.0)
    assert topo.neighbors("a") == ["b"]
    assert topo.link_attributes("a", "b")["latency_ms"] == 5.0


def test_duplicate_site_rejected():
    topo = OverlayTopology()
    topo.add_site(Site("a"))
    with pytest.raises(ValueError):
        topo.add_site(Site("a"))


def test_connect_unknown_site_rejected():
    topo = OverlayTopology()
    topo.add_site(Site("a"))
    with pytest.raises(KeyError):
        topo.connect("a", "missing", 1.0)


def test_sites_of_kind():
    topo = wide_area_topology()
    assert {s.name for s in topo.sites_of_kind("control")} == {"cc1", "cc2"}
    assert {s.name for s in topo.sites_of_kind("data")} == {"dc1", "dc2"}
    assert {s.name for s in topo.sites_of_kind("field")} == {"field"}


def test_wide_area_is_connected_and_redundant():
    topo = wide_area_topology()
    # removing any single core site leaves the rest connected
    for removed in ("cc1", "cc2", "dc1", "dc2"):
        assert topo.is_connected_without([removed])


def test_shortest_paths_latency_weighted():
    topo = wide_area_topology()
    paths = topo.shortest_paths("field")
    assert paths["cc1"] == ["field", "cc1"]
    # dc2 via cc1 (3+12=15) beats via cc2 (5+10=15)... both 15; path exists
    assert paths["dc2"][0] == "field"
    assert paths["dc2"][-1] == "dc2"


def test_lan_topology_full_mesh():
    topo = lan_topology(4)
    for site in topo.sites:
        assert len(topo.neighbors(site.name)) == 3


def test_continental_topology_has_disjoint_paths():
    topo = continental_topology()
    assert len(topo.sites) == 10
    # at least two disjoint paths between the coasts (networkx as the
    # reference; the runtime does not depend on it)
    import networkx as nx

    assert nx.node_connectivity(nx.Graph(topo.graph.edges), "nyc", "lax") >= 2
