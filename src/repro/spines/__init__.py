"""Spines: the intrusion-tolerant overlay network (reimplementation).

Public API: :class:`OverlayTopology` + builders, :class:`SpinesOverlay`
(daemon fleet + endpoint attachment), :class:`OverlayStack` (endpoint-side
send/multicast/unwrap), routing strategies, the self-healing control plane
(:class:`LinkMonitor` / :class:`OverlayControlPlane`), and the daemon
itself for tests.
"""

from .daemon import SpinesDaemon
from .messages import (
    OverlayData,
    OverlayDeliver,
    OverlayForward,
    OverlayHello,
    OverlayIngress,
)
from .monitor import LinkMonitor, LinkMonitorConfig, OverlayControlPlane
from .overlay import OverlayStack, SpinesOverlay
from .routing import (
    DisjointPathsRouting,
    FloodingRouting,
    RoutingStrategy,
    ShortestPathRouting,
    make_routing,
)
from .topology import (
    OverlayTopology,
    Site,
    continental_topology,
    lan_topology,
    wide_area_topology,
)

__all__ = [
    "SpinesDaemon",
    "OverlayData",
    "OverlayDeliver",
    "OverlayForward",
    "OverlayHello",
    "OverlayIngress",
    "LinkMonitor",
    "LinkMonitorConfig",
    "OverlayControlPlane",
    "OverlayStack",
    "SpinesOverlay",
    "DisjointPathsRouting",
    "FloodingRouting",
    "RoutingStrategy",
    "ShortestPathRouting",
    "make_routing",
    "OverlayTopology",
    "Site",
    "continental_topology",
    "lan_topology",
    "wide_area_topology",
]
