"""Topology planning and wiring for Spire deployments.

Fleet-scale scenarios (``repro.fleet``) construct deployments through the
same machinery as the small-n figures without inheriting the small-n field
layer, so construction is split in two:

:class:`TopologyBuilder`
    Pure planning — placement of ``3f+2k+1`` replicas over the overlay
    sites, replica name/site layout, the Prime configuration, and the
    home sites for field devices and HMIs.  No simulator side effects,
    so plans are cheap to build and test at any ``n``.

:class:`DeploymentWiring`
    Imperative assembly — instantiates replicas, the field layer, and
    HMIs onto one deployment context and wires the subscriptions.  The
    small-n figures and the fleet scenarios both construct through this
    class; the fleet path swaps only the field stage
    (:func:`repro.fleet.deploy.build_fleet_field`).

Construction order is part of the contract: heap sequence numbers and
process registration order break ties, so RTUs → proxy → overlay attach → device
links stays in that order (pinned chaos/fig3/fig6 fingerprints enforce it).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..prime.config import PrimeConfig, lan_prime_config, wan_prime_config
from ..replication import OverlayTransport
from ..scada.poller import build_radial_field
from ..scada.region import DEVICE_LINK
from ..spines.topology import OverlayTopology
from .hmi import HmiClient
from .master import ScadaMasterApp
from .proxy import RtuProxy
from .replica import THRESHOLD_GROUP, SpireReplica

__all__ = ["TopologyBuilder", "DeploymentWiring"]


class TopologyBuilder:
    """Plans where everything goes before anything is instantiated."""

    def __init__(self, options, topology: OverlayTopology) -> None:
        self.options = options
        self.topology = topology

    # ------------------------------------------------------------------
    # Replica placement
    # ------------------------------------------------------------------
    def default_placement(self) -> Dict[str, int]:
        """Round-robin the required replicas across control/data sites,
        control centers first — the paper's 2+2+1+1 shape at n=6, and the
        same discipline at any n (n=31 gives 8+8+8+7)."""
        needed = 3 * self.options.f + 2 * self.options.k + 1
        site_names = [site.name for site in self.topology.sites
                      if site.kind in ("control", "data")]
        control_first = sorted(
            site_names,
            key=lambda name: (self.topology.site(name).kind != "control", name),
        )
        placement = {name: 0 for name in control_first}
        index = 0
        for _ in range(needed):
            placement[control_first[index % len(control_first)]] += 1
            index += 1
        return {name: count for name, count in placement.items() if count > 0}

    def replica_layout(
        self, placement: Dict[str, int]
    ) -> Tuple[List[str], List[str]]:
        """Replica names plus their site assignment, in deterministic
        (sorted-site, then index) order."""
        names: List[str] = []
        sites: List[str] = []
        for site_name in sorted(placement):
            for _ in range(placement[site_name]):
                names.append(f"replica:{len(names)}")
                sites.append(site_name)
        return names, sites

    def prime_config(self, names: List[str]) -> PrimeConfig:
        """The Prime configuration for the planned replica set, with the
        deployment's checkpoint/batching knobs applied."""
        opts = self.options
        preset = lan_prime_config if opts.prime_preset == "lan" else wan_prime_config
        config = preset(tuple(names), f=opts.f, k=opts.k)
        config = dataclasses.replace(
            config, checkpoint_interval_seqs=opts.checkpoint_interval_seqs
        )
        if opts.batching is not None:
            # Batch knobs map onto Prime's pre-order aggregation: the
            # origin's size+delay flush IS the batch cutter, so batch
            # boundaries are fixed by the agreed order, not local clocks.
            overrides = dict(batch_max_updates=opts.batching.max_batch_size)
            if opts.batching.max_batch_delay_ms is not None:
                overrides["batch_interval_ms"] = opts.batching.max_batch_delay_ms
            config = dataclasses.replace(config, **overrides)
        return config

    # ------------------------------------------------------------------
    # Endpoint homes
    # ------------------------------------------------------------------
    def field_site(self) -> str:
        field_sites = [s.name for s in self.topology.sites_of_kind("field")]
        return field_sites[0] if field_sites else self.topology.sites[0].name

    def field_sites(self) -> List[str]:
        """All field sites (fleet regions are distributed across them)."""
        sites = [s.name for s in self.topology.sites_of_kind("field")]
        return sites or [self.topology.sites[0].name]

    def hmi_site(self) -> str:
        control_sites = [s.name for s in self.topology.sites_of_kind("control")]
        return control_sites[0] if control_sites else self.topology.sites[0].name


class DeploymentWiring:
    """Assembles components onto a deployment context.

    The context (a :class:`~repro.core.deployment.SpireDeployment`) owns
    the simulator, network, overlay, crypto, observability handle, and
    recorders; the wiring instantiates the component layers onto it in
    the canonical order: replicas → field → HMIs → subscriptions.
    """

    def __init__(self, deployment, builder: TopologyBuilder) -> None:
        self.deployment = deployment
        self.builder = builder

    # ------------------------------------------------------------------
    def build_replicas(self) -> None:
        d = self.deployment
        opts = d.options
        placement = opts.placement or self.builder.default_placement()
        d.placement = placement
        names, sites = self.builder.replica_layout(placement)
        config = self.builder.prime_config(names)
        d.prime_config = config
        d.crypto.create_threshold_group(
            THRESHOLD_GROUP, config.n, config.signing_threshold
        )
        d.replicas = []
        d.replica_sites = {}
        for name, site_name in zip(names, sites):
            app = ScadaMasterApp()
            d.obs.read("master.status_applied", lambda app=app: app.status_updates_applied)
            d.obs.read("master.commands_applied", lambda app=app: app.commands_applied)
            d.obs.read("master.stale_dropped", lambda app=app: app.stale_updates_dropped)
            replica = SpireReplica(
                name, d.simulator, d.network, config, d.crypto,
                app=app, obs=d.obs,
            )
            stack = d.overlay.attach(replica, site_name)
            replica.transport = OverlayTransport(stack, obs=d.obs)
            d.diversity.assign(name)
            d.replicas.append(replica)
            d.replica_sites[name] = site_name

    # ------------------------------------------------------------------
    def build_field(self) -> None:
        """The small-n field layer: one radial grid, one RTU per
        substation, one proxy at the (single) field site."""
        d = self.deployment
        opts = d.options
        d.field_site = self.builder.field_site()
        d.grid, d.rtus, bindings = build_radial_field(
            d.simulator, d.network, opts.num_substations, opts.seed
        )
        d.proxy = RtuProxy(
            "proxy:field", d.simulator, d.network, d.crypto,
            replicas=[r.name for r in d.replicas],
            devices=bindings,
            recorder=d.status_recorder,
            poll_interval_ms=opts.poll_interval_ms,
            resubmit_timeout_ms=opts.resubmit_timeout_ms,
            obs=d.obs,
        )
        d.region_proxies = [d.proxy]
        d.proxy.stack = d.overlay.attach(d.proxy, d.field_site)
        for binding in bindings:
            d.network.set_link(d.proxy.name, binding.device_name, DEVICE_LINK)

    # ------------------------------------------------------------------
    def build_hmis(self) -> None:
        d = self.deployment
        home = self.builder.hmi_site()
        d.hmis = []
        for index in range(d.options.num_hmis):
            hmi = HmiClient(
                f"hmi:{index}", d.simulator, d.network, d.crypto,
                replicas=[r.name for r in d.replicas],
                recorder=d.command_recorder,
                resubmit_timeout_ms=d.options.resubmit_timeout_ms,
                obs=d.obs,
            )
            hmi.stack = d.overlay.attach(hmi, home)
            d.hmis.append(hmi)

    # ------------------------------------------------------------------
    def wire(self, proxy_of: Callable[[str], Optional[str]]) -> None:
        """Subscriptions, command routing (``proxy_of`` maps a substation
        to the proxy endpoint fronting it) and availability accounting."""
        d = self.deployment
        for replica in d.replicas:
            for hmi in d.hmis:
                replica.add_subscriber(hmi.name)
            replica.proxy_resolver = proxy_of
        self.wire_delivery_accounting()

    def wire_delivery_accounting(self) -> None:
        """Availability accounting: every verified status delivery at
        HMI 0 ticks the delivery series."""
        d = self.deployment
        hmi = d.hmis[0]
        original = hmi._on_delivery_share

        def counted(share):
            before = hmi.collector.verified
            original(share)
            released = hmi.collector.verified - before
            if released:
                d.delivery_series.record(d.simulator.now, released)

        hmi._on_delivery_share = counted
