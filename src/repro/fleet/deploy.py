"""Fleet field stage: region proxies and their place in the deployment.

The deployment constructor calls :func:`build_fleet_field` and
:func:`wire_fleet` when ``options.fleet`` is set.  Replicas, HMIs, the
client personality, the Modbus master and the wiring are the small-n
ones; what is fleet-specific, and why it matters at 10k devices:

* one :class:`RegionProxy` per region, not one proxy per substation —
  each polls its shard from a single
  :class:`~repro.scada.region.ShardedPollDriver` timer;
* devices, grid rows, and serial links materialize lazily on first poll
  or first command (see :class:`~repro.scada.region.RegionShard`);
* replicas route commands through an O(1) resolver (``region/…`` prefix →
  proxy name) rather than a per-substation table.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.builder import DeploymentWiring, TopologyBuilder
from ..core.proxy import RtuProxy
from ..core.update import BreakerCommand
from ..scada.poller import DeviceBinding
from ..scada.region import DeviceSlot, RegionShard, ShardedPollDriver
from .generator import generate_fleet
from .traffic import FleetTrafficDriver

__all__ = ["RegionProxy", "build_fleet_field", "wire_fleet"]


class RegionProxy(RtuProxy):
    """An RTU proxy fronting one region shard: the sharded driver decides
    which devices are due, and a device exists from its first poll or
    first command on."""

    durable = RtuProxy.durable | {"shard", "_slots", "driver"}

    def __init__(
        self, name: str, simulator, network, crypto, replicas: List[str],
        shard: RegionShard, **kwargs,
    ) -> None:
        super().__init__(
            name, simulator, network, crypto, replicas, devices=[], **kwargs
        )
        self.shard = shard
        self._slots = {slot.substation: slot for slot in shard.slots}
        self.driver = ShardedPollDriver(self, shard, self._poll_slot)

    def _arm_polling(self) -> None:
        self.driver.start()

    def _binding_for(self, slot: DeviceSlot) -> DeviceBinding:
        """Materialize the slot's device on first contact."""
        binding = self.poller.devices.get(slot.substation)
        if binding is None:
            device = self.shard.materialize(
                slot, self.simulator, self.network, self.name
            )
            binding = self.poller.add(DeviceBinding(
                slot.substation, device.name, slot.unit_id, slot.coil_ids
            ))
        return binding

    def _poll_slot(self, slot: DeviceSlot) -> None:
        self.poller.poll(self._binding_for(slot))
        self._arm_flush_deadline()

    def _execute_command(self, command: BreakerCommand) -> None:
        # operator commands can target a not-yet-polled device; they
        # materialize it exactly like a first poll would
        slot = self._slots.get(command.substation)
        if slot is not None:
            self._binding_for(slot)
        super()._execute_command(command)


# ----------------------------------------------------------------------
# Deployment stages
# ----------------------------------------------------------------------
def build_fleet_field(deployment, builder: TopologyBuilder) -> None:
    """Expand the fleet spec and instantiate one proxy per region,
    distributed round-robin across the overlay's field sites."""
    d = deployment
    opts = d.options
    topology = generate_fleet(opts.fleet, opts.seed)
    d.fleet_topology = topology
    sites = builder.field_sites()
    d.field_site = sites[0]
    # classic small-n attributes stay present so shared tooling (reports,
    # chaos guards) can introspect a fleet deployment without branching
    d.rtus = {}
    d.grid = topology.regions[0].grid
    d.region_proxies = []
    for index, shard in enumerate(topology.regions):
        proxy = RegionProxy(
            f"proxy:{shard.name}", d.simulator, d.network, d.crypto,
            replicas=[r.name for r in d.replicas],
            shard=shard,
            recorder=d.status_recorder,
            poll_interval_ms=opts.poll_interval_ms,
            resubmit_timeout_ms=opts.resubmit_timeout_ms,
            obs=d.obs,
        )
        proxy.stack = d.overlay.attach(proxy, sites[index % len(sites)])
        d.region_proxies.append(proxy)
    d.proxy = d.region_proxies[0]


def region_resolver(topology) -> "callable":
    """O(1) substation → proxy-name routing: fleet substations are named
    ``{region}/s{i}``, so the region prefix is the routing key."""
    proxy_names = {shard.name: f"proxy:{shard.name}" for shard in topology.regions}

    def resolve(substation: str) -> Optional[str]:
        region, _, _ = substation.partition("/")
        return proxy_names.get(region)

    return resolve


def wire_fleet(deployment, wiring: DeploymentWiring) -> None:
    """The shared wiring with the region resolver, then the open-loop
    traffic driver."""
    d = deployment
    wiring.wire(region_resolver(d.fleet_topology))
    spec = d.options.fleet
    if spec.traffic is not None:
        d.traffic_driver = FleetTrafficDriver(
            d.simulator, d.hmis, d.fleet_topology, spec.traffic,
            seed=d.options.seed,
        )
