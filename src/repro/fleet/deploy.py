"""Fleet field stage: region proxies and deployment wiring.

This module is the fleet counterpart of
:meth:`repro.core.builder.DeploymentWiring.build_field` /
:meth:`~repro.core.builder.DeploymentWiring.wire`.  The deployment
constructor calls :func:`build_fleet_field` and :func:`wire_fleet` when
``options.fleet`` is set; the replica/HMI stages are shared with the
small-n path, so the two layouts differ only in the field layer.

Scale choices, and why they matter at 10k devices:

* one :class:`RegionProxy` per region, not one proxy per substation —
  each owns its shard's devices and a single
  :class:`~repro.scada.region.ShardedPollDriver` timer;
* devices, grid rows, and serial links materialize lazily on first poll
  or first command (see :class:`~repro.scada.region.RegionShard`);
* replicas route commands through a O(1) *resolver* function
  (``region/…`` prefix → proxy name) instead of a per-substation routing
  dict replicated n times.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.builder import DeploymentWiring, TopologyBuilder
from ..core.proxy import DeviceBinding, RtuProxy, _PollState
from ..core.update import BreakerCommand
from ..scada.modbus import ReadRequest, encode_frame
from ..scada.region import DeviceSlot, RegionShard, ShardedPollDriver
from ..scada.rtu import MEASUREMENT_ORDER, RtuDevice
from .generator import generate_fleet
from .traffic import FleetTrafficDriver

__all__ = ["RegionProxy", "build_fleet_field", "wire_fleet"]


class RegionProxy(RtuProxy):
    """An RTU proxy fronting one region shard.

    Inherits the full client personality — signed submissions, threshold
    verification, command execution — and replaces only the polling
    layout: one sharded driver instead of the all-devices poll tick, and
    lazy device materialization instead of a prebuilt binding list.
    """

    def __init__(
        self,
        name: str,
        simulator,
        network,
        crypto,
        replicas: List[str],
        shard: RegionShard,
        driver_mode: str = "sharded",
        **kwargs,
    ) -> None:
        super().__init__(
            name, simulator, network, crypto, replicas, devices=[], **kwargs
        )
        self.shard = shard
        self._slots = {slot.substation: slot for slot in shard.slots}
        self.driver = ShardedPollDriver(
            self, shard, self._poll_slot, mode=driver_mode
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self.driver.start()
        self.every(self.submissions.resubmit_timeout_ms / 2, self._retry_tick)

    def on_recover(self) -> None:
        for state in self._polls.values():
            state.phase = "idle"
        if self._started:
            self.driver.start()
            self.every(
                self.submissions.resubmit_timeout_ms / 2, self._retry_tick
            )

    # ------------------------------------------------------------------
    def _binding_for(self, slot: DeviceSlot) -> DeviceBinding:
        """Materialize the slot's device on first contact."""
        binding = self.devices.get(slot.substation)
        if binding is None:
            device = self.shard.materialize(
                slot, self.simulator, self.network, self.name
            )
            binding = DeviceBinding(
                substation=slot.substation,
                device_name=device.name,
                unit_id=slot.unit_id,
                coil_ids=slot.coil_ids,
            )
            self.devices[slot.substation] = binding
            self._by_unit[slot.unit_id] = binding
            self._polls[slot.substation] = _PollState()
        return binding

    def _poll_slot(self, slot: DeviceSlot) -> None:
        """Serial Modbus poll of one due device (driver callback); same
        state machine as the base class's per-substation poll."""
        binding = self._binding_for(slot)
        state = self._polls[slot.substation]
        now = self.simulator.now
        if state.phase != "idle":
            if now - state.started_at > self.device_timeout_ms:
                self.polls_timed_out += 1
                state.phase = "idle"
            else:
                return
        state.phase = "await_regs"
        state.started_at = now
        frame = encode_frame(
            ReadRequest(binding.unit_id, 0, len(MEASUREMENT_ORDER))
        )
        self.send(binding.device_name, RtuDevice.wrap(frame), size_bytes=16)

    def _execute_command(self, command: BreakerCommand) -> None:
        # operator commands can target a not-yet-polled device; they
        # materialize it exactly like a first poll would
        slot = self._slots.get(command.substation)
        if slot is not None and command.substation not in self.devices:
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
    """Subscriptions, command routing, accounting, and the open-loop
    traffic driver."""
    d = deployment
    resolve = region_resolver(d.fleet_topology)
    for replica in d.replicas:
        for hmi in d.hmis:
            replica.add_subscriber(hmi.name)
        replica.register_proxy_resolver(resolve)
    wiring.wire_delivery_accounting()
    spec = d.options.fleet
    if spec.traffic is not None and d.hmis:
        d.traffic_driver = FleetTrafficDriver(
            d.simulator, d.hmis, d.fleet_topology, spec.traffic,
            seed=d.options.seed,
        )
