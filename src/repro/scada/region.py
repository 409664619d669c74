"""Region-sharded field-device state with lazy materialization.

A production grid has thousands of field devices, but a simulation that
instantiates an RTU process, a grid row, and a poll timer for every one
of them up front pays heap and event-queue pressure for substations that
never do anything in the scenario window.  This module shards that state
per *region*:

* :class:`RegionShard` owns one region's device roster as lightweight
  :class:`DeviceSlot` records.  A slot holds only strings and ints until
  its first poll comes due; at that point :meth:`RegionShard.materialize`
  lazily creates the substation row in the region's
  :class:`~repro.scada.grid.PowerGrid`, the RTU/PLC process, and the
  serial link — so idle substations cost no heap.

* :class:`ShardedPollDriver` replaces per-device periodic timers with one
  region-level driver ticking at the shard's base rate.  Each poll class
  polls every ``interval / base_tick`` ticks; due devices are visited in
  exactly the order the per-device timers they replace would have fired
  (see :meth:`RegionShard.due_slots`) — a property the test suite pins on
  a small-n control case.  One region is one heap entry per tick instead
  of one per device.

The shard is engine-agnostic: it schedules nothing itself.  The fleet
region proxy (:mod:`repro.fleet.deploy`) owns the driver's timer and the
polling state machine; small-n deployments never touch this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..simnet import LinkSpec, Network, Simulator
from .grid import PowerGrid, Substation
from .plc import PlcDevice
from .rtu import RtuDevice

__all__ = ["DeviceSlot", "RegionShard", "ShardedPollDriver"]

#: serial-like last-hop link between a region proxy and its devices
DEVICE_LINK = LinkSpec(latency_ms=0.3, jitter_ms=0.05)


@dataclass(slots=True)
class DeviceSlot:
    """One field device's static identity; runtime state is lazy."""

    index: int                 #: position in the shard roster
    substation: str            #: globally unique substation name
    unit_id: int               #: Modbus unit id (unique within the shard)
    kind: str                  #: "rtu" or "plc"
    poll_class: int            #: index into the shard's poll-class table
    load_mw: float             #: served load once materialized
    device: Optional[RtuDevice] = None
    coil_ids: Tuple[str, ...] = ()


class RegionShard:
    """One region's device roster, grid shard, and materialization."""

    def __init__(
        self,
        name: str,
        seed: int,
        poll_intervals_ms: Sequence[float],
        base_tick_ms: float,
    ) -> None:
        if not poll_intervals_ms:
            raise ValueError("a region shard needs at least one poll class")
        for interval in poll_intervals_ms:
            ratio = interval / base_tick_ms
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    f"poll interval {interval}ms is not a positive multiple "
                    f"of the region base tick {base_tick_ms}ms"
                )
        self.name = name
        self.seed = seed
        self.base_tick_ms = base_tick_ms
        #: poll interval per class, expressed in base ticks
        self.class_periods: Tuple[int, ...] = tuple(
            int(round(interval / base_tick_ms)) for interval in poll_intervals_ms
        )
        self.poll_intervals_ms: Tuple[float, ...] = tuple(poll_intervals_ms)
        self.slots: List[DeviceSlot] = []
        #: the region's grid shard — populated lazily, one source bus
        self.grid = PowerGrid(seed=seed)
        self._source = f"{name}/src"
        self.grid.add_substation(
            Substation(name=self._source, load_mw=0.0, generation_mw=10_000.0)
        )
        self.materialized = 0

    # ------------------------------------------------------------------
    # Roster construction (cheap: strings + ints only)
    # ------------------------------------------------------------------
    def add_slot(
        self, substation: str, kind: str, poll_class: int, load_mw: float
    ) -> DeviceSlot:
        if kind not in ("rtu", "plc"):
            raise ValueError(f"unknown device kind {kind!r}")
        if not 0 <= poll_class < len(self.class_periods):
            raise ValueError(
                f"poll_class {poll_class} out of range "
                f"(shard has {len(self.class_periods)} classes)"
            )
        slot = DeviceSlot(
            index=len(self.slots),
            substation=substation,
            unit_id=len(self.slots) + 1,
            kind=kind,
            poll_class=poll_class,
            load_mw=load_mw,
        )
        self.slots.append(slot)
        return slot

    @property
    def device_count(self) -> int:
        return len(self.slots)

    @property
    def source(self) -> str:
        """The region's feeder substation; a leaf's only breaker is
        ``f"{slot.substation}->{shard.source}"``."""
        return self._source

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        slot: DeviceSlot,
        simulator: Simulator,
        network: Network,
        proxy_name: str,
    ) -> RtuDevice:
        """Create the device's grid row, process, and serial link on
        first use; idempotent thereafter."""
        if slot.device is not None:
            return slot.device
        self.grid.add_substation(
            Substation(name=slot.substation, load_mw=slot.load_mw)
        )
        # star feeder from the region source: opening either end's
        # breaker de-energizes the substation, exactly like the small-n
        # radial grid's leaf lines
        self.grid.add_line(self._source, slot.substation, capacity_mw=150.0)
        cls = PlcDevice if slot.kind == "plc" else RtuDevice
        device = cls(
            f"rtu:{slot.substation}", simulator, network,
            self.grid, slot.substation, slot.unit_id,
        )
        # PLC scan cycles stay un-armed at fleet scale: protection logic
        # is not what the fleet bench measures, and 10k scan timers would
        # reintroduce exactly the queue pressure sharding removes
        slot.device = device
        slot.coil_ids = tuple(device.coil_ids())
        network.set_link(proxy_name, device.name, DEVICE_LINK)
        self.materialized += 1
        return device

    # ------------------------------------------------------------------
    # Poll scheduling
    # ------------------------------------------------------------------
    def due_slots(self, tick_index: int) -> List[DeviceSlot]:
        """Slots whose class polls on base tick ``tick_index`` (1-based),
        in per-device-timer order.

        A per-device periodic timer due at tick ``T`` was last scheduled
        at tick ``T - period``, so in the event heap's (time, seq) order
        longer-period timers drain first, ties in slot (creation) order.
        Visiting due slots in that exact order makes the sharded driver's
        poll sequence indistinguishable from the per-device layout it
        replaces.
        """
        periods = self.class_periods
        due = [
            slot for slot in self.slots
            if tick_index % periods[slot.poll_class] == 0
        ]
        due.sort(key=lambda slot: (-periods[slot.poll_class], slot.index))
        return due


class ShardedPollDriver:
    """One periodic driver replacing per-device poll timers.

    ``mode="sharded"`` (the default) arms a single periodic timer on the
    owning process at the shard's base tick and visits due slots in slot
    order.  ``mode="per-device"`` arms one timer per slot (the layout the
    driver replaces) and exists so tests can pin the equivalence: both
    modes invoke ``poll(slot)`` at identical virtual times in identical
    order for any roster whose intervals are multiples of the base tick.
    """

    def __init__(
        self,
        owner,  # a simnet Process: supplies its incarnation's periodic timers
        shard: RegionShard,
        poll: Callable[[DeviceSlot], None],
        mode: str = "sharded",
    ) -> None:
        if mode not in ("sharded", "per-device"):
            raise ValueError(f"unknown driver mode {mode!r}")
        self.owner = owner
        self.shard = shard
        self.poll = poll
        self.mode = mode
        self.ticks = 0
        self.polls_driven = 0

    def start(self) -> None:
        if self.mode == "per-device":
            # one periodic timer per slot, created in slot order — the
            # layout the sharded mode must reproduce tick-for-tick
            for slot in self.shard.slots:
                interval = self.shard.poll_intervals_ms[slot.poll_class]
                self.owner.every(interval, lambda s=slot: self._poll_one(s))
            return
        self.owner.every(self.shard.base_tick_ms, self._tick)

    def _poll_one(self, slot: DeviceSlot) -> None:
        self.polls_driven += 1
        self.poll(slot)

    def _tick(self) -> None:
        self.ticks += 1
        for slot in self.shard.due_slots(self.ticks):
            self.polls_driven += 1
            self.poll(slot)
