"""Modbus master: the one place readings enter and commands leave the field.

:class:`~repro.scada.rtu.RtuDevice` is the Modbus *server*; this module is
the other end of the serial line.  Every proxy that fronts field devices —
Spire's :class:`~repro.core.proxy.RtuProxy`, the fleet's region proxy and
the traditional baseline's proxy — mounts one :class:`ModbusPoller` and
keeps only what the architectures differ in: what to do with a finished
reading, and whose commands to obey.

A poll is two serial transactions per device (holding registers, then
coils) with at most one in flight: a transaction not answered within the
timeout is counted and sent again at the next tick, so on a field link
slower than the timeout the late answer still completes it; responses
that do not match the transaction in flight are ignored.
:attr:`transactions` holds the polls under way (its owner's volatile
state; a binding's ``poll_seq`` survives a crash), so an owner can tell
when a round has finished without scanning its bindings.  The poller owns no
timer — its owner's poll tick (or sharded driver) calls :meth:`poll` /
:meth:`poll_all`, and its ``on_message`` offers every payload to
:meth:`on_payload` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..simnet import Network, Simulator
from .grid import PowerGrid, build_radial_grid
from .modbus import (
    ModbusError,
    ReadCoilsRequest,
    ReadCoilsResponse,
    ReadRequest,
    ReadResponse,
    WriteCoilRequest,
    WriteCoilResponse,
    decode_frame,
    encode_frame,
    unscale_measurement,
)
from .rtu import MEASUREMENT_ORDER, RtuDevice

__all__ = ["DeviceBinding", "ModbusPoller", "build_radial_field"]

Measurements = Tuple[Tuple[str, float], ...]
Breakers = Tuple[Tuple[str, bool], ...]


@dataclass(slots=True)
class DeviceBinding:
    """One field device behind a proxy: its address and its poll count."""

    substation: str
    device_name: str
    unit_id: int
    coil_ids: Tuple[str, ...]  # breaker ids in coil-address order
    poll_seq: int = 0


@dataclass(slots=True)
class _Transaction:
    """One poll in flight: when its last request left, and the registers
    once read (None while they are awaited)."""

    started_at: float
    registers: Optional[Tuple[int, ...]] = None


class ModbusPoller:
    """Serial Modbus master for the devices behind ``owner``.

    ``owner`` is the simnet process whose name the frames are sent from;
    ``on_reading(binding, measurements, breakers)`` receives each finished
    poll (``binding.poll_seq`` already advanced).
    """

    def __init__(
        self,
        owner,
        on_reading: Callable[[DeviceBinding, Measurements, Breakers], None],
        devices: Iterable[DeviceBinding] = (),
        timeout_ms: float = 50.0,
    ) -> None:
        self.owner = owner
        self.on_reading = on_reading
        self.timeout_ms = timeout_ms
        self.devices: Dict[str, DeviceBinding] = {}
        self._by_unit: Dict[int, DeviceBinding] = {}
        self.polls_timed_out = 0
        self.writes_confirmed = 0
        #: substation -> its poll in flight
        self.transactions: Dict[str, _Transaction] = {}
        for binding in devices:
            self.add(binding)

    def add(self, binding: DeviceBinding) -> DeviceBinding:
        self.devices[binding.substation] = binding
        self._by_unit[binding.unit_id] = binding
        return binding

    # ------------------------------------------------------------------
    def _request(self, binding: DeviceBinding, message: Any) -> None:
        self.owner.send(
            binding.device_name, RtuDevice.wrap(encode_frame(message)),
            size_bytes=16,
        )

    def poll(self, binding: DeviceBinding) -> None:
        """Start a poll unless one is in flight and not yet timed out; a
        timed-out coils read is sent again rather than the whole poll."""
        now = self.owner.simulator.now
        transaction = self.transactions.get(binding.substation)
        if transaction is None:
            self.transactions[binding.substation] = _Transaction(now)
        else:
            if now - transaction.started_at <= self.timeout_ms:
                return
            self.polls_timed_out += 1
            transaction.started_at = now
            if transaction.registers is not None:
                self._request_coils(binding)
                return
        self._request(
            binding, ReadRequest(binding.unit_id, 0, len(MEASUREMENT_ORDER))
        )

    def _request_coils(self, binding: DeviceBinding) -> None:
        self._request(binding, ReadCoilsRequest(binding.unit_id, 0, len(binding.coil_ids)))

    def poll_all(self) -> None:
        for binding in self.devices.values():
            self.poll(binding)

    def write_coil(self, substation: str, breaker_id: str, close: bool) -> bool:
        """Operate a breaker; False (and nothing sent) when this poller
        fronts no such substation or breaker."""
        binding = self.devices.get(substation)
        if binding is None or breaker_id not in binding.coil_ids:
            return False
        address = binding.coil_ids.index(breaker_id)
        self._request(binding, WriteCoilRequest(binding.unit_id, address, close))
        return True

    # ------------------------------------------------------------------
    def on_payload(self, payload: Any) -> bool:
        """Consume ``payload`` if it is a field frame; True when it was
        (valid or not), False when the owner should handle it."""
        frame = RtuDevice.unwrap(payload)
        if frame is None:
            return False
        try:
            message = decode_frame(frame)
        except ModbusError:
            return True  # serial noise
        binding = self._by_unit.get(getattr(message, "unit", None))
        if binding is None:
            return True
        if isinstance(message, WriteCoilResponse):
            self.writes_confirmed += 1
            return True
        transaction = self.transactions.get(binding.substation)
        if transaction is None:
            return True
        if isinstance(message, ReadResponse) and transaction.registers is None:
            transaction.registers = message.values
            transaction.started_at = self.owner.simulator.now
            self._request_coils(binding)
        elif isinstance(message, ReadCoilsResponse) and transaction.registers is not None:
            del self.transactions[binding.substation]
            binding.poll_seq += 1
            measurements = tuple(
                (key, unscale_measurement(register))
                for key, register in zip(MEASUREMENT_ORDER, transaction.registers)
            )
            breakers = tuple(sorted(zip(binding.coil_ids, message.values)))
            self.on_reading(binding, measurements, breakers)
        return True


def build_radial_field(
    simulator: Simulator, network: Network, num_substations: int, seed: int
) -> Tuple[PowerGrid, Dict[str, RtuDevice], List[DeviceBinding]]:
    """A radial grid with one RTU per substation, unit ids in sorted
    substation order — the field both Spire's classic layout and the
    traditional baseline are measured on."""
    grid = build_radial_grid(num_substations=num_substations, seed=seed)
    rtus: Dict[str, RtuDevice] = {}
    bindings: List[DeviceBinding] = []
    for unit_id, substation in enumerate(sorted(grid.substations), start=1):
        rtu = RtuDevice(
            f"rtu:{substation}", simulator, network, grid, substation, unit_id
        )
        rtus[substation] = rtu
        bindings.append(
            DeviceBinding(substation, rtu.name, unit_id, tuple(rtu.coil_ids()))
        )
    return grid, rtus, bindings
