"""Emulated remote terminal unit (RTU).

One RTU per substation. It owns the substation's telemetry and breaker
coils and answers Modbus frames arriving over the (local, serial-like)
simulated network from its proxy. The RTU itself is *dumb* — exactly as
the paper's architecture assumes: all intelligence lives in the SCADA
master; RTUs just expose registers/coils. Byte frames are exchanged so
the protocol path (encode → CRC → decode) is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..simnet import Network, Process, Simulator
from .grid import PowerGrid
from .modbus import (
    EXC_ILLEGAL_ADDRESS,
    ExceptionResponse,
    FUNC_READ_COILS,
    FUNC_READ_HOLDING,
    FUNC_WRITE_COIL,
    ModbusError,
    ReadCoilsRequest,
    ReadCoilsResponse,
    ReadRequest,
    ReadResponse,
    WriteCoilRequest,
    WriteCoilResponse,
    decode_frame,
    encode_frame,
    scale_measurement,
)

__all__ = ["RtuDevice", "MEASUREMENT_ORDER"]

#: Fixed register layout: index in this list == holding-register address.
MEASUREMENT_ORDER = ("voltage_kv", "flow_mw", "frequency_hz", "energized")


@dataclass(frozen=True)
class _ModbusFrame:
    """Wire wrapper so RTU traffic is distinguishable on the network."""

    frame: bytes


class RtuDevice(Process):
    """Modbus server bound to one substation of a :class:`PowerGrid`."""

    durable = Process.durable | {
        "grid", "substation", "unit_id", "requests_served", "writes_applied"}

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        grid: PowerGrid,
        substation: str,
        unit_id: int,
    ) -> None:
        super().__init__(name, simulator, network)
        self.grid = grid
        self.substation = substation
        self.unit_id = unit_id
        self.requests_served = 0
        self.writes_applied = 0

    # ------------------------------------------------------------------
    def coil_ids(self) -> List[str]:
        """Breaker identifiers in coil-address order."""
        return sorted(self.grid.substations[self.substation].breakers)

    @staticmethod
    def wrap(frame: bytes) -> Any:
        return _ModbusFrame(frame)

    @staticmethod
    def unwrap(payload: Any) -> Optional[bytes]:
        if isinstance(payload, _ModbusFrame):
            return payload.frame
        return None

    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        frame = self.unwrap(payload)
        if frame is None:
            return
        try:
            request = decode_frame(frame)
        except ModbusError:
            return  # corrupted frames are silently dropped, like serial noise
        if getattr(request, "unit", None) != self.unit_id:
            return
        response = self._serve(request)
        if response is not None:
            self.requests_served += 1
            self.send(src, _ModbusFrame(encode_frame(response)), size_bytes=64)

    def _serve(self, request: Any) -> Optional[Any]:
        if isinstance(request, ReadRequest):
            return self._read_holding(request)
        if isinstance(request, ReadCoilsRequest):
            return self._read_coils(request)
        if isinstance(request, WriteCoilRequest):
            return self._write_coil(request)
        return None

    def _read_holding(self, request: ReadRequest) -> Any:
        measurements = self.grid.measurements(self.substation)
        registers = [
            scale_measurement(measurements[key]) for key in MEASUREMENT_ORDER
        ]
        end = request.address + request.count
        if request.address < 0 or end > len(registers):
            return ExceptionResponse(self.unit_id, FUNC_READ_HOLDING, EXC_ILLEGAL_ADDRESS)
        return ReadResponse(self.unit_id, tuple(registers[request.address:end]))

    def _read_coils(self, request: ReadCoilsRequest) -> Any:
        coils = self.coil_ids()
        end = request.address + request.count
        if request.address < 0 or end > len(coils):
            return ExceptionResponse(self.unit_id, FUNC_READ_COILS, EXC_ILLEGAL_ADDRESS)
        states = self.grid.breaker_states(self.substation)
        values = tuple(states[c] for c in coils[request.address:end])
        return ReadCoilsResponse(self.unit_id, values)

    def _write_coil(self, request: WriteCoilRequest) -> Any:
        coils = self.coil_ids()
        if not 0 <= request.address < len(coils):
            return ExceptionResponse(self.unit_id, FUNC_WRITE_COIL, EXC_ILLEGAL_ADDRESS)
        breaker_id = coils[request.address]
        self.grid.set_breaker(self.substation, breaker_id, request.value)
        self.writes_applied += 1
        return WriteCoilResponse(self.unit_id, request.address, request.value)
