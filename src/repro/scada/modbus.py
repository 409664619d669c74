"""A compact Modbus-RTU-like field protocol.

Spire's proxies speak Modbus/DNP3 to the field devices; we implement a
Modbus-flavoured binary framing with function codes, 16-bit registers,
coils, exceptions, and CRC-16 — enough to exercise a realistic device
polling/command path (including corrupted-frame rejection) without
importing a protocol stack.

Register map convention used by :class:`repro.scada.rtu.RtuDevice`:

* Holding registers 0..N: measurements, scaled to 16-bit fixed point.
* Coils 0..M: breakers, in the sorted order of their identifiers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

__all__ = [
    "FUNC_READ_HOLDING",
    "FUNC_READ_COILS",
    "FUNC_WRITE_COIL",
    "EXC_ILLEGAL_FUNCTION",
    "EXC_ILLEGAL_ADDRESS",
    "ModbusError",
    "ReadRequest",
    "ReadCoilsRequest",
    "WriteCoilRequest",
    "ReadResponse",
    "ReadCoilsResponse",
    "WriteCoilResponse",
    "ExceptionResponse",
    "crc16",
    "encode_frame",
    "decode_frame",
]

FUNC_READ_HOLDING = 0x03
FUNC_READ_COILS = 0x01
FUNC_WRITE_COIL = 0x05

EXC_ILLEGAL_FUNCTION = 0x01
EXC_ILLEGAL_ADDRESS = 0x02


class ModbusError(ValueError):
    """Raised for malformed or corrupted frames."""


@dataclass(frozen=True)
class ReadRequest:
    unit: int
    address: int
    count: int


@dataclass(frozen=True)
class ReadCoilsRequest:
    unit: int
    address: int
    count: int


@dataclass(frozen=True)
class WriteCoilRequest:
    unit: int
    address: int
    value: bool


@dataclass(frozen=True)
class ReadResponse:
    unit: int
    values: Tuple[int, ...]


@dataclass(frozen=True)
class ReadCoilsResponse:
    unit: int
    values: Tuple[bool, ...]


@dataclass(frozen=True)
class WriteCoilResponse:
    unit: int
    address: int
    value: bool


@dataclass(frozen=True)
class ExceptionResponse:
    unit: int
    function: int
    code: int


Message = Union[
    ReadRequest, ReadCoilsRequest, WriteCoilRequest,
    ReadResponse, ReadCoilsResponse, WriteCoilResponse, ExceptionResponse,
]


def _crc16_table() -> Tuple[int, ...]:
    """The CRC of each single byte: eight shift-and-xor steps done once."""
    table = []
    for crc in range(256):
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _crc16_table()


def crc16(data: bytes) -> int:
    """Modbus CRC-16 (polynomial 0xA001), one table lookup per byte."""
    table = _CRC16_TABLE
    crc = 0xFFFF
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<H", crc16(body))


def encode_frame(message: Message) -> bytes:
    """Serialize a protocol message to a CRC-protected frame."""
    if isinstance(message, ReadRequest):
        body = struct.pack(">BBHH", message.unit, FUNC_READ_HOLDING,
                           message.address, message.count)
    elif isinstance(message, ReadCoilsRequest):
        body = struct.pack(">BBHH", message.unit, FUNC_READ_COILS,
                           message.address, message.count)
    elif isinstance(message, WriteCoilRequest):
        body = struct.pack(">BBHH", message.unit, FUNC_WRITE_COIL,
                           message.address, 0xFF00 if message.value else 0x0000)
    elif isinstance(message, ReadResponse):
        payload = b"".join(struct.pack(">H", v & 0xFFFF) for v in message.values)
        body = struct.pack(">BBB", message.unit, FUNC_READ_HOLDING | 0x40,
                           len(payload)) + payload
    elif isinstance(message, ReadCoilsResponse):
        bits = 0
        for i, value in enumerate(message.values):
            if value:
                bits |= 1 << i
        nbytes = (len(message.values) + 7) // 8
        body = struct.pack(">BBBB", message.unit, FUNC_READ_COILS | 0x40,
                           len(message.values), nbytes)
        body += bits.to_bytes(nbytes or 1, "little")
    elif isinstance(message, WriteCoilResponse):
        body = struct.pack(">BBHH", message.unit, FUNC_WRITE_COIL | 0x40,
                           message.address, 0xFF00 if message.value else 0x0000)
    elif isinstance(message, ExceptionResponse):
        body = struct.pack(">BBB", message.unit, message.function | 0x80, message.code)
    else:
        raise ModbusError(f"cannot encode {type(message).__name__}")
    return _with_crc(body)


def decode_frame(frame: bytes) -> Message:
    """Parse and CRC-check a frame; raises :class:`ModbusError` if invalid."""
    if len(frame) < 4:
        raise ModbusError("frame too short")
    body, crc_bytes = frame[:-2], frame[-2:]
    if struct.unpack("<H", crc_bytes)[0] != crc16(body):
        raise ModbusError("CRC mismatch")
    unit, function = body[0], body[1]
    if function == FUNC_READ_HOLDING:
        address, count = struct.unpack(">HH", body[2:6])
        return ReadRequest(unit, address, count)
    if function == FUNC_READ_COILS:
        address, count = struct.unpack(">HH", body[2:6])
        return ReadCoilsRequest(unit, address, count)
    if function == FUNC_WRITE_COIL:
        address, raw = struct.unpack(">HH", body[2:6])
        return WriteCoilRequest(unit, address, raw == 0xFF00)
    if function == (FUNC_READ_HOLDING | 0x40):
        nbytes = body[2]
        payload = body[3:3 + nbytes]
        if len(payload) != nbytes or nbytes % 2:
            raise ModbusError("bad read response length")
        values = tuple(
            struct.unpack(">H", payload[i:i + 2])[0] for i in range(0, nbytes, 2)
        )
        return ReadResponse(unit, values)
    if function == (FUNC_READ_COILS | 0x40):
        count, nbytes = body[2], body[3]
        bits = int.from_bytes(body[4:4 + max(nbytes, 1)], "little")
        return ReadCoilsResponse(unit, tuple(bool(bits >> i & 1) for i in range(count)))
    if function == (FUNC_WRITE_COIL | 0x40):
        address, raw = struct.unpack(">HH", body[2:6])
        return WriteCoilResponse(unit, address, raw == 0xFF00)
    if function & 0x80:
        return ExceptionResponse(unit, function & 0x7F, body[2])
    raise ModbusError(f"unknown function 0x{function:02x}")


def scale_measurement(value: float, scale: float = 10.0) -> int:
    """Fixed-point scale a measurement into a 16-bit register."""
    return max(0, min(0xFFFF, int(round(value * scale))))


def unscale_measurement(register: int, scale: float = 10.0) -> float:
    return register / scale
