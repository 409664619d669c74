"""Field layer: the power grid process, the Modbus-like protocol, its
servers (devices) and its master (the poller proxies mount)."""

from .grid import Breaker, PowerGrid, Substation, build_radial_grid
from .modbus import (
    ExceptionResponse,
    ModbusError,
    ReadCoilsRequest,
    ReadCoilsResponse,
    ReadRequest,
    ReadResponse,
    WriteCoilRequest,
    WriteCoilResponse,
    crc16,
    decode_frame,
    encode_frame,
    scale_measurement,
    unscale_measurement,
)
from .plc import PlcDevice, ProtectionRule, undervoltage_rule
from .poller import DeviceBinding, ModbusPoller, build_radial_field
from .region import DeviceSlot, RegionShard, ShardedPollDriver
from .rtu import MEASUREMENT_ORDER, RtuDevice

__all__ = [
    "Breaker",
    "PowerGrid",
    "Substation",
    "build_radial_grid",
    "ExceptionResponse",
    "ModbusError",
    "ReadCoilsRequest",
    "ReadCoilsResponse",
    "ReadRequest",
    "ReadResponse",
    "WriteCoilRequest",
    "WriteCoilResponse",
    "crc16",
    "decode_frame",
    "encode_frame",
    "scale_measurement",
    "unscale_measurement",
    "PlcDevice",
    "ProtectionRule",
    "undervoltage_rule",
    "DeviceBinding",
    "ModbusPoller",
    "build_radial_field",
    "DeviceSlot",
    "RegionShard",
    "ShardedPollDriver",
    "MEASUREMENT_ORDER",
    "RtuDevice",
]
