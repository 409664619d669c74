"""Tests for the Modbus-like framing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scada import (
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


@pytest.mark.parametrize("message", [
    ReadRequest(1, 0, 4),
    ReadRequest(255, 100, 2),
    ReadCoilsRequest(3, 0, 5),
    WriteCoilRequest(2, 1, True),
    WriteCoilRequest(2, 1, False),
    ReadResponse(1, (0, 1380, 65535)),
    ReadCoilsResponse(4, (True, False, True)),
    ReadCoilsResponse(4, ()),
    WriteCoilResponse(2, 3, True),
    ExceptionResponse(1, 3, 2),
])
def test_roundtrip(message):
    assert decode_frame(encode_frame(message)) == message


def test_crc16_known_vector():
    # classic Modbus test vector: 01 03 00 00 00 02 -> CRC C40B
    assert crc16(bytes([0x01, 0x03, 0x00, 0x00, 0x00, 0x02])) == 0x0BC4
    assert crc16(bytes([0x01, 0x03, 0x00, 0x00, 0x00, 0x0A])) == 0xCDC5


def bitwise_crc16(data: bytes) -> int:
    """The definition ``crc16`` must equal: shift right, xor 0xA001 on carry."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xA001
            else:
                crc >>= 1
    return crc


@given(st.binary(max_size=300))
def test_crc16_equals_the_bitwise_definition(data):
    assert crc16(data) == bitwise_crc16(data)


def test_corrupted_frame_rejected():
    frame = bytearray(encode_frame(ReadRequest(1, 0, 4)))
    frame[2] ^= 0xFF
    with pytest.raises(ModbusError):
        decode_frame(bytes(frame))


def test_corrupted_crc_rejected():
    frame = bytearray(encode_frame(ReadRequest(1, 0, 4)))
    frame[-1] ^= 0x01
    with pytest.raises(ModbusError):
        decode_frame(bytes(frame))


def test_short_frame_rejected():
    with pytest.raises(ModbusError):
        decode_frame(b"\x01\x02")


def test_unknown_function_rejected():
    body = bytes([1, 0x2B, 0, 0])
    frame = body + crc16(body).to_bytes(2, "little")
    with pytest.raises(ModbusError):
        decode_frame(frame)


def test_odd_read_response_length_rejected():
    body = bytes([1, 0x43, 3, 0, 0, 0])
    frame = body + crc16(body).to_bytes(2, "little")
    with pytest.raises(ModbusError):
        decode_frame(frame)


def test_coils_bit_packing_many():
    values = tuple((i % 3) == 0 for i in range(16))
    assert decode_frame(encode_frame(ReadCoilsResponse(1, values))) == \
        ReadCoilsResponse(1, values)


def test_scale_unscale_roundtrip():
    for value in (0.0, 1.5, 138.2, 6553.5):
        register = scale_measurement(value)
        assert unscale_measurement(register) == pytest.approx(value, abs=0.1)


def test_scale_clamps():
    assert scale_measurement(-5.0) == 0
    assert scale_measurement(10 ** 9) == 0xFFFF


def test_write_coil_wire_values():
    on = encode_frame(WriteCoilRequest(1, 0, True))
    off = encode_frame(WriteCoilRequest(1, 0, False))
    assert on != off
    assert decode_frame(on).value is True
    assert decode_frame(off).value is False
