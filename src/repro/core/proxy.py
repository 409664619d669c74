"""RTU proxy: the bridge between the replicated masters and field devices.

The proxy sits at a substation site. Toward the field it speaks Modbus to
its RTUs/PLCs; toward the control centers it is a Spire client: it signs
polled status readings and submits them for ordering, and it executes
breaker commands **only** when they arrive bearing a verifiable threshold
signature from the master replicas — the property that makes a compromised
master replica (or a network attacker) unable to operate field equipment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..crypto.provider import CryptoProvider
from ..scada.modbus import (
    ReadCoilsRequest,
    ReadCoilsResponse,
    ReadRequest,
    ReadResponse,
    WriteCoilRequest,
    WriteCoilResponse,
    encode_frame,
    unscale_measurement,
)
from ..scada.rtu import MEASUREMENT_ORDER, RtuDevice
from ..obs import EV_COMMAND_TO_FIELD, NULL_OBS, LatencyTracker
from ..simnet import Network, Process, Simulator
from ..spines.overlay import OverlayStack
from .collector import DeliveryCollector
from .client import SubmissionManager
from .replica import THRESHOLD_GROUP
from .update import BatchDeliveryShare, BreakerCommand, StatusReading

__all__ = ["RtuProxy", "DeviceBinding"]


@dataclass
class DeviceBinding:
    """Static description of one field device behind the proxy."""

    substation: str
    device_name: str
    unit_id: int
    coil_ids: Tuple[str, ...]  # breaker ids in coil-address order


@dataclass
class _PollState:
    poll_seq: int = 0
    phase: str = "idle"          # idle | await_regs | await_coils
    started_at: float = 0.0
    registers: Tuple[int, ...] = ()


class RtuProxy(Process):
    """One proxy endpoint fronting a set of field devices."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        crypto: CryptoProvider,
        replicas: List[str],
        devices: List[DeviceBinding],
        stack: Optional[OverlayStack] = None,
        recorder: Optional[LatencyTracker] = None,
        poll_interval_ms: float = 100.0,
        device_timeout_ms: float = 50.0,
        resubmit_timeout_ms: float = 500.0,
        threshold_group: str = THRESHOLD_GROUP,
        obs=None,
    ) -> None:
        super().__init__(name, simulator, network)
        self.crypto = crypto
        self.devices = {binding.substation: binding for binding in devices}
        self._by_unit = {binding.unit_id: binding for binding in devices}
        self.stack = stack
        self.obs = obs if obs is not None else NULL_OBS
        self.poll_interval_ms = poll_interval_ms
        self.device_timeout_ms = device_timeout_ms
        self.collector = DeliveryCollector(crypto, threshold_group)
        self.submissions = SubmissionManager(
            client_name=name,
            crypto=crypto,
            replicas=replicas,
            send_fn=self._send_to_replica,
            now_fn=lambda: simulator.now,
            recorder=recorder,
            resubmit_timeout_ms=resubmit_timeout_ms,
            start_index=sum(name.encode()) % max(1, len(replicas)),
            rng=simulator.rng(f"submit/{name}"),
        )
        self._polls: Dict[str, _PollState] = {
            substation: _PollState() for substation in self.devices
        }
        self.commands_executed = 0
        self.readings_submitted = 0
        self.polls_timed_out = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self.every(self.poll_interval_ms, self._poll_tick, jitter=2.0)
        self.every(self.submissions.resubmit_timeout_ms / 2, self._retry_tick)

    def on_recover(self) -> None:
        """Crash recovery: poll state is volatile; timers must be re-armed
        (periodic timers from the previous incarnation never fire again)."""
        for state in self._polls.values():
            state.phase = "idle"
        if self._started:
            self.every(self.poll_interval_ms, self._poll_tick, jitter=2.0)
            self.every(self.submissions.resubmit_timeout_ms / 2, self._retry_tick)

    def _send_to_replica(self, replica: str, payload: Any, size_bytes: int) -> bool:
        if self.stack is not None:
            return self.stack.send(replica, payload, size_bytes=size_bytes)
        return self.send(replica, payload, size_bytes=size_bytes)

    def _retry_tick(self) -> None:
        self.submissions.retry_tick()

    # ------------------------------------------------------------------
    # Polling state machine (serial Modbus semantics per device)
    # ------------------------------------------------------------------
    def _poll_tick(self) -> None:
        now = self.simulator.now
        for substation, state in self._polls.items():
            binding = self.devices[substation]
            if state.phase != "idle":
                if now - state.started_at > self.device_timeout_ms:
                    self.polls_timed_out += 1
                    state.phase = "idle"
                else:
                    continue
            state.phase = "await_regs"
            state.started_at = now
            frame = encode_frame(ReadRequest(binding.unit_id, 0, len(MEASUREMENT_ORDER)))
            self.send(binding.device_name, RtuDevice.wrap(frame), size_bytes=16)

    def on_message(self, src: str, payload: Any) -> None:
        frame = RtuDevice.unwrap(payload)
        if frame is not None:
            self._on_modbus(frame)
            return
        if self.stack is not None:
            unwrapped = OverlayStack.unwrap(payload)
            if unwrapped is not None:
                payload = unwrapped[1]
        if isinstance(payload, BatchDeliveryShare):
            self._on_delivery_share(payload)

    def _on_modbus(self, frame: bytes) -> None:
        from ..scada.modbus import ModbusError, decode_frame

        try:
            message = decode_frame(frame)
        except ModbusError:
            return
        binding = self._by_unit.get(getattr(message, "unit", None))
        if binding is None:
            return
        state = self._polls[binding.substation]
        if isinstance(message, ReadResponse) and state.phase == "await_regs":
            state.registers = message.values
            state.phase = "await_coils"
            state.started_at = self.simulator.now
            frame_out = encode_frame(
                ReadCoilsRequest(binding.unit_id, 0, len(binding.coil_ids))
            )
            self.send(binding.device_name, RtuDevice.wrap(frame_out), size_bytes=16)
        elif isinstance(message, ReadCoilsResponse) and state.phase == "await_coils":
            state.phase = "idle"
            state.poll_seq += 1
            self._submit_reading(binding, state, message.values)
        elif isinstance(message, WriteCoilResponse):
            self.commands_executed += 1

    def _submit_reading(
        self, binding: DeviceBinding, state: _PollState, coils: Tuple[bool, ...]
    ) -> None:
        measurements = tuple(
            (key, unscale_measurement(register))
            for key, register in zip(MEASUREMENT_ORDER, state.registers)
        )
        breakers = tuple(sorted(zip(binding.coil_ids, coils)))
        reading = StatusReading(
            substation=binding.substation,
            poll_seq=state.poll_seq,
            polled_at=self.simulator.now,
            measurements=measurements,
            breakers=breakers,
        )
        self.submissions.submit(reading)
        self.readings_submitted += 1

    # ------------------------------------------------------------------
    # Verified deliveries
    # ------------------------------------------------------------------
    def _on_delivery_share(self, share: BatchDeliveryShare) -> None:
        for record, _signature in self.collector.add_batch(share):
            self._on_verified_record(record)

    def _on_verified_record(self, record) -> None:
        if record.client == self.name:
            self.submissions.acknowledged(record.client, record.client_seq)
        if record.kind == "command" and isinstance(record.payload, BreakerCommand):
            self._execute_command(record.payload)

    def _execute_command(self, command: BreakerCommand) -> None:
        binding = self.devices.get(command.substation)
        if binding is None:
            return
        try:
            address = binding.coil_ids.index(command.breaker_id)
        except ValueError:
            return
        frame = encode_frame(WriteCoilRequest(binding.unit_id, address, command.close))
        self.send(binding.device_name, RtuDevice.wrap(frame), size_bytes=16)
        self.obs.event(
            self.name, EV_COMMAND_TO_FIELD,
            substation=command.substation, breaker=command.breaker_id,
            close=command.close,
        )
