"""RTU proxy: the bridge between the replicated masters and field devices.

The proxy sits at a substation site. Toward the field it is a Modbus
master (:class:`~repro.scada.poller.ModbusPoller`); toward the control
centers it is a Spire client (:class:`~repro.core.client.SpireClient`): it
signs polled status readings and submits them for ordering, a poll
round's readings in one submission, and it
executes breaker commands **only** when they arrive bearing a verifiable
threshold signature from the master replicas — the property that makes a
compromised master replica (or a network attacker) unable to operate field
equipment.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..obs import EV_COMMAND_TO_FIELD
from ..scada.poller import DeviceBinding, ModbusPoller
from ..simnet import Timer
from .client import SpireClient
from .update import BreakerCommand, StatusReading

__all__ = ["RtuProxy"]


class RtuProxy(SpireClient):
    """One proxy endpoint fronting a set of field devices."""

    def __init__(
        self,
        name: str,
        simulator,
        network,
        crypto,
        replicas: List[str],
        devices: List[DeviceBinding],
        poll_interval_ms: float = 100.0,
        **kwargs,
    ) -> None:
        super().__init__(
            name, simulator, network, crypto, replicas,
            start_index=sum(name.encode()), **kwargs,
        )
        self.poll_interval_ms = poll_interval_ms
        self.poller = ModbusPoller(self, self._submit_reading, devices)
        self.readings_submitted = 0
        #: flushes the round's held readings if a device is still silent
        self._flush_deadline: Optional[Timer] = None

    @property
    def polls_timed_out(self) -> int:
        return self.poller.polls_timed_out

    @property
    def commands_executed(self) -> int:
        """Breaker writes the field devices confirmed."""
        return self.poller.writes_confirmed

    # ------------------------------------------------------------------
    def _arm_polling(self) -> None:
        self.every(self.poll_interval_ms, self._poll_round, jitter=2.0)

    def _poll_round(self) -> None:
        self.poller.poll_all()
        self._arm_flush_deadline()

    def _arm_flush_deadline(self) -> None:
        """A round's readings leave together once no poll is in flight, and
        at the latest one poll timeout after the round's first poll: a
        silent device holds the others no longer than the poller waits."""
        if self._flush_deadline is None:
            self._flush_deadline = self.set_timer(
                self.poller.timeout_ms, self._flush_round
            )

    def _flush_round(self) -> None:
        if self._flush_deadline is not None:
            self._flush_deadline.cancel()
            self._flush_deadline = None
        self.submissions.flush()

    def on_recover(self) -> None:
        self.poller.reset()
        self._flush_deadline = None
        super().on_recover()

    def on_message(self, src: str, payload: Any) -> None:
        if not self.poller.on_payload(payload):
            super().on_message(src, payload)

    def _submit_reading(self, binding: DeviceBinding, measurements, breakers) -> None:
        reading = StatusReading(
            substation=binding.substation,
            poll_seq=binding.poll_seq,
            polled_at=self.simulator.now,
            measurements=measurements,
            breakers=breakers,
        )
        self.submissions.submit(reading)
        self.readings_submitted += 1
        if not self.poller.in_flight:
            self._flush_round()
        else:
            self._arm_flush_deadline()

    # ------------------------------------------------------------------
    # Verified deliveries
    # ------------------------------------------------------------------
    def _on_verified_record(self, record) -> None:
        self.submissions.acknowledged(record.client, record.client_seq)
        if record.kind == "command" and isinstance(record.payload, BreakerCommand):
            self._execute_command(record.payload)

    def _execute_command(self, command: BreakerCommand) -> None:
        if self.poller.write_coil(
            command.substation, command.breaker_id, command.close
        ):
            self.obs.event(
                self.name, EV_COMMAND_TO_FIELD,
                substation=command.substation, breaker=command.breaker_id,
                close=command.close,
            )
