"""The replicated SCADA master application.

This is the state machine executed on top of Prime: it maintains the
authoritative view of the grid (latest telemetry per substation, breaker
intent, alarms, command history). Everything in :meth:`execute` is
deterministic, so all correct replicas hold identical master state — the
property the intrusion-tolerance argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..prime.app import ReplicatedApplication
from ..prime.messages import ClientUpdate
from .update import BreakerCommand, StatusReading

__all__ = ["ScadaMasterApp", "Alarm"]

#: alarm thresholds (kV / Hz) — chosen for the 138 kV model grid
UNDERVOLTAGE_KV = 124.0
OVERVOLTAGE_KV = 152.0
FREQ_LOW_HZ = 59.5
FREQ_HIGH_HZ = 60.5


@dataclass(frozen=True)
class Alarm:
    substation: str
    kind: str
    value: float
    order_index: int


class ScadaMasterApp(ReplicatedApplication):
    """Deterministic SCADA master state."""

    def __init__(self, max_command_log: int = 1000) -> None:
        self.max_command_log = max_command_log
        #: substation -> latest accepted StatusReading (as payload object)
        self.latest_status: Dict[str, StatusReading] = {}
        #: (substation, breaker_id) -> commanded position
        self.breaker_intent: Dict[Tuple[str, str], bool] = {}
        #: active alarms keyed (substation, kind)
        self.alarms: Dict[Tuple[str, str], Alarm] = {}
        self.command_log: List[Tuple[int, str, str, str, bool]] = []
        self.status_updates_applied = 0
        self.commands_applied = 0
        self.stale_updates_dropped = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, update: ClientUpdate, order_index: int) -> Any:
        payload = update.payload
        if isinstance(payload, StatusReading):
            return self._apply_status(payload, order_index)
        if isinstance(payload, BreakerCommand):
            return self._apply_command(payload, order_index)
        return ("rejected", "unknown-payload")

    def _apply_status(self, reading: StatusReading, order_index: int) -> Any:
        current = self.latest_status.get(reading.substation)
        if current is not None and current.poll_seq >= reading.poll_seq:
            self.stale_updates_dropped += 1
            return ("stale", reading.substation)
        self.latest_status[reading.substation] = reading
        self.status_updates_applied += 1
        self._update_alarms(reading, order_index)
        return ("status-accepted", reading.substation)

    def _update_alarms(self, reading: StatusReading, order_index: int) -> None:
        voltage = reading.measurement("voltage_kv") or 0.0
        frequency = reading.measurement("frequency_hz") or 0.0
        energized = (reading.measurement("energized") or 0.0) > 0.5
        checks = []
        if energized:
            if voltage < UNDERVOLTAGE_KV:
                checks.append(("undervoltage", voltage))
            if voltage > OVERVOLTAGE_KV:
                checks.append(("overvoltage", voltage))
            if frequency < FREQ_LOW_HZ:
                checks.append(("underfrequency", frequency))
            if frequency > FREQ_HIGH_HZ:
                checks.append(("overfrequency", frequency))
        else:
            checks.append(("de-energized", 0.0))
        active_kinds = {kind for kind, _ in checks}
        for kind, value in checks:
            self.alarms[(reading.substation, kind)] = Alarm(
                reading.substation, kind, value, order_index
            )
        for key in [
            k for k in self.alarms
            if k[0] == reading.substation and k[1] not in active_kinds
        ]:
            del self.alarms[key]

    def _apply_command(self, command: BreakerCommand, order_index: int) -> Any:
        self.breaker_intent[(command.substation, command.breaker_id)] = command.close
        self.commands_applied += 1
        self.command_log.append(
            (order_index, command.issued_by, command.substation,
             command.breaker_id, command.close)
        )
        if len(self.command_log) > self.max_command_log:
            del self.command_log[: len(self.command_log) - self.max_command_log]
        return ("command-accepted", command.substation, command.breaker_id)

    # ------------------------------------------------------------------
    # Queries (read-only; used by HMIs via delivered state and by tests)
    # ------------------------------------------------------------------
    def substation_view(self, substation: str) -> Optional[StatusReading]:
        return self.latest_status.get(substation)

    def active_alarms(self) -> List[Alarm]:
        return sorted(self.alarms.values(), key=lambda a: (a.substation, a.kind))

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        return {
            "status": {k: v for k, v in sorted(self.latest_status.items())},
            "intent": {f"{s}|{b}": v for (s, b), v in sorted(self.breaker_intent.items())},
            "alarms": {f"{s}|{k}": (a.value, a.order_index)
                       for (s, k), a in sorted(self.alarms.items())},
            "command_log": tuple(self.command_log),
            "counters": (
                self.status_updates_applied,
                self.commands_applied,
                self.stale_updates_dropped,
            ),
        }

    def restore(self, snapshot: Any) -> None:
        if not snapshot:
            self.__init__(self.max_command_log)
            return
        self.latest_status = dict(snapshot["status"])
        self.breaker_intent = {
            tuple(key.split("|", 1)): value
            for key, value in snapshot["intent"].items()
        }
        self.alarms = {}
        for key, (value, order_index) in snapshot["alarms"].items():
            substation, kind = key.split("|", 1)
            self.alarms[(substation, kind)] = Alarm(substation, kind, value, order_index)
        self.command_log = [tuple(entry) for entry in snapshot["command_log"]]
        counters = snapshot["counters"]
        self.status_updates_applied = counters[0]
        self.commands_applied = counters[1]
        self.stale_updates_dropped = counters[2]
