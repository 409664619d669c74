"""HMI (human-machine interface) client.

The operator console: it maintains a live view of the grid from
threshold-verified status deliveries and issues breaker commands as signed
client updates. Like the proxy, it trusts nothing that does not carry a
valid combined threshold signature, so ``f`` compromised replicas cannot
spoof its display or fake command confirmations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .client import SpireClient
from .update import BreakerCommand, StatusReading

__all__ = ["HmiClient"]


class HmiClient(SpireClient):
    """One operator console endpoint."""

    def __init__(self, name, simulator, network, crypto, replicas, **kwargs) -> None:
        super().__init__(name, simulator, network, crypto, replicas, **kwargs)
        #: substation -> (order_index, StatusReading)
        self.view: Dict[str, Tuple[int, StatusReading]] = {}
        #: confirmed command log: (order_index, BreakerCommand)
        self.confirmed_commands: List[Tuple[int, BreakerCommand]] = []
        self.status_updates_seen = 0
        self.obs.read("hmi.status_updates", lambda: self.status_updates_seen)

    # ------------------------------------------------------------------
    # Operator actions
    # ------------------------------------------------------------------
    def operate_breaker(
        self, substation: str, breaker_id: str, close: bool, reason: str = "operator"
    ) -> Tuple[str, int]:
        """Issue a breaker command; returns the update key for tracking."""
        command = BreakerCommand(
            substation=substation,
            breaker_id=breaker_id,
            close=close,
            issued_by=self.name,
            reason=reason,
        )
        key = self.submissions.submit(command)
        self.submissions.flush()
        return key

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------
    def _on_verified_record(self, record) -> None:
        self.submissions.acknowledged(record.client, record.client_seq)
        if record.kind == "status" and isinstance(record.payload, StatusReading):
            self.status_updates_seen += 1
            current = self.view.get(record.payload.substation)
            if current is None or current[0] < record.order_index:
                self.view[record.payload.substation] = (
                    record.order_index, record.payload,
                )
        elif record.kind == "command" and isinstance(record.payload, BreakerCommand):
            self.confirmed_commands.append((record.order_index, record.payload))

    # ------------------------------------------------------------------
    # Display helpers
    # ------------------------------------------------------------------
    def substation_status(self, substation: str) -> Optional[StatusReading]:
        entry = self.view.get(substation)
        return entry[1] if entry is not None else None

    def breaker_position(self, substation: str, breaker_id: str) -> Optional[bool]:
        reading = self.substation_status(substation)
        if reading is None:
            return None
        for candidate, closed in reading.breakers:
            if candidate == breaker_id:
                return closed
        return None

    def energized_substations(self) -> List[str]:
        return sorted(
            substation
            for substation, (_, reading) in self.view.items()
            if (reading.measurement("energized") or 0.0) > 0.5
        )
