"""HMI (human-machine interface) client.

The operator console: it maintains a live view of the grid from
threshold-verified status deliveries and issues breaker commands as signed
client updates. Like the proxy, it trusts nothing that does not carry a
valid combined threshold signature, so ``f`` compromised replicas cannot
spoof its display or fake command confirmations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..crypto.provider import CryptoProvider
from ..obs import NULL_OBS, LatencyTracker
from ..simnet import Network, Process, Simulator
from ..spines.overlay import OverlayStack
from .collector import DeliveryCollector
from .client import SubmissionManager
from .replica import THRESHOLD_GROUP
from .update import BatchDeliveryShare, BreakerCommand, StatusReading

__all__ = ["HmiClient"]


class HmiClient(Process):
    """One operator console endpoint."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        crypto: CryptoProvider,
        replicas: List[str],
        stack: Optional[OverlayStack] = None,
        recorder: Optional[LatencyTracker] = None,
        resubmit_timeout_ms: float = 500.0,
        threshold_group: str = THRESHOLD_GROUP,
        obs=None,
    ) -> None:
        super().__init__(name, simulator, network)
        self.crypto = crypto
        self.stack = stack
        self.obs = obs if obs is not None else NULL_OBS
        self._status_counter = (
            self.obs.counter("hmi.status_updates") if self.obs.enabled else None
        )
        self.collector = DeliveryCollector(crypto, threshold_group)
        self.submissions = SubmissionManager(
            client_name=name,
            crypto=crypto,
            replicas=replicas,
            send_fn=self._send_to_replica,
            now_fn=lambda: simulator.now,
            recorder=recorder,
            resubmit_timeout_ms=resubmit_timeout_ms,
            rng=simulator.rng(f"submit/{name}"),
        )
        #: substation -> (order_index, StatusReading)
        self.view: Dict[str, Tuple[int, StatusReading]] = {}
        #: confirmed command log: (order_index, BreakerCommand)
        self.confirmed_commands: List[Tuple[int, BreakerCommand]] = []
        self.status_updates_seen = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self.every(self.submissions.resubmit_timeout_ms / 2, self._retry_tick)

    def on_recover(self) -> None:
        """Re-arm the retry timer after a crash (timers do not survive
        incarnation changes)."""
        if self._started:
            self.every(self.submissions.resubmit_timeout_ms / 2, self._retry_tick)

    def _retry_tick(self) -> None:
        self.submissions.retry_tick()

    def _send_to_replica(self, replica: str, payload: Any, size_bytes: int) -> bool:
        if self.stack is not None:
            return self.stack.send(replica, payload, size_bytes=size_bytes)
        return self.send(replica, payload, size_bytes=size_bytes)

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
        return self.submissions.submit(command)

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        if self.stack is not None:
            unwrapped = OverlayStack.unwrap(payload)
            if unwrapped is not None:
                payload = unwrapped[1]
        if isinstance(payload, BatchDeliveryShare):
            self._on_delivery_share(payload)

    def _on_delivery_share(self, share: BatchDeliveryShare) -> None:
        for record, _signature in self.collector.add_batch(share):
            self._on_verified_record(record)

    def _on_verified_record(self, record) -> None:
        self.submissions.acknowledged(record.client, record.client_seq)
        if record.kind == "status" and isinstance(record.payload, StatusReading):
            self.status_updates_seen += 1
            if self._status_counter is not None:
                self._status_counter.inc()
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
