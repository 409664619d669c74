"""The client personality shared by proxies and HMIs.

A Spire client (RTU proxy or HMI) signs updates, submits them to one
SCADA-master replica, and fails over to the next replica when no verified
delivery acknowledges the update in time (:class:`SubmissionManager`).
Updates are held until the client flushes, and every held update leaves
in one :class:`UpdateSubmission`: a proxy flushes once per poll round.
Because updates are deduplicated at execution by ``(client, client_seq)``,
retries are safe.  Inward it trusts only deliveries that combine to a
valid threshold signature (:class:`SpireClient`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..crypto.provider import CryptoProvider
from ..prime.messages import ClientUpdate
from ..prime.node import sign_client_update
from ..obs import NULL_OBS, LatencyTracker
from ..replication import RetryPolicy
from ..simnet import Network, Process, Simulator
from ..spines.overlay import OverlayStack
from .collector import DeliveryCollector
from .replica import THRESHOLD_GROUP
from .update import BatchDeliveryShare, UpdateSubmission

__all__ = ["SubmissionManager", "SpireClient"]

#: send_fn(replica_endpoint, payload, size_bytes) -> bool
SendFn = Callable[[str, Any, int], bool]


@dataclass
class _Outstanding:
    update: ClientUpdate
    first_submit: float
    last_submit: float
    attempts: int
    target_index: int
    next_retry_at: float = 0.0


class SubmissionManager:
    """Signs, submits, retries, and accounts for one client's updates."""

    def __init__(
        self,
        client_name: str,
        crypto: CryptoProvider,
        replicas: List[str],
        send_fn: SendFn,
        now_fn: Callable[[], float],
        recorder: Optional[LatencyTracker] = None,
        resubmit_timeout_ms: float = 500.0,
        start_index: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica endpoint")
        self.client_name = client_name
        self.crypto = crypto
        self.replicas = list(replicas)
        self.send_fn = send_fn
        self.now_fn = now_fn
        self.recorder = recorder
        self.resubmit_timeout_ms = resubmit_timeout_ms
        # Resubmits back off exponentially instead of firing at a fixed
        # period: a client facing a long outage probes with bounded load
        # rather than hammering every resubmit_timeout.
        self.retry_policy = RetryPolicy(
            base_ms=resubmit_timeout_ms,
            factor=1.5,
            max_ms=resubmit_timeout_ms * 6,
            max_attempts=5,
            jitter_frac=0.2,
        )
        self.rng = rng
        self._next_seq = 0
        self._target = start_index % len(self.replicas)
        self._outstanding: Dict[Tuple[str, int], _Outstanding] = {}
        #: signed and outstanding, not yet sent: the next flush sends them
        self._held: List[_Outstanding] = []
        self.submitted_total = 0
        self.retries_total = 0
        self.acked_total = 0

    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Tuple[str, int]:
        """Sign a new update and hold it for the next :meth:`flush`;
        returns its (client, seq) key. Its latency clock starts now."""
        self._next_seq += 1
        update = sign_client_update(
            self.crypto, self.client_name, self._next_seq, payload
        )
        now = self.now_fn()
        key = (self.client_name, self._next_seq)
        entry = self._outstanding[key] = _Outstanding(
            update, now, now, 1, self._target,
            next_retry_at=now + self.retry_policy.delay_ms(0, self.rng),
        )
        if self.recorder is not None:
            self.recorder.submitted(key, now)
        self._held.append(entry)
        self.submitted_total += 1
        return key

    def flush(self) -> None:
        """Send every held update to the current target, in one submission."""
        if not self._held:
            return
        target = self._target
        for entry in self._held:
            entry.target_index = target
        self._send([entry.update for entry in self._held], target)
        self._held = []

    def drop_held(self) -> None:
        """Lose the held updates, as a crash loses them: they stay
        outstanding, so :meth:`retry_tick` sends them when they fall due."""
        self._held = []

    def _send(self, updates: List[ClientUpdate], target_index: int) -> None:
        replica = self.replicas[target_index % len(self.replicas)]
        self.send_fn(replica, UpdateSubmission(tuple(updates)), 400 * len(updates))

    # ------------------------------------------------------------------
    def acknowledged(self, client: str, client_seq: int) -> Optional[float]:
        """Mark an update delivered; returns end-to-end latency if known."""
        if client != self.client_name:
            return None
        key = (client, client_seq)
        entry = self._outstanding.pop(key, None)
        if entry is None:
            return None
        self.acked_total += 1
        if self.recorder is not None:
            return self.recorder.acknowledged(key, self.now_fn())
        return self.now_fn() - entry.first_submit

    # ------------------------------------------------------------------
    def retry_tick(self) -> int:
        """Resubmit timed-out updates, each to the replica after its last
        one, in one submission per replica; returns the updates resent."""
        now = self.now_fn()
        retried = 0
        due: Dict[int, List[ClientUpdate]] = {}
        count = len(self.replicas)
        for entry in self._outstanding.values():
            if now >= entry.next_retry_at:
                entry.target_index += 1
                entry.attempts += 1
                entry.last_submit = now
                entry.next_retry_at = now + self.retry_policy.delay_ms(
                    entry.attempts - 1, self.rng
                )
                due.setdefault(entry.target_index % count, []).append(entry.update)
                retried += 1
                self.retries_total += 1
        for target_index, updates in due.items():
            self._send(updates, target_index)
        if retried:
            # rotate the default target away from an unresponsive replica
            self._target = (self._target + 1) % len(self.replicas)
        return retried

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)


class SpireClient(Process):
    """An endpoint that submits signed updates and acts on verified
    deliveries.  Subclasses say what a verified record means to them
    (:meth:`_on_verified_record`) and arm whatever polls the outside
    world (:meth:`_arm_polling`)."""

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
        obs=None,
        start_index: int = 0,
    ) -> None:
        super().__init__(name, simulator, network)
        self.crypto = crypto
        self.stack = stack
        self.obs = obs if obs is not None else NULL_OBS
        self.collector = DeliveryCollector(crypto, THRESHOLD_GROUP)
        self.submissions = SubmissionManager(
            client_name=name,
            crypto=crypto,
            replicas=replicas,
            send_fn=self._send_to_replica,
            now_fn=lambda: simulator.now,
            recorder=recorder,
            resubmit_timeout_ms=resubmit_timeout_ms,
            start_index=start_index,
            rng=simulator.rng(f"submit/{name}"),
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self._arm_polling()
        self.every(
            self.submissions.resubmit_timeout_ms / 2, self.submissions.retry_tick
        )

    def on_recover(self) -> None:
        """Periodic timers from the previous incarnation never fire
        again; a started client re-arms them."""
        self.submissions.drop_held()
        if self._started:
            self.start()

    def _arm_polling(self) -> None:
        """Arm the subclass's own periodic work, before the retry timer."""

    def _send_to_replica(self, replica: str, payload: Any, size_bytes: int) -> bool:
        if self.stack is not None:
            return self.stack.send(replica, payload, size_bytes=size_bytes)
        return self.send(replica, payload, size_bytes=size_bytes)

    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        if self.stack is not None:
            unwrapped = OverlayStack.unwrap(payload)
            if unwrapped is not None:
                # the overlay authenticated the datagram's origin
                src, payload = unwrapped
        if isinstance(payload, BatchDeliveryShare):
            # a share speaks for the replica it came from and no other: a
            # sender field naming anyone else would let one replica escape
            # its cap at the collector, or evict another's pending shares
            if payload.sender != src:
                self.collector.rejected_shares += 1
                return
            self._on_delivery_share(payload)

    def _on_delivery_share(self, share: BatchDeliveryShare) -> None:
        share = self.collector.admit(share)
        if share is None:
            return
        for record, _signature in self.collector.add_batch(share):
            self._on_verified_record(record)

    def _on_verified_record(self, record) -> None:
        raise NotImplementedError
