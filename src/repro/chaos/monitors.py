"""Runtime monitors: what no output timeline shows.

The output oracle (:mod:`repro.chaos.oracle`) and the liveness judge
(:mod:`repro.chaos.liveness`) judge what the system puts out; each monitor
here watches one property from DESIGN.md §5 *while a simulation runs*.
Monitors are strictly observers: they wrap component hook points but never
alter message flow, timing, or randomness, so an instrumented run produces
the identical trace to an uninstrumented one. One class per invariant — the
proxy gate's signatures and quorum availability. A violation is built, and
counted, in ``_BaseMonitor._flag`` only, the judges' too (:class:`Verdict`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..crypto.encoding import digest
from ..crypto.merkle import verify_merkle_proof
from ..crypto.provider import CryptoProvider
from ..simnet import Process, Simulator

__all__ = [
    "Violation",
    "Verdict",
    "ProxyGateMonitor",
    "QuorumAvailabilityMonitor",
]


@dataclass(frozen=True)
class Violation:
    """One invariant violation, serializable into scenario files."""

    monitor: str
    kind: str
    time_ms: float
    details: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "kind": self.kind,
            "time_ms": self.time_ms,
            "details": {key: value for key, value in self.details},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Violation":
        return Violation(
            monitor=data["monitor"],
            kind=data["kind"],
            time_ms=data["time_ms"],
            details=tuple(sorted(data.get("details", {}).items())),
        )

    def __str__(self) -> str:  # pragma: no cover - debug aid
        detail = " ".join(f"{k}={v}" for k, v in self.details)
        return f"[t={self.time_ms:10.1f}ms] {self.monitor}/{self.kind} {detail}"


class _BaseMonitor:
    name = "monitor"

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._violations: List[Violation] = []

    def violations(self) -> List[Violation]:
        return list(self._violations)

    def _flag(self, kind: str, at: Optional[float] = None, **details: Any) -> None:
        """The one place a violation is built and counted; ``at`` dates a
        violation found post-run in a timeline."""
        self._violations.append(Violation(
            self.name, kind, self.simulator.now if at is None else at,
            tuple(sorted((str(k), v) for k, v in details.items())),
        ))


class Verdict(_BaseMonitor):
    """A post-run judge's findings (the :class:`~repro.chaos.oracle.Oracle`'s,
    the :class:`~repro.chaos.liveness.Liveness` judge's), flagged under its name."""

    def __init__(self, simulator: Simulator, judge: Any) -> None:
        super().__init__(simulator)
        self.name, self.source = judge.name, judge

    def judge(self) -> None:
        for kind, at, details in self.source.findings:
            self._flag(kind, at, **details)


class ProxyGateMonitor(_BaseMonitor):
    """No delivery is acted on without a valid threshold signature.

    Wraps each endpoint's share collector: whenever the collector releases
    a record, the monitor *independently* re-verifies the batch signature
    and the record's Merkle inclusion under the signed root, so a weakened
    or bypassed gate is caught, not trusted. The oracle cannot see this:
    a weakened gate that released a correct record puts out nothing wrong.
    """

    name = "proxy-gate"

    #: batches remembered, as many as the collector caches signatures of
    kept_batches = 2000

    def __init__(self, simulator: Simulator, crypto: CryptoProvider) -> None:
        super().__init__(simulator)
        self.crypto = crypto
        self.deliveries_checked = 0

    def attach(self, endpoint: Process) -> None:
        collector = endpoint.collector
        original_add_batch = collector.add_batch
        #: per batch: the entries offered until the collector first releases
        #: from it (it may release any of them), then None (it releases from
        #: the share at hand)
        offered: Dict[Tuple, Optional[tuple]] = {}
        offered_order: Deque[Tuple] = deque()  # its keys, oldest first

        def checked_add_batch(share):
            released = original_add_batch(share)
            batch = share.record
            key = (batch.key(), batch.merkle_root)
            if key not in offered:
                offered[key] = ()
                offered_order.append(key)
                if len(offered_order) > self.kept_batches:
                    del offered[offered_order.popleft()]
            carried = share.entries
            if offered[key] is not None:
                carried = offered[key] + carried
                offered[key] = None if released else carried
            for record, signature in released:
                self.deliveries_checked += 1
                leaf = digest(record)
                if not (self.crypto.threshold_verify(signature, batch) and any(
                        verify_merkle_proof(leaf, entry.index, batch.count, entry.proof,
                                            batch.merkle_root)
                        for entry in carried if entry.record is record)):
                    self._flag("unverified-delivery", endpoint=endpoint.name,
                               client=record.client, client_seq=record.client_seq)
            return released

        collector.add_batch = checked_add_batch


class QuorumAvailabilityMonitor(_BaseMonitor):
    """No recovery *strategy* ever rejuvenates below the ``2f+k+1`` floor.

    Tracks the lowest live-replica count by wrapping crash, and wraps the
    begin hook of whatever
    :class:`~repro.core.recovery.RecoveryStrategy` the system runs.
    Starting a rejuvenation with ``live - 1 < 2f+k+1`` is a violation (the
    strategy must defer instead); the floor is computed here from ``f``
    and ``k``, so a misconfigured ``min_live`` is caught, not trusted.
    """

    name = "quorum-availability"

    def __init__(
        self, simulator: Simulator, replicas: Sequence[Process], f: int, k: int,
    ) -> None:
        super().__init__(simulator)
        self.replicas = list(replicas)
        #: the ordering quorum — the paper's hard availability floor
        self.floor = 2 * f + k + 1
        self.min_live_seen = len(self.replicas)
        self.rejuvenations_checked = 0

    @property
    def live_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.is_up)

    def attach(self, strategy: Optional[Any] = None) -> None:
        for replica in self.replicas:
            self._wrap_liveness(replica)
        if strategy is None:
            return
        begin = strategy._begin

        def checked_begin(replica):
            self.rejuvenations_checked += 1
            if self.live_count - 1 < self.floor:
                self._flag(
                    "rejuvenation-below-quorum", replica=replica.name,
                    live=self.live_count, floor=self.floor,
                    strategy=type(strategy).__name__,
                )
            begin(replica)

        strategy._begin = checked_begin

    def _wrap_liveness(self, replica: Process) -> None:
        crash = replica.crash

        def crash_wrapped():
            crash()
            self.min_live_seen = min(self.min_live_seen, self.live_count)

        replica.crash = crash_wrapped
