"""Runtime monitors: what the output oracle (:mod:`repro.chaos.oracle`) cannot see.

Each monitor watches one property from DESIGN.md §5 *while a simulation
runs* (or evaluates the run's delivery record afterwards). Monitors are
strictly observers: they wrap component hook points but never alter
message flow, timing, or randomness, so an instrumented run produces the
identical trace to an uninstrumented one. One class per invariant — the
proxy gate's signatures, quorum availability, bounded delay, the reroute
bound and view recovery. A violation is built, and counted, in
``_BaseMonitor._flag`` only, the oracle's too (:class:`OracleVerdict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..crypto.encoding import digest
from ..crypto.merkle import verify_merkle_proof
from ..crypto.provider import CryptoProvider
from ..simnet import Process, Simulator
from .oracle import Oracle

__all__ = [
    "Violation",
    "OracleVerdict",
    "ProxyGateMonitor",
    "QuorumAvailabilityMonitor",
    "BoundedDelayMonitor",
    "RerouteBoundMonitor",
    "ViewRecoveryMonitor",
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


class OracleVerdict(_BaseMonitor):
    """The :class:`~repro.chaos.oracle.Oracle`'s findings, flagged under its name."""

    name = Oracle.name

    def judge(self, findings: Sequence[Tuple[str, float, Dict[str, Any]]]) -> None:
        for kind, at, details in findings:
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

        def checked_add_batch(share):
            released = original_add_batch(share)
            batch = share.record
            key = (batch.key(), batch.merkle_root)
            if key not in offered:
                offered[key] = ()
                if len(offered) > self.kept_batches:
                    del offered[next(iter(offered))]
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


class BoundedDelayMonitor(_BaseMonitor):
    """Verified deliveries keep flowing outside fault windows.

    The paper's bounded-delay claim is conditional on the network: during
    an attack window latency may spike, but once the window closes the
    system must re-bound within at most one view change. The watchdog
    therefore checks, for every *quiet interval* (no scheduled fault
    active, extended by a grace period that budgets a view-change timeout
    plus settling), that consecutive verified deliveries are never more
    than ``max_gap_ms`` apart.
    """

    name = "bounded-delay"

    def __init__(self, simulator: Simulator, max_gap_ms: float) -> None:
        super().__init__(simulator)
        self.max_gap_ms = max_gap_ms
        self.quiet_checked_ms = 0.0

    def evaluate(
        self, delivery_times: Sequence[float], quiet_intervals: Sequence[Tuple[float, float]],
    ) -> None:
        """Post-run check of the delivery timeline against quiet windows."""
        times = sorted(delivery_times)
        for start, end in quiet_intervals:
            if end - start <= self.max_gap_ms:
                continue  # window too short to demand a delivery
            self.quiet_checked_ms += end - start
            inside = [t for t in times if start <= t <= end]
            previous = start
            for point in inside + [end]:
                if point - previous > self.max_gap_ms:
                    self._flag(
                        "delivery-stall", at=previous,
                        gap_ms=round(point - previous, 3), max_gap_ms=self.max_gap_ms,
                        quiet_start_ms=round(start, 3), quiet_end_ms=round(end, 3),
                    )
                    break  # one violation per quiet window is enough signal
                previous = point


class RerouteBoundMonitor(_BaseMonitor):
    """Self-healing overlay restores delivery within the reroute bound.

    For every overlay fault (link kill/degrade, daemon kill) that leaves
    enough run time to judge it, a self-healing overlay must produce at
    least one verified delivery within ``bound_ms`` of the fault start —
    the configured detection + reroute budget plus protocol settling.
    Evaluated post-run from the delivery timeline, like the bounded-delay
    watchdog.
    """

    name = "reroute-bound"

    def __init__(self, simulator: Simulator, bound_ms: float) -> None:
        super().__init__(simulator)
        self.bound_ms = bound_ms
        self.faults_checked = 0

    def evaluate(
        self, delivery_times: Sequence[float], fault_starts: Sequence[float], total_ms: float,
    ) -> None:
        """Check each overlay fault start against the delivery timeline."""
        times = sorted(delivery_times)
        for start in fault_starts:
            if start + self.bound_ms > total_ms:
                continue  # run ends before the bound can be judged
            self.faults_checked += 1
            recovered = any(start <= t <= start + self.bound_ms for t in times)
            if not recovered:
                self._flag(
                    "reroute-stall", at=start,
                    bound_ms=self.bound_ms, fault_start_ms=round(start, 3),
                )


class ViewRecoveryMonitor(_BaseMonitor):
    """Every leader-affecting fault yields a higher view within the bound.

    The view-change sibling of :class:`RerouteBoundMonitor`: for every
    ``leader_kill``/``leader_partition`` fault (noted by the engine at
    *fire* time, together with the resolved target and the cluster's view
    at that instant), the protocol must — within ``bound_ms`` —

    1. have a **quorum** of replicas adopt a view strictly higher than the
       fire-time baseline (``no-quorum-adoption`` otherwise), and
    2. **resume ordering**: produce at least one verified delivery no
       earlier than the quorum adoption point (``ordering-stalled``
       otherwise).

    Adoption times come from the ``EV_NEW_VIEW``/``EV_PBFT_NEW_VIEW``
    event stream post-run; like the other timeline monitors, faults whose
    budget extends past the end of the run are skipped, not judged.
    """

    name = "view-recovery"

    def __init__(self, simulator: Simulator, bound_ms: float, quorum: int) -> None:
        super().__init__(simulator)
        self.bound_ms = bound_ms
        self.quorum = quorum
        #: (fire_time_ms, resolved_target, baseline_view) per leader fault
        self._faults: List[Tuple[float, str, int]] = []
        self.faults_checked = 0
        #: kill -> quorum-adoption latency for each judged fault that
        #: reached quorum (feeds benchmarks/bench_viewchange.py)
        self.recovery_latencies_ms: List[float] = []

    def note_fault(self, target: str, baseline_view: int) -> None:
        """Record one leader-affecting fault at the instant it fires."""
        self._faults.append((self.simulator.now, target, baseline_view))

    def evaluate(
        self,
        adoptions: Sequence[Tuple[float, str, int]],
        delivery_times: Sequence[float],
        total_ms: float,
    ) -> None:
        """Judge each noted fault against the new-view timeline (``(time_ms,
        replica, adopted_view)`` tuples) and the verified-delivery timeline."""
        times = sorted(delivery_times)
        for start, target, baseline in self._faults:
            deadline = start + self.bound_ms
            if deadline > total_ms:
                continue  # run ends before the bound can be judged
            self.faults_checked += 1
            # Earliest in-window adoption of a higher view, per replica.
            earliest: Dict[str, float] = {}
            for when, replica, view in adoptions:
                if view <= baseline or when < start or when > deadline:
                    continue
                if replica not in earliest or when < earliest[replica]:
                    earliest[replica] = when
            if len(earliest) < self.quorum:
                self._flag(
                    "no-quorum-adoption", at=start,
                    adopted=len(earliest), baseline_view=baseline,
                    bound_ms=self.bound_ms, quorum=self.quorum, target=target,
                )
                continue
            quorum_at = sorted(earliest.values())[self.quorum - 1]
            self.recovery_latencies_ms.append(quorum_at - start)
            resumed = any(quorum_at <= t <= deadline for t in times)
            if not resumed:
                self._flag(
                    "ordering-stalled", at=start,
                    bound_ms=self.bound_ms,
                    quorum_adopted_at_ms=round(quorum_at, 3), target=target,
                )
