"""Runtime invariant monitors.

Each monitor watches one of the correctness properties from DESIGN.md §5
*while a simulation runs* (or, for the bounded-delay watchdog, evaluates
the run's delivery record afterwards). Monitors are strictly observers:
they wrap component hook points but never alter message flow, timing, or
randomness, so an instrumented run produces the identical trace to an
uninstrumented one.

Monitored invariants:

* **Safety** — no two replicas execute different updates at the same
  global order index.
* **Proxy gate** — an endpoint acts on a delivery only once it holds a
  combined threshold signature that independently re-verifies, and never
  acts on the same record twice; a proxy writes to field devices only for
  gate-verified commands.
* **Quorum availability** — proactive rejuvenation never takes a replica
  down when that would leave fewer than ``2f+k+1`` live replicas.
* **Bounded delay** — outside fault windows (plus a grace period for
  re-stabilization, budgeted at one view change), verified deliveries keep
  arriving with bounded gaps.
* **Reroute bound** — with the self-healing overlay enabled, every
  overlay fault (link kill/degrade, daemon kill) is routed around fast
  enough that a verified delivery lands within the configured
  detection + reroute budget of the fault start.
* **View recovery** — after every leader-affecting fault (leader kill /
  leader partition), a quorum of replicas adopts a strictly higher view
  and ordering resumes (a verified delivery lands) within the configured
  ``view_recovery_bound_ms`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..crypto.encoding import digest
from ..crypto.merkle import verify_merkle_proof
from ..crypto.provider import CryptoProvider
from ..prime.messages import ClientUpdate
from ..simnet import Process, Simulator

__all__ = [
    "Violation",
    "SafetyMonitor",
    "ProxyGateMonitor",
    "QuorumAvailabilityMonitor",
    "QuorumFloorMonitor",
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

    #: optional ``repro.obs`` counter mirroring the violation count.
    #: Monitors never emit trace *events* — the trace feeds the chaos
    #: fingerprint and must stay identical with monitors detached.
    _obs_violations = None

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._violations: List[Violation] = []

    def bind_obs(self, obs) -> None:
        """Mirror violation counts into a metric registry."""
        if obs.enabled:
            self._obs_violations = obs.counter(f"chaos.violations.{self.name}")

    def violations(self) -> List[Violation]:
        return list(self._violations)

    def _flag(self, kind: str, **details: Any) -> None:
        if self._obs_violations is not None:
            self._obs_violations.inc()
        self._violations.append(Violation(
            self.name, kind, self.simulator.now,
            tuple(sorted((str(k), v) for k, v in details.items())),
        ))


class SafetyMonitor(_BaseMonitor):
    """Agreement and exactly-once over the global execution order.

    Hooks every replica's execution listener and cross-checks the identity
    digest of the update executed at each order index (agreement), and
    that no update identity is ever assigned two *different* order
    indices (exactly-once: a view change re-proposing an in-flight batch
    must not order its updates a second time; replaying the same slot
    after a crash recovery is fine). ``exclude`` names replicas under
    Byzantine control in the scenario (their divergence is expected, the
    invariant covers correct replicas only).
    """

    name = "safety"

    def __init__(self, simulator: Simulator, exclude: Sequence[str] = ()) -> None:
        super().__init__(simulator)
        self.exclude = frozenset(exclude)
        #: order index -> (identity digest, first replica that reported it)
        self._executed: Dict[int, Tuple[str, str]] = {}
        #: identity digest -> first order index it was executed at
        self._index_of: Dict[str, int] = {}
        self._dup_flagged: set = set()
        self.checked = 0

    def attach(self, replicas: Sequence[Any]) -> None:
        for replica in replicas:
            if replica.name in self.exclude:
                continue
            replica.execution_listeners.append(self._listener_for(replica.name))

    def _listener_for(self, replica_name: str):
        def on_execute(update: ClientUpdate, order_index: int, result: Any) -> None:
            identity = digest(
                (update.client, update.client_seq, digest(update.payload))
            )
            self.checked += 1
            first = self._executed.get(order_index)
            if first is None:
                self._executed[order_index] = (identity, replica_name)
            elif first[0] != identity:
                self._flag(
                    "divergent-execution",
                    order_index=order_index,
                    first_replica=first[1],
                    second_replica=replica_name,
                    client=update.client,
                    client_seq=update.client_seq,
                )
            seen_at = self._index_of.get(identity)
            if seen_at is None:
                self._index_of[identity] = order_index
            elif seen_at != order_index and \
                    (identity, order_index) not in self._dup_flagged:
                self._dup_flagged.add((identity, order_index))
                self._flag(
                    "duplicate-execution",
                    first_index=seen_at,
                    second_index=order_index,
                    replica=replica_name,
                    client=update.client,
                    client_seq=update.client_seq,
                )
        return on_execute


class ProxyGateMonitor(_BaseMonitor):
    """No delivery is acted on without a valid threshold signature.

    Wraps each endpoint's share collector: whenever the collector releases
    a record, the monitor *independently* re-verifies the batch signature
    and the record's Merkle inclusion under the signed root (so a weakened
    or bypassed gate is caught, not trusted) and checks the record was not
    already acted on. On proxies it additionally wraps the command
    execution path: every field write must correspond to a previously
    gate-verified breaker command.
    """

    name = "proxy-gate"

    def __init__(self, simulator: Simulator, crypto: CryptoProvider) -> None:
        super().__init__(simulator)
        self.crypto = crypto
        self._acted: Dict[str, set] = {}
        self._verified_commands: Dict[str, set] = {}
        self.deliveries_checked = 0
        self.commands_checked = 0

    def attach(self, endpoint: Process) -> None:
        acted = self._acted.setdefault(endpoint.name, set())
        verified_cmds = self._verified_commands.setdefault(endpoint.name, set())
        collector = endpoint.collector
        original_add_batch = collector.add_batch
        #: batch key -> record key -> proof-carrying entries offered for a
        #: record not acted on yet (the collector may release a record an
        #: earlier share carried); a record's entries go once it is released
        offered: Dict[Tuple, Dict[Tuple, List[Any]]] = {}

        def checked_add_batch(share):
            released = original_add_batch(share)
            batch = share.record
            entries = offered.setdefault(batch.key(), {})
            for entry in share.entries:
                if entry.record.key() not in acted:
                    entries.setdefault(entry.record.key(), []).append(entry)
            for record, signature in released:
                self.deliveries_checked += 1
                key = record.key()
                if key in acted:
                    self._flag(
                        "duplicate-delivery",
                        endpoint=endpoint.name,
                        client=record.client,
                        client_seq=record.client_seq,
                    )
                    continue
                acted.add(key)
                leaf = digest(record)
                carried = entries.pop(key, ())
                if not (
                    self.crypto.threshold_verify(signature, batch)
                    and any(
                        verify_merkle_proof(
                            leaf, entry.index, batch.count,
                            entry.proof, batch.merkle_root,
                        )
                        for entry in carried
                    )
                ):
                    self._flag(
                        "unverified-delivery",
                        endpoint=endpoint.name,
                        client=record.client,
                        client_seq=record.client_seq,
                    )
                if record.kind == "command":
                    verified_cmds.add(digest(record.payload))
            if not entries:
                del offered[batch.key()]
            return released

        collector.add_batch = checked_add_batch

        execute = getattr(endpoint, "_execute_command", None)
        if execute is not None:
            def checked_execute(command):
                self.commands_checked += 1
                if digest(command) not in verified_cmds:
                    self._flag(
                        "ungated-field-command",
                        endpoint=endpoint.name,
                        substation=command.substation,
                        breaker=command.breaker_id,
                    )
                execute(command)

            endpoint._execute_command = checked_execute


class QuorumAvailabilityMonitor(_BaseMonitor):
    """Rejuvenation must degrade gracefully, never below ``min_live``.

    Tracks the exact live-replica count by wrapping crash/recover, and
    wraps the recovery scheduler's begin hook: starting a rejuvenation
    that would leave ``live - 1 < min_live`` replicas is a violation (the
    scheduler is expected to defer instead).
    """

    name = "quorum-availability"

    def __init__(
        self,
        simulator: Simulator,
        replicas: Sequence[Process],
        min_live: int,
    ) -> None:
        super().__init__(simulator)
        self.replicas = list(replicas)
        self.min_live = min_live
        self.min_live_seen = len(self.replicas)
        #: (time_ms, live_count) step timeline, for reports
        self.timeline: List[Tuple[float, int]] = []

    @property
    def live_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.is_up)

    def attach(self, scheduler: Optional[Any] = None) -> None:
        for replica in self.replicas:
            self._wrap_liveness(replica)
        if scheduler is not None:
            begin = scheduler._begin

            def guarded_begin(replica):
                if self.live_count - 1 < self.min_live:
                    self._flag(
                        "rejuvenation-below-quorum",
                        replica=replica.name,
                        live=self.live_count,
                        min_live=self.min_live,
                    )
                begin(replica)

            scheduler._begin = guarded_begin

    def _wrap_liveness(self, replica: Process) -> None:
        crash, recover = replica.crash, replica.recover

        def crash_wrapped():
            crash()
            self._record()

        def recover_wrapped():
            recover()
            self._record()

        replica.crash = crash_wrapped
        replica.recover = recover_wrapped

    def _record(self) -> None:
        live = self.live_count
        self.min_live_seen = min(self.min_live_seen, live)
        self.timeline.append((self.simulator.now, live))


class QuorumFloorMonitor(_BaseMonitor):
    """No recovery *strategy* ever rejuvenates below the ``2f+k+1`` floor.

    Strategy-agnostic sibling of :class:`QuorumAvailabilityMonitor`: the
    floor is computed independently from the resilience parameters (so a
    misconfigured ``min_live`` is caught, not trusted), and the hook wraps
    whatever :class:`~repro.core.recovery.RecoveryStrategy` the deployment
    runs — periodic rotation or the ``repro.control`` feedback controller.
    Every strategy-initiated rejuvenation start is checked: beginning one
    with ``live - 1 < 2f+k+1`` is a violation (the strategy must defer).
    """

    name = "quorum-floor"

    def __init__(
        self,
        simulator: Simulator,
        replicas: Sequence[Process],
        f: int,
        k: int,
    ) -> None:
        super().__init__(simulator)
        self.replicas = list(replicas)
        #: the ordering quorum — the paper's hard availability floor
        self.floor = 2 * f + k + 1
        self.rejuvenations_checked = 0

    @property
    def live_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.is_up)

    def attach(self, strategy: Optional[Any]) -> None:
        if strategy is None:
            return
        begin = strategy._begin

        def floor_checked_begin(replica):
            self.rejuvenations_checked += 1
            if self.live_count - 1 < self.floor:
                self._flag(
                    "recovery-below-floor",
                    replica=replica.name,
                    live=self.live_count,
                    floor=self.floor,
                    strategy=type(strategy).__name__,
                )
            begin(replica)

        strategy._begin = floor_checked_begin


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
        self,
        delivery_times: Sequence[float],
        quiet_intervals: Sequence[Tuple[float, float]],
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
                    if self._obs_violations is not None:
                        self._obs_violations.inc()
                    self._violations.append(Violation(
                        self.name, "delivery-stall", previous,
                        (
                            ("gap_ms", round(point - previous, 3)),
                            ("max_gap_ms", self.max_gap_ms),
                            ("quiet_start_ms", round(start, 3)),
                            ("quiet_end_ms", round(end, 3)),
                        ),
                    ))
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
        self,
        delivery_times: Sequence[float],
        fault_starts: Sequence[float],
        total_ms: float,
    ) -> None:
        """Check each overlay fault start against the delivery timeline."""
        times = sorted(delivery_times)
        for start in fault_starts:
            if start + self.bound_ms > total_ms:
                continue  # run ends before the bound can be judged
            self.faults_checked += 1
            recovered = any(start <= t <= start + self.bound_ms for t in times)
            if not recovered:
                if self._obs_violations is not None:
                    self._obs_violations.inc()
                self._violations.append(Violation(
                    self.name, "reroute-stall", start,
                    (
                        ("bound_ms", self.bound_ms),
                        ("fault_start_ms", round(start, 3)),
                    ),
                ))


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
        """Judge each noted fault against the adoption/delivery timelines.

        ``adoptions`` is the new-view event timeline as ``(time_ms,
        replica, adopted_view)`` tuples; ``delivery_times`` is the verified
        delivery timeline.
        """
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
                self._violations.append(Violation(
                    self.name, "no-quorum-adoption", start,
                    (
                        ("adopted", len(earliest)),
                        ("baseline_view", baseline),
                        ("bound_ms", self.bound_ms),
                        ("quorum", self.quorum),
                        ("target", target),
                    ),
                ))
                if self._obs_violations is not None:
                    self._obs_violations.inc()
                continue
            quorum_at = sorted(earliest.values())[self.quorum - 1]
            self.recovery_latencies_ms.append(quorum_at - start)
            resumed = any(quorum_at <= t <= deadline for t in times)
            if not resumed:
                self._violations.append(Violation(
                    self.name, "ordering-stalled", start,
                    (
                        ("bound_ms", self.bound_ms),
                        ("quorum_adopted_at_ms", round(quorum_at, 3)),
                        ("target", target),
                    ),
                ))
                if self._obs_violations is not None:
                    self._obs_violations.inc()
