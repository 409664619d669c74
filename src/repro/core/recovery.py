"""Proactive recovery: pluggable rejuvenation strategies.

Spire periodically *rejuvenates* replicas — restarting them from a clean,
freshly-diversified image — so that an undetected intrusion is bounded in
time. The machinery shared by every strategy lives in
:class:`RecoveryStrategy`: crash/recover lifecycle, the ``max_concurrent``
cap (the ``2k`` term in ``3f + 2k + 1`` budgets for ``k`` simultaneous
recoveries), the hard ``2f+k+1`` live-quorum floor (rejuvenations that
would break the ordering quorum are *deferred*, never started), and the
obs events and readings every strategy reports through.

Two strategies implement *when* to rejuvenate *which* replica:

* :class:`PeriodicStrategy` — the paper's fixed schedule: round-robin
  through the replica set every ``period_ms``.
* :class:`~repro.control.FeedbackStrategy` — the adaptive controller in
  ``repro.control``: watches ``repro.obs`` health signals and targets the
  most-suspect replica, falling back to the periodic rotation when the
  signals are quiet.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..obs import (
    COMP_RECOVERY_SCHEDULER,
    EV_REJUVENATE_DEFERRED,
    EV_REJUVENATE_DONE,
    EV_REJUVENATE_START,
    NULL_OBS,
    Observability,
)
from ..simnet import Process, Simulator

__all__ = [
    "RecoveryStrategy",
    "PeriodicStrategy",
]


class RecoveryStrategy:
    """Shared rejuvenation machinery; subclasses decide when and whom.

    A strategy owns the crash→recover lifecycle of each rejuvenation and
    the safety bookkeeping around it; subclasses implement :meth:`start`
    (arming their timers) and call :meth:`_try_rejuvenate` /
    :meth:`_begin` to act. ``repro.obs`` reads the three counters
    (``recovery.recoveries_started`` / ``recovery.recoveries_completed`` /
    ``recovery.deferred_rounds``) so they land in scenario reports.
    """

    def __init__(
        self,
        simulator: Simulator,
        replicas: List[Process],
        recovery_duration_ms: float,
        max_concurrent: int = 1,
        on_rejuvenate: Optional[Callable[[Process], None]] = None,
        min_live: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.simulator = simulator
        self.replicas = list(replicas)
        self.recovery_duration_ms = recovery_duration_ms
        self.max_concurrent = max_concurrent
        self.obs = obs if obs is not None else NULL_OBS
        self.on_rejuvenate = on_rejuvenate
        #: never start a rejuvenation that would leave fewer than this many
        #: replicas live (deployments pass the ordering quorum 2f+k+1);
        #: None preserves the unguarded behaviour for unit scenarios.
        self.min_live = min_live
        self._in_recovery = 0
        #: names of replicas currently inside a strategy-initiated
        #: rejuvenation window (their downtime is expected — the feedback
        #: controller must not read it as crash evidence)
        self._recovering: set = set()
        self._stop: Optional[Callable[[], None]] = None
        self.recoveries_started = 0
        self.recoveries_completed = 0
        self.skipped = 0
        #: rounds deferred because rejuvenating would have dropped the live
        #: replica count below ``min_live`` (graceful degradation metric)
        self.deferred_rounds = 0
        self.obs.read("recovery.recoveries_started", lambda: self.recoveries_started)
        self.obs.read("recovery.recoveries_completed", lambda: self.recoveries_completed)
        self.obs.read("recovery.deferred_rounds", lambda: self.deferred_rounds)

    # ------------------------------------------------------------------
    def start(self, first_delay_ms: Optional[float] = None) -> None:
        """Arm the strategy's timers (idempotent: re-arming stops any
        previous rotation first, so no timer leaks)."""
        raise NotImplementedError

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.is_up)

    def _defer_if_below_floor(self) -> bool:
        """True (and one deferred round recorded) when starting another
        rejuvenation now would drop the live count below ``min_live``.

        Taking another replica down while others are crashed or under
        attack would sacrifice the ordering quorum for the whole
        rejuvenation window, so strategies defer the round instead; the
        rotation resumes once enough replicas are back.
        """
        if self.min_live is None or self.live_count - 1 >= self.min_live:
            return False
        self.deferred_rounds += 1
        self.obs.event(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_DEFERRED,
                       live=self.live_count, min_live=self.min_live)
        return True

    def _try_rejuvenate(self, replica: Process) -> bool:
        """Start rejuvenating ``replica`` unless the live-quorum floor
        blocks it (deferred) — returns whether it started."""
        if self._defer_if_below_floor():
            return False
        self._begin(replica)
        return True

    def _begin(self, replica: Process) -> None:
        self._in_recovery += 1
        self._recovering.add(replica.name)
        self.recoveries_started += 1
        self.obs.event(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_START,
                       replica=replica.name)
        replica.crash()
        self.simulator.schedule(self.recovery_duration_ms, self._finish, replica)

    def _finish(self, replica: Process) -> None:
        self._in_recovery -= 1
        self._recovering.discard(replica.name)
        self.recoveries_completed += 1
        if self.on_rejuvenate is not None:
            self.on_rejuvenate(replica)
        replica.recover()
        self.obs.event(COMP_RECOVERY_SCHEDULER, EV_REJUVENATE_DONE,
                       replica=replica.name)


class PeriodicStrategy(RecoveryStrategy):
    """Round-robin rejuvenation of a replica set on a fixed schedule."""

    def __init__(
        self,
        simulator: Simulator,
        replicas: List[Process],
        period_ms: float,
        recovery_duration_ms: float,
        max_concurrent: int = 1,
        on_rejuvenate: Optional[Callable[[Process], None]] = None,
        min_live: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(
            simulator, replicas, recovery_duration_ms,
            max_concurrent=max_concurrent, on_rejuvenate=on_rejuvenate,
            min_live=min_live, obs=obs,
        )
        self.period_ms = period_ms
        self._next_index = 0

    # ------------------------------------------------------------------
    def start(self, first_delay_ms: Optional[float] = None) -> None:
        """Begin the rejuvenation rotation (stopping any previous one, so
        a repeated ``start()`` never leaks the old periodic timer)."""
        self.stop()
        self._stop = self.simulator.call_every(
            self.period_ms,
            self._rejuvenate_next,
            first_delay=first_delay_ms,
            rng_name="recovery-scheduler",
        ).stop

    # ------------------------------------------------------------------
    def _rejuvenate_next(self) -> None:
        if self._in_recovery >= self.max_concurrent:
            self.skipped += 1
            return
        if self._defer_if_below_floor():
            return
        candidates = len(self.replicas)
        for _ in range(candidates):
            replica = self.replicas[self._next_index % candidates]
            self._next_index += 1
            if replica.is_up:
                self._begin(replica)
                return
        self.skipped += 1
