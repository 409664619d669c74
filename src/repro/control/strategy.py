"""The feedback recovery strategy: the control loop, assembled.

Dataflow per sense tick (every ``sense_interval_ms``)::

    SignalHub.poll()  ──batch──▶  HealthEstimator.observe()
                                        │ scores
                                        ▼
                              ControlPolicy.decide()
                                        │ pick / None
                                        ▼
                      RecoveryStrategy._try_rejuvenate()
                      (hard 2f+k+1 floor: defer, never break quorum)

Decisions are emitted as ``control-decision`` obs events carrying the
picked replica's suspicion score, so scenario reports show *why* the
controller acted. When every score sits at baseline for
``fallback_after_ms`` — or when the deployment runs with observability
disabled and there are no signals at all — the strategy
degrades to the fixed periodic rotation (``control-fallback`` events),
so rejuvenation coverage never lapses.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.recovery import RecoveryStrategy
from ..obs import (
    COMP_RECOVERY_CONTROLLER,
    EV_CONTROL_DECISION,
    EV_CONTROL_FALLBACK,
    Observability,
)
from ..simnet import Process, Simulator
from .estimator import HealthEstimator
from .options import ControlOptions
from .policy import ControlPolicy
from .signals import SignalHub

__all__ = ["FeedbackStrategy"]


class FeedbackStrategy(RecoveryStrategy):
    """Adaptive proactive recovery driven by observed health signals."""

    def __init__(
        self,
        simulator: Simulator,
        replicas: List[Process],
        period_ms: float,
        recovery_duration_ms: float,
        hub: Optional[SignalHub] = None,
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
        #: fallback rotation period (the schedule the controller degrades
        #: to when signals are quiet or unavailable)
        self.period_ms = period_ms
        #: ``None`` when observability is disabled: the loop then runs as
        #: a pure periodic rotation on the sense timer
        self.hub = hub
        names = [replica.name for replica in self.replicas]
        self.estimator = HealthEstimator(names)
        self.policy = ControlPolicy(names)
        self._by_name = {replica.name: replica for replica in self.replicas}
        self._next_index = 0
        self._last_rotation_at = 0.0
        #: replica -> time its last rejuvenation finished (grace window)
        self._finished_at: dict = {}
        #: controller-initiated (targeted) recoveries actually started
        self.decisions = 0
        #: quiet-fallback rotations performed
        self.fallback_rotations = 0
        self.obs.read("control.decisions", lambda: self.decisions)
        self.obs.read("control.fallback_rotations", lambda: self.fallback_rotations)

    # ------------------------------------------------------------------
    def start(self, first_delay_ms: Optional[float] = None) -> None:
        """Arm the sense timer (stopping any previous one first)."""
        self.stop()
        self._stop = self.simulator.call_every(
            ControlOptions.sense_interval_ms,
            self._tick,
            first_delay=first_delay_ms,
            rng_name="recovery-controller",
        ).stop

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.simulator.now
        if self.hub is not None:
            batch = self.hub.poll(self._shielded(now))
            self.estimator.observe(batch, ControlOptions.sense_interval_ms)
            pick = self.policy.decide(now, self.estimator.scores, self._eligible)
            if pick is not None:
                started = self._try_rejuvenate(self._by_name[pick])
                self.obs.event(
                    COMP_RECOVERY_CONTROLLER, EV_CONTROL_DECISION,
                    replica=pick,
                    score=round(self.estimator.suspicion(pick), 4),
                    started=started,
                )
                if started:
                    self.policy.note_fired(pick, now)
                    self.decisions += 1
                    self._last_rotation_at = now
                # a floor-deferred pick stays armed: retried next tick
                return
        if self.hub is None or self.policy.in_fallback(now):
            self._fallback_rotation(now)

    def _shielded(self, now: float) -> set:
        """Replicas whose evidence is discounted right now: mid-recovery,
        plus those inside the post-recovery grace window."""
        grace = ControlOptions.post_recovery_grace_ms
        return self._recovering | {
            name for name, at in self._finished_at.items()
            if now - at <= grace
        }

    def _eligible(self, name: str) -> bool:
        if self._in_recovery >= self.max_concurrent:
            return False
        replica = self._by_name.get(name)
        return (
            replica is not None
            and replica.is_up
            and name not in self._recovering
        )

    def _fallback_rotation(self, now: float) -> None:
        """The quiet-path periodic rotation (same shape as
        :class:`~repro.core.recovery.PeriodicStrategy`)."""
        if now - self._last_rotation_at < self.period_ms:
            return
        self._last_rotation_at = now
        if self._in_recovery >= self.max_concurrent:
            self.skipped += 1
            return
        if self._defer_if_below_floor():
            return
        candidates = len(self.replicas)
        for _ in range(candidates):
            replica = self.replicas[self._next_index % candidates]
            self._next_index += 1
            if replica.is_up and replica.name not in self._recovering:
                self._begin(replica)
                self.policy.note_fired(replica.name, now)
                self.fallback_rotations += 1
                self.obs.event(
                    COMP_RECOVERY_CONTROLLER, EV_CONTROL_FALLBACK,
                    replica=replica.name,
                )
                return
        self.skipped += 1

    # ------------------------------------------------------------------
    def _finish(self, replica: Process) -> None:
        super()._finish(replica)
        # the replica restarted from a clean, re-diversified image: every
        # piece of prior evidence about it is stale by construction
        self.estimator.reset(replica.name)
        self._finished_at[replica.name] = self.simulator.now
