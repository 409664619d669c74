"""The deterministic control policy: suspicion scores → rejuvenation picks.

The policy is a small per-replica state machine with hysteresis:

* **armed** — the replica may be picked once its score crosses
  ``trigger_threshold``;
* **fired** — picked for rejuvenation; it re-arms only after *both* its
  cooldown elapses *and* its score falls back below ``clear_threshold``
  (so a replica whose score hovers at the trigger does not get
  rejuvenated in a tight loop).

A global ``decision_gap_ms`` spaces controller-initiated recoveries so a
burst of fleet-wide suspicion cannot serialize every replica through
recovery back to back. Selection among concurrent candidates is by
highest score with the replica name as the tie-break — fully
deterministic, no randomness anywhere in the loop.

The policy also runs the *fallback clock*: when every score has sat at
baseline for ``fallback_after_ms`` the controller reverts to the fixed
periodic rotation (proactive recovery must never stop entirely just
because the system looks healthy — the whole point of rejuvenation is
bounding *undetected* intrusions).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from .options import ControlOptions

__all__ = ["ControlPolicy"]


class ControlPolicy:
    """Hysteresis + cooldown state machine over suspicion scores."""

    def __init__(self, replica_names: Sequence[str]) -> None:
        self._armed: Dict[str, bool] = {name: True for name in replica_names}
        self._fired_at: Dict[str, float] = {}
        self._last_decision_at: Optional[float] = None
        #: last time any score was above the baseline threshold
        self._last_activity_at = 0.0

    # ------------------------------------------------------------------
    # Introspection (used by tests and the strategy's gauges)
    # ------------------------------------------------------------------
    def is_armed(self, name: str) -> bool:
        return self._armed.get(name, False)

    def quiet_for(self, now: float) -> float:
        """How long every score has been at baseline."""
        return now - self._last_activity_at

    # ------------------------------------------------------------------
    def decide(
        self,
        now: float,
        scores: Dict[str, float],
        eligible: Callable[[str], bool],
    ) -> Optional[str]:
        """Pick the replica to rejuvenate this tick, or ``None``.

        ``eligible`` filters out replicas the strategy cannot act on right
        now (down, already recovering, concurrency cap reached). The
        quorum floor is *not* checked here — the strategy defers at the
        floor so the deferral is observable — but cooldown, hysteresis and
        decision spacing are.

        Picking is side-effect-free apart from re-arming and the activity
        clock: the caller confirms an actually-started rejuvenation with
        :meth:`note_fired` (a floor-deferred pick stays armed and is
        retried next tick).
        """
        opts = ControlOptions
        if any(score > opts.baseline_threshold for score in scores.values()):
            self._last_activity_at = now

        # Re-arm fired replicas once their cooldown elapsed AND the score
        # left the hysteresis band: either it cleared (the evidence burst
        # decayed — normal case), or it sits back above the trigger (the
        # estimator was reset at rejuvenation-done and a grace window
        # discounts self-induced evidence, so a high score after cooldown
        # is *fresh* evidence of a persistent fault that warrants another
        # treatment). Scores hovering inside the band stay un-armed.
        for name, armed in self._armed.items():
            if armed:
                continue
            fired_at = self._fired_at.get(name)
            cooled = fired_at is None or now - fired_at >= opts.cooldown_ms
            score = scores.get(name, 0.0)
            if cooled and (score <= opts.clear_threshold
                           or score >= opts.trigger_threshold):
                self._armed[name] = True

        if (self._last_decision_at is not None
                and now - self._last_decision_at < opts.decision_gap_ms):
            return None

        best: Optional[str] = None
        best_score = 0.0
        for name in sorted(self._armed):
            score = scores.get(name, 0.0)
            if not self._armed[name] or score < opts.trigger_threshold:
                continue
            if not eligible(name):
                continue
            if best is None or score > best_score:
                best, best_score = name, score
        return best

    def note_fired(self, name: str, now: float) -> None:
        """Record a rejuvenation pick (targeted or fallback) for ``name``."""
        self._armed[name] = False
        self._fired_at[name] = now
        self._last_decision_at = now

    # ------------------------------------------------------------------
    def in_fallback(self, now: float) -> bool:
        """True once the quiet period warrants the periodic fallback."""
        return self.quiet_for(now) >= ControlOptions.fallback_after_ms
