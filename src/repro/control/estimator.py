"""Per-replica health estimation: evidence in, suspicion scores out.

The estimator keeps one suspicion score per replica in ``[0, 1]``. Each
sense tick it first *decays* every score exponentially (half-life
``decay_half_life_ms`` — old evidence fades once a replica behaves), then
folds in the tick's :class:`~repro.control.signals.SignalBatch`:
``score += alpha * units * (1 - score)``, a saturating EWMA-style update
where ``units`` is the weighted evidence mass. Repeated weak evidence
approaches 1.0 asymptotically; a single strong signal (a crash) jumps
most of the way immediately.

A completed rejuvenation resets the replica's score to zero: the replica
just restarted from a clean, re-diversified image, so all prior evidence
is stale by construction.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .options import ControlOptions
from .signals import SignalBatch

__all__ = ["HealthEstimator"]


class HealthEstimator:
    """EWMA suspicion scores driven by weighted signal batches."""

    def __init__(self, replica_names: Sequence[str]) -> None:
        self.scores: Dict[str, float] = {name: 0.0 for name in replica_names}

    # ------------------------------------------------------------------
    def observe(self, batch: SignalBatch, dt_ms: float) -> None:
        """Advance one sense interval: decay, then absorb the batch."""
        self._decay(dt_ms)
        opts = ControlOptions
        for name, votes in batch.suspect_votes.items():
            self._bump(name, opts.weight_suspect * votes)
        for name in batch.crashed:
            self._bump(name, opts.weight_crash)
        for name, lag in batch.lagging.items():
            # deeper lag ⇒ more evidence, saturating at 3 thresholds
            depth = min(3.0, lag / opts.lag_threshold_seqs)
            self._bump(name, opts.weight_lag * depth)
        for name, hits in batch.overlay.items():
            self._bump(name, opts.weight_overlay * hits)
        if batch.violations and self.scores:
            # an invariant violation is a system-wide alarm with no named
            # culprit: spread the evidence across the whole fleet
            spread = opts.weight_violation * batch.violations / len(self.scores)
            for name in self.scores:
                self._bump(name, spread)

    def _decay(self, dt_ms: float) -> None:
        factor = 0.5 ** (dt_ms / ControlOptions.decay_half_life_ms)
        for name, score in self.scores.items():
            self.scores[name] = score * factor

    def _bump(self, name: str, units: float) -> None:
        score = self.scores.get(name)
        if score is None:
            return  # evidence about a non-replica (stale site mapping)
        score += ControlOptions.ewma_alpha * units * (1.0 - score)
        self.scores[name] = min(1.0, score)

    # ------------------------------------------------------------------
    def suspicion(self, name: str) -> float:
        return self.scores.get(name, 0.0)

    def reset(self, name: str) -> None:
        """A rejuvenation completed: the replica is clean by construction."""
        if name in self.scores:
            self.scores[name] = 0.0
