"""``repro.control`` — the adaptive intrusion-tolerance control loop.

Spire's baseline proactive recovery rejuvenates replicas on a *fixed*
schedule (PAPER.md §V): simple, but it spends rejuvenations on healthy
replicas and reacts to a visibly compromised one only when its rotation
slot comes up. This package replaces the *when/which* decision with a
feedback controller in the spirit of Hammar & Stadler's two-level
feedback control for intrusion tolerance (DSN 2024), built from three
small, separately-testable pieces:

* :class:`SignalHub` — turns ``repro.obs`` events (Prime Suspect votes,
  self-healing overlay link reports) and direct state probes (crashes,
  execution lag, chaos-monitor violation counters) into per-replica
  evidence batches;
* :class:`HealthEstimator` — per-replica EWMA suspicion scores with
  exponential decay;
* :class:`ControlPolicy` — hysteresis + cooldown state machine picking
  the replica to rejuvenate, deterministically.

:class:`FeedbackStrategy` wires them onto the shared
:class:`~repro.core.recovery.RecoveryStrategy` machinery — including the
hard ``2f+k+1`` live-quorum floor — and degrades to the periodic
rotation when signals are quiet or observability is off. Enable it with
``SpireOptions(proactive_recovery=(period, duration),
feedback_control=True)``; the default remains the bit-identical
periodic schedule. :class:`ControlOptions` holds the loop's constants.
"""

from .estimator import HealthEstimator
from .options import ControlOptions
from .policy import ControlPolicy
from .signals import SignalBatch, SignalHub
from .strategy import FeedbackStrategy

__all__ = [
    "ControlOptions",
    "ControlPolicy",
    "FeedbackStrategy",
    "HealthEstimator",
    "SignalBatch",
    "SignalHub",
]
