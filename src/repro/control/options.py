"""Calibration of the adaptive intrusion-tolerance control loop.

:class:`ControlOptions` holds the feedback strategy's constants: how often
it senses, how fast evidence moves the per-replica suspicion score, the
hysteresis band that turns scores into decisions, the per-replica
cooldown, the lag that counts as a signal, the evidence weights, decay,
decision gap, grace window and quiet-fallback clock. No experiment varies
them, so none is an option; a deployment switches the controller on with
``SpireOptions(feedback_control=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["ControlOptions"]


@dataclass(frozen=True)
class ControlOptions:
    """Calibration of the feedback recovery controller.

    Tuned for the repo's WAN chaos scenarios (Prime WAN timeouts,
    100–500 ms poll/resubmit cadence): suspicion saturates within a few
    sense intervals of sustained evidence and decays to baseline within a
    handful of seconds of quiet.
    """

    #: controller evaluation period (also the signal-polling period)
    sense_interval_ms: ClassVar[float] = 250.0
    #: how strongly one unit of fresh evidence moves a score toward 1.0
    ewma_alpha: ClassVar[float] = 0.35
    #: score above this ⇒ the replica is a rejuvenation candidate
    trigger_threshold: ClassVar[float] = 0.55
    #: hysteresis: after firing, a replica re-arms only once its score
    #: falls back below this (and its cooldown has elapsed)
    clear_threshold: ClassVar[float] = 0.25
    #: per-replica minimum spacing between targeted rejuvenations
    cooldown_ms: ClassVar[float] = 6000.0
    #: sequence-number lag behind the fleet maximum that counts as a
    #: missed-heartbeat signal
    lag_threshold_seqs: ClassVar[int] = 25
    #: suspicion half-life while a replica is quiet (exponential decay)
    decay_half_life_ms: ClassVar[float] = 4000.0
    #: global minimum spacing between controller-initiated recoveries
    #: (keeps a burst of suspicion from serializing the whole fleet
    #: through recovery back to back)
    decision_gap_ms: ClassVar[float] = 1500.0
    #: with every score at baseline for this long, the controller falls
    #: back to the periodic rotation (never leaves replicas unrejuvenated
    #: forever just because the system looks healthy); the rotation runs
    #: at the deployment's ``proactive_recovery`` period
    fallback_after_ms: ClassVar[float] = 10_000.0
    #: scores below this count as baseline for the fallback clock
    baseline_threshold: ClassVar[float] = 0.05
    #: after a rejuvenation completes, evidence against that replica is
    #: discounted for this long — Suspect votes from the view change our
    #: own leader-rejuvenation provoked keep arriving after the window
    #: closes, and must not re-suspect the fresh image
    post_recovery_grace_ms: ClassVar[float] = 1500.0
    # evidence weights (units of evidence per signal occurrence)
    #: a peer's Suspect vote naming the replica as a slow/faulty leader
    weight_suspect: ClassVar[float] = 0.8
    #: the replica is observed down outside a rejuvenation window
    weight_crash: ClassVar[float] = 1.0
    #: execution lag beyond ``lag_threshold_seqs`` behind the fleet max
    weight_lag: ClassVar[float] = 0.5
    #: overlay link trouble (down/degraded/partition) at the replica's site
    weight_overlay: ClassVar[float] = 0.3
    #: a chaos invariant monitor flagged a violation (system-wide alarm,
    #: spread across all live replicas)
    weight_violation: ClassVar[float] = 0.4
