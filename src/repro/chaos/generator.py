"""Seeded randomized fault-schedule generation.

The generator is a pure function of ``(seed, profile, names)``: it draws
from its own ``random.Random`` (never the simulator's), so the schedule
for a seed can be regenerated, serialized, shrunk and replayed without
running a simulation. This mirrors how randomized intrusion-recovery
evaluations (Hammar & Stadler, DSN 2024) sample failure schedules, but
with the fault taxonomy Spire's threat model cares about: crash/restart
storms, rolling partitions, leader-chasing DoS, message-level faults and
gray failures.

Availability discipline: the generator never schedules more than
``max_concurrent_crashes`` overlapping crash windows (budgeted by ``f``)
and never partitions more than a minority group away, so a correct system
must keep its safety invariants throughout and recover liveness in the
calm after each window. Everything beyond that — loss, duplication,
reordering, corruption, slow nodes — is fair game at any intensity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from .faults import DEFAULT_PROFILE_KINDS, FAULTS
from .schedule import FaultAction, FaultSchedule

__all__ = ["ChaosProfile", "generate_schedule"]


@dataclass(frozen=True)
class ChaosProfile:
    """Shape of the fault space one generator draw samples from."""

    #: scheduling window (virtual ms) faults may start in
    window_start_ms: float = 1000.0
    window_end_ms: float = 7000.0
    min_actions: int = 3
    max_actions: int = 8
    #: bound on overlapping crash windows (set to the deployment's f)
    max_concurrent_crashes: int = 1
    #: bound on partition minority size (set to f)
    max_partition_minority: int = 1
    #: kinds to draw from, repeated by weight
    kinds: Tuple[str, ...] = DEFAULT_PROFILE_KINDS

    #: bounds of a drawn fault's duration (no experiment varies them)
    min_fault_ms: ClassVar[float] = 300.0
    max_fault_ms: ClassVar[float] = 2500.0


@dataclass
class DrawContext:
    """What a fault-table row may consult while it draws one action."""

    profile: ChaosProfile
    replicas: List[str]
    #: replicas + endpoints: whom a message-level fault may name
    scopes: List[str]
    overlay_links: List[Tuple[str, str]]
    overlay_sites: List[str]
    #: (start, duration) of every crash drawn so far, for the crash budget
    crash_windows: List[Tuple[float, float]] = field(default_factory=list)


def generate_schedule(
    seed: int,
    replicas: Sequence[str],
    endpoints: Sequence[str] = (),
    profile: Optional[ChaosProfile] = None,
    overlay_links: Sequence[Tuple[str, str]] = (),
    overlay_sites: Sequence[str] = (),
) -> FaultSchedule:
    """Draw one randomized fault schedule for the given topology.

    ``replicas`` are crashable consensus participants; ``endpoints``
    (proxies, HMIs) additionally scope message-level faults. To draw the
    overlay fault kinds, include them in ``profile.kinds`` and pass the
    overlay's link pairs and interior site names — both expressed as
    *site* names, which the fault table maps to daemon processes. How
    each kind picks its targets and params is its row's business
    (:mod:`repro.chaos.faults`). The result is a deterministic function
    of the arguments.
    """
    profile = profile or ChaosProfile()
    rng = random.Random(f"{seed}/chaos-schedule")
    ctx = DrawContext(
        profile, list(replicas), list(replicas) + list(endpoints),
        list(overlay_links), list(overlay_sites),
    )
    actions: List[FaultAction] = []
    for _ in range(rng.randint(profile.min_actions, profile.max_actions)):
        kind = rng.choice(profile.kinds)
        drawn = FAULTS[kind].draw(rng, ctx)
        if drawn is not None:
            actions.append(FaultAction(kind, *drawn))
    return FaultSchedule(tuple(actions))
