"""Delta-debugging shrinker for failing chaos scenarios.

A generated schedule that triggers an invariant violation usually contains
mostly-irrelevant faults. The shrinker runs ddmin (Zeller's delta
debugging) over the schedule's actions: repeatedly re-run the scenario
with subsets of the actions removed, keep any subset that still flags
every ``(monitor, kind)`` the full schedule flagged (never another
failure), and stop at a 1-minimal schedule. Because every fault action
draws from its own named RNG stream, removing one action does not
perturb the others' randomness, which is what makes the reduction
monotone enough for ddmin to work well in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .engine import ChaosEngine, ChaosOptions, Mutator
from .schedule import FaultSchedule

__all__ = ["ShrinkResult", "shrink_schedule"]


@dataclass
class ShrinkResult:
    """Outcome of one shrinking session."""

    schedule: FaultSchedule
    runs: int
    reproduced: bool
    #: progress log: (actions remaining after each successful reduction)
    history: List[int] = field(default_factory=list)


def shrink_schedule(
    options: ChaosOptions,
    schedule: FaultSchedule,
    mutator: Optional[Mutator] = None,
    max_runs: int = 64,
) -> ShrinkResult:
    """Reduce ``schedule`` to a smaller one still failing the same way.

    Returns the smallest reproducing schedule found within ``max_runs``
    engine re-runs. ``reproduced`` is False when even the full schedule no
    longer violates (stale scenario or wrong mutator) — in that case the
    input schedule is returned unchanged.
    """
    state = {"runs": 0}

    def flagged(candidate: FaultSchedule) -> Set[Tuple[str, str]]:
        state["runs"] += 1
        result = ChaosEngine(options, candidate, mutator).run()
        return {(v.monitor, v.kind) for v in result.violations}

    failure = flagged(schedule)
    if not failure:
        return ShrinkResult(schedule, state["runs"], reproduced=False)

    history: List[int] = [len(schedule)]

    # A violation independent of every fault (e.g. a code mutant caught in
    # a calm run) shrinks straight to the empty schedule.
    if len(schedule) and failure <= flagged(schedule.subset(())):
        return ShrinkResult(
            schedule.subset(()), state["runs"], reproduced=True, history=[0],
        )

    current = list(range(len(schedule)))
    granularity = 2
    while len(current) > 1 and state["runs"] < max_runs:
        chunk = max(1, math.ceil(len(current) / granularity))
        reduced = False
        for offset in range(0, len(current), chunk):
            candidate = current[:offset] + current[offset + chunk:]
            if not candidate or state["runs"] >= max_runs:
                continue
            if failure <= flagged(schedule.subset(candidate)):
                current = candidate
                granularity = max(2, granularity - 1)
                history.append(len(current))
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break  # 1-minimal: no single action can be removed
            granularity = min(len(current), granularity * 2)

    return ShrinkResult(
        schedule.subset(current), state["runs"], reproduced=True, history=history,
    )
