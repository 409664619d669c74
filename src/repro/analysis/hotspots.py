"""Wall-clock hot-spot table from an ``Observability`` handle.

Every wall-clock histogram in a run's registry — ``crypto.<op>.wall_ms``
from :class:`~repro.crypto.TimedCrypto` (every op but ``mac`` /
``check_mac``, which are counted and not timed) — is a measurement of
where real time went. This module aggregates them into one ranked table so
a benchmark (or a future PR deciding what to optimize next) can see the
cost centers of a run at a glance without re-profiling.

Wall-clock data is inherently non-deterministic, so these helpers only
read ``deterministic=False`` instruments and never appear in the
deterministic scenario-report image.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from .report import print_table

__all__ = ["wall_clock_hotspots", "print_hotspots"]

#: one table row: (name, calls, total wall ms, mean wall ms)
HotspotRow = Tuple[str, int, float, float]


def wall_clock_hotspots(obs: Any, top: int = 15) -> List[HotspotRow]:
    """Rank a run's wall-clock histograms by total time spent.

    Returns up to ``top`` rows sorted by descending total milliseconds.
    Works on any ``Observability`` handle (the null handle yields ``[]``).
    """
    registry = obs.registry
    rows: List[HotspotRow] = []
    for name in registry.names():
        instrument = registry.get(name)
        if getattr(instrument, "kind", None) != "histogram":
            continue
        if instrument.deterministic or not instrument.count:
            continue
        rows.append(
            (name, instrument.count, instrument.total, instrument.mean)
        )
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:top]


def print_hotspots(
    obs: Any, out: Callable[[str], None] = print, top: int = 15
) -> List[HotspotRow]:
    """Print the hot-spot table; returns the rows it printed."""
    rows = wall_clock_hotspots(obs, top=top)
    if not rows:
        out("(no wall-clock histograms recorded — observability off?)")
        return rows
    print_table(
        "wall-clock hot spots",
        ["path", "calls", "total_ms", "mean_ms"],
        [[name, calls, round(total, 3), round(mean, 6)]
         for name, calls, total, mean in rows],
        out=out,
    )
    return rows
