"""Typed metric instruments and the central registry.

Three push families and one read cover everything the evaluation measures:

* :class:`Histogram` — value distributions with full percentile stats;
* :class:`LatencyTracker` / :class:`IntervalCounter` — the keyed
  submit→ack latency and per-interval availability primitives the paper's
  figures are built from;
* :class:`Reading` — a count a component already keeps, read (and summed
  over every registrant) when the registry snapshots. A count lives on its
  component and obs reads it; a level lives in the event log.

Instruments live in a :class:`MetricRegistry`; ``registry.snapshot()``
returns a JSON-serializable, deterministically ordered image of every
instrument. Every instrument holds simulated time or a count, never host
time, so two runs of the same seed produce identical snapshots whatever
the host's speed; host time is measured from outside the run, by the
``benchmarks/e2e`` ledger.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LatencyStats",
    "Histogram",
    "LatencyTracker",
    "IntervalCounter",
    "Reading",
    "MetricRegistry",
    "merge_instrument_images",
    "merge_metric_snapshots",
]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a latency sample (all in ms)."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    p999: float
    maximum: float
    minimum: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)

        def percentile(p: float) -> float:
            index = min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))
            return ordered[index]

        # fsum avoids catastrophic rounding on pathological inputs
        # (e.g. subnormal samples); the clamp pins the remaining one-ulp
        # division error inside [minimum, maximum].
        mean = math.fsum(ordered) / len(ordered)
        return LatencyStats(
            count=len(ordered),
            mean=min(max(mean, ordered[0]), ordered[-1]),
            median=percentile(0.50),
            p90=percentile(0.90),
            p99=percentile(0.99),
            p999=percentile(0.999),
            maximum=ordered[-1],
            minimum=ordered[0],
        )

    def row(self) -> str:
        return (
            f"n={self.count:7d}  mean={self.mean:8.2f}  median={self.median:8.2f}  "
            f"p90={self.p90:8.2f}  p99={self.p99:8.2f}  p99.9={self.p999:8.2f}  "
            f"max={self.maximum:8.2f}"
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.maximum,
            "min": self.minimum,
        }


class _Instrument:
    """Base class: a named instrument that can snapshot itself."""

    kind = "instrument"

    def __init__(self, name: str) -> None:
        self.name = name

    def snapshot(self) -> Any:
        raise NotImplementedError


class Reading(_Instrument):
    """The sum of zero-argument functions, called whenever it is read."""

    kind = "reading"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.fns: List[Callable[[], int]] = []

    @property
    def value(self) -> int:
        return sum(fn() for fn in self.fns)

    def snapshot(self) -> int:
        return self.value


class Histogram(_Instrument):
    """A distribution of observed values (full-sample percentiles).

    Samples are retained in full up to ``max_samples``, as C doubles (8
    bytes each, not a float object per sample); beyond that the stream
    keeps counting/summing but stops storing (``overflowed`` flags the
    truncation so reports never silently present a clipped tail as
    complete).
    """

    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 200_000) -> None:
        super().__init__(name)
        self.max_samples = max_samples
        self.samples = array("d")
        self.count = 0
        self.total = 0.0
        self.overflowed = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        samples = self.samples
        if len(samples) < self.max_samples:
            samples.append(value)
        else:
            self.overflowed += 1

    def stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        image = self.stats().to_dict()
        image["sum"] = self.total
        if self.overflowed:
            image["overflowed"] = self.overflowed
        return image


class LatencyTracker(_Instrument):
    """Tracks per-item submit → acknowledge latency, keyed arbitrarily.

    This is the end-to-end latency primitive behind the paper's CDFs and
    attack timelines.
    """

    kind = "latency"

    def __init__(self, name: str = "latency") -> None:
        super().__init__(name)
        self._submitted: Dict[Tuple, float] = {}
        #: (ack_time, latency) pairs in acknowledgement order
        self.samples: List[Tuple[float, float]] = []
        self.duplicates = 0

    def submitted(self, key: Tuple, at: float) -> None:
        self._submitted.setdefault(key, at)

    def acknowledged(self, key: Tuple, at: float) -> Optional[float]:
        """Record completion; returns the latency (None for unknown/dup)."""
        start = self._submitted.pop(key, None)
        if start is None:
            self.duplicates += 1
            return None
        latency = at - start
        self.samples.append((at, latency))
        return latency

    @property
    def outstanding(self) -> int:
        return len(self._submitted)

    def latencies(self, since: float = 0.0, until: Optional[float] = None) -> List[float]:
        return [
            latency for at, latency in self.samples
            if at >= since and (until is None or at <= until)
        ]

    def stats(self, since: float = 0.0, until: Optional[float] = None) -> LatencyStats:
        return LatencyStats.from_samples(self.latencies(since, until))

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs for CDF plots/tables."""
        values = sorted(latency for _, latency in self.samples)
        if not values:
            return []
        step = max(1, len(values) // points)
        out = []
        for index in range(0, len(values), step):
            out.append((values[index], (index + 1) / len(values)))
        out.append((values[-1], 1.0))
        return out

    def cdf_at_marks(
        self, marks: Sequence[float], since: float = 0.0,
        until: Optional[float] = None,
    ) -> List[float]:
        """Latency at each CDF fraction in ``marks`` (for figure tables)."""
        values = sorted(self.latencies(since, until))
        if not values:
            return [0.0 for _ in marks]
        return [
            values[min(len(values) - 1, max(0, int(mark * len(values)) - 1))]
            for mark in marks
        ]

    def timeline(self, bucket_ms: float) -> List[Tuple[float, float, int]]:
        """(bucket_start, mean_latency, count) series for attack plots."""
        buckets: Dict[int, List[float]] = {}
        for at, latency in self.samples:
            buckets.setdefault(int(at // bucket_ms), []).append(latency)
        return [
            (index * bucket_ms, sum(values) / len(values), len(values))
            for index, values in sorted(buckets.items())
        ]

    def snapshot(self) -> Dict[str, float]:
        image = self.stats().to_dict()
        image["outstanding"] = self.outstanding
        image["duplicates"] = self.duplicates
        return image


class IntervalCounter(_Instrument):
    """Counts events per fixed interval (e.g. delivered updates/second) —
    the basis of the availability metric in the recovery and red-team
    experiments."""

    kind = "intervals"

    def __init__(self, interval_ms: float, name: str = "intervals") -> None:
        super().__init__(name)
        self.interval_ms = interval_ms
        self._counts: Dict[int, int] = {}

    def record(self, at: float, count: int = 1) -> None:
        self._counts[int(at // self.interval_ms)] = (
            self._counts.get(int(at // self.interval_ms), 0) + count
        )

    def series(self, start_ms: float, end_ms: float) -> List[Tuple[float, int]]:
        first = int(start_ms // self.interval_ms)
        last = int(end_ms // self.interval_ms)
        return [
            (index * self.interval_ms, self._counts.get(index, 0))
            for index in range(first, last + 1)
        ]

    def availability(self, start_ms: float, end_ms: float, minimum: int = 1) -> float:
        """Fraction of intervals with at least ``minimum`` events."""
        series = self.series(start_ms, end_ms)
        if not series:
            return 0.0
        good = sum(1 for _, count in series if count >= minimum)
        return good / len(series)

    def snapshot(self) -> Dict[str, float]:
        total = sum(self._counts.values())
        return {"total": total, "intervals": len(self._counts)}


# ----------------------------------------------------------------------
# Snapshot merging (parallel campaign aggregation)
# ----------------------------------------------------------------------
# Snapshot images are plain JSON data, so cross-process aggregation works
# on the images themselves: counts add, watermarks take min/max, and
# sample-derived statistics that cannot be combined from two summaries
# (percentiles) are dropped rather than silently mis-merged. The rules
# are keyed by field name, which is uniform across instrument families.

#: image keys that accumulate across sources
_MERGE_ADD_KEYS = frozenset({
    "count", "sum", "total", "intervals", "duplicates", "outstanding",
    "overflowed", "dropped", "recorded",
})
#: sample-derived keys that cannot be recombined from two summaries;
#: ``mean`` is recomputed from sum/count where possible
_MERGE_DERIVED_KEYS = frozenset({"mean", "median", "p90", "p99", "p999"})


def merge_instrument_images(base: Any, other: Any) -> Any:
    """Merge two instrument snapshot images of the same instrument.

    Integers (readings) add. Dict images merge field-wise:
    additive keys sum, ``min``/``max`` take the watermark union, any other
    key is last-writer-wins (merge in task order for determinism), and
    percentile keys are dropped (``mean`` is recomputed from ``sum`` and
    ``count`` when both survive). ``base`` may be ``None`` to seed the
    fold.
    """
    if base is None:
        return other if not isinstance(other, dict) else dict(other)
    if isinstance(base, (int, float)) and isinstance(other, (int, float)):
        return base + other
    if not isinstance(base, dict) or not isinstance(other, dict):
        raise TypeError(
            f"cannot merge instrument images {type(base).__name__} "
            f"and {type(other).__name__}"
        )
    merged: Dict[str, Any] = {}
    for key in sorted(set(base) | set(other)):
        if key in _MERGE_DERIVED_KEYS:
            continue
        a, b = base.get(key), other.get(key)
        if a is None:
            merged[key] = b
        elif b is None:
            merged[key] = a
        elif key in _MERGE_ADD_KEYS:
            merged[key] = a + b
        elif key == "min":
            merged[key] = min(a, b)
        elif key == "max":
            merged[key] = max(a, b)
        else:
            merged[key] = b
    if merged.get("count") and "sum" in merged:
        merged["mean"] = merged["sum"] / merged["count"]
    return merged


def merge_metric_snapshots(
    images: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold a sequence of ``MetricRegistry.snapshot()`` images into one.

    A single-element sequence passes through untouched (full fidelity,
    percentiles included); two or more merge per instrument name under
    :func:`merge_instrument_images`. The fold runs in sequence order, so
    callers that feed task-ordered images get a deterministic result
    regardless of which process produced each image.
    """
    if len(images) == 1:
        return dict(sorted(images[0].items()))
    merged: Dict[str, Any] = {}
    for image in images:
        for name, snap in image.items():
            if name in merged:
                merged[name] = merge_instrument_images(merged[name], snap)
            else:
                merged[name] = snap if not isinstance(snap, dict) else dict(snap)
    return dict(sorted(merged.items()))


class MetricRegistry:
    """Central, name-keyed store of every instrument of one system.

    ``get-or-create`` semantics: asking twice for the same name returns
    the same instrument; asking for an existing name with a different
    instrument family is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, factory, expected: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, expected):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"not {expected.kind}"
            )
        return instrument

    def histogram(self, name: str, max_samples: int = 200_000) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, max_samples), Histogram
        )

    def latency(self, name: str) -> LatencyTracker:
        return self._get_or_create(name, lambda: LatencyTracker(name), LatencyTracker)

    def intervals(self, name: str, interval_ms: float = 1000.0) -> IntervalCounter:
        return self._get_or_create(
            name, lambda: IntervalCounter(interval_ms, name), IntervalCounter
        )

    def read(self, name: str, fn: Callable[[], int]) -> Reading:
        """Add ``fn`` to the reading ``name``; it is called at read time."""
        reading = self._get_or_create(name, lambda: Reading(name), Reading)
        reading.fns.append(fn)
        return reading

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable image of every instrument, sorted by name."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }
