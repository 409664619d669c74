"""The :class:`Observability` handle — one per deployment — and its no-op twin.

``Observability`` bundles the two measurement surfaces behind a single
object components can share:

* a :class:`~repro.obs.instruments.MetricRegistry` of typed instruments,
* a structured :class:`~repro.obs.events.EventLog`.

Components never construct their own; they accept an ``obs`` parameter
and fall back to :data:`NULL_OBS`, a shared :class:`NullObservability`
whose instruments swallow every call and whose ``read`` stores nothing.
Observability decides what is read, never which code runs: a count is
kept by its component whether ``obs`` is on or off. Two sample paths (the
daemons' hop and transit histograms, the overlay's ``sent_at`` stamp)
test ``obs.enabled`` once at construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .events import EventLog, NullEventLog
from .instruments import (
    Histogram,
    IntervalCounter,
    LatencyStats,
    LatencyTracker,
    MetricRegistry,
    Reading,
    merge_metric_snapshots,
)

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "merge_obs_snapshots",
]


def merge_obs_snapshots(
    images: Sequence[Tuple[str, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge per-task ``Observability.snapshot()`` images into one.

    ``images`` is a task-ordered sequence of ``(task_id, image)`` pairs —
    the order fixes every last-writer-wins merge rule, so the result is
    deterministic regardless of which worker produced which image.
    Metrics merge under :func:`merge_metric_snapshots`; event-log
    summaries concatenate (counts and per-kind totals add) with a
    ``by_task`` breakdown keyed by task id so per-worker trace volume
    stays attributable after aggregation.
    """
    metrics = merge_metric_snapshots(
        [image.get("metrics", {}) for _, image in images]
    )
    kinds: Dict[str, int] = {}
    recorded = dropped = 0
    by_task: Dict[str, int] = {}
    for task_id, image in images:
        events = image.get("events", {})
        recorded += events.get("recorded", 0)
        dropped += events.get("dropped", 0)
        by_task[task_id] = events.get("recorded", 0)
        for kind, count in events.get("kinds", {}).items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {
        "metrics": metrics,
        "events": {
            "recorded": recorded,
            "dropped": dropped,
            "kinds": dict(sorted(kinds.items())),
            "by_task": by_task,
        },
    }


class Observability:
    """Owns one system's registry and event log.

    ``now_fn`` reads the system's (virtual) clock and stamps events.
    Pass ``log=`` to adopt an existing event log; otherwise a fresh
    :class:`EventLog` is created.
    """

    enabled = True

    def __init__(
        self,
        now_fn: Optional[Callable[[], float]] = None,
        log: Optional[EventLog] = None,
        max_events: int = 200_000,
    ) -> None:
        if now_fn is None and log is not None:
            now_fn = log.now_fn
        self.now_fn = now_fn or (lambda: 0.0)
        self.registry = MetricRegistry()
        self.log = log if log is not None else EventLog(self.now_fn, max_events)

    # -- instruments (get-or-create, delegated to the registry) --------
    def histogram(self, name: str, max_samples: int = 200_000) -> Histogram:
        return self.registry.histogram(name, max_samples)

    def latency(self, name: str) -> LatencyTracker:
        return self.registry.latency(name)

    def intervals(self, name: str, interval_ms: float = 1000.0) -> IntervalCounter:
        return self.registry.intervals(name, interval_ms)

    def read(self, name: str, fn: Callable[[], int]) -> Reading:
        return self.registry.read(name, fn)

    # -- events --------------------------------------------------------
    def event(self, component: str, kind: str, **details: Any) -> None:
        self.log.event(component, kind, **details)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable image of metrics plus event-log summary."""
        return {
            "metrics": self.registry.snapshot(),
            "events": {
                "recorded": len(self.log),
                "dropped": self.log.dropped,
                "kinds": self.log.kind_counts(),
            },
        }


class _NullInstrument:
    """Shared no-op instrument: every mutator is a pass, every reader
    returns an empty default. One singleton per family serves all
    callers of :data:`NULL_OBS`."""

    __slots__ = ()
    name = "null"

    def snapshot(self) -> Any:
        return None


class _NullHistogram(_NullInstrument):
    kind = "histogram"
    samples: Tuple[float, ...] = ()
    count = 0
    total = 0.0
    overflowed = 0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def stats(self) -> LatencyStats:
        return LatencyStats.from_samples(())


class _NullLatency(_NullInstrument):
    kind = "latency"
    samples: Tuple[Tuple[float, float], ...] = ()
    duplicates = 0
    outstanding = 0

    def submitted(self, key, at: float) -> None:
        pass

    def acknowledged(self, key, at: float) -> None:
        return None

    def latencies(self, since: float = 0.0, until: Optional[float] = None) -> List[float]:
        return []

    def stats(self, since: float = 0.0, until: Optional[float] = None) -> LatencyStats:
        return LatencyStats.from_samples(())

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        return []

    def cdf_at_marks(
        self, marks: Sequence[float], since: float = 0.0,
        until: Optional[float] = None,
    ) -> List[float]:
        return [0.0 for _ in marks]

    def timeline(self, bucket_ms: float) -> List[Tuple[float, float, int]]:
        return []


class _NullIntervals(_NullInstrument):
    kind = "intervals"
    interval_ms = 1000.0

    def record(self, at: float, count: int = 1) -> None:
        pass

    def series(self, start_ms: float, end_ms: float) -> List[Tuple[float, int]]:
        return []

    def availability(self, start_ms: float, end_ms: float, minimum: int = 1) -> float:
        return 0.0


class _NullReading(_NullInstrument):
    kind = "reading"
    value = 0


_NULL_READING = _NullReading()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_LATENCY = _NullLatency()
_NULL_INTERVALS = _NullIntervals()


class _NullRegistry:
    """Registry facade returning the shared null instruments."""

    __slots__ = ()

    def histogram(self, name: str, max_samples: int = 200_000) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def latency(self, name: str) -> _NullLatency:
        return _NULL_LATENCY

    def intervals(self, name: str, interval_ms: float = 1000.0) -> _NullIntervals:
        return _NULL_INTERVALS

    def read(self, name: str, fn) -> _NullReading:
        return _NULL_READING

    def names(self) -> List[str]:
        return []

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


class NullObservability(Observability):
    """Disabled observability: every call is a no-op.

    A single shared instance (:data:`NULL_OBS`) serves every
    un-observed component; nothing is allocated per call, so the hot
    path cost of instrumentation collapses to a no-op method call.
    """

    enabled = False

    def __init__(self) -> None:
        self.now_fn = lambda: 0.0
        self.registry = _NullRegistry()
        self.log = NullEventLog()

    def event(self, component: str, kind: str, **details: Any) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"metrics": {}, "events": {"recorded": 0, "dropped": 0, "kinds": {}}}


#: Shared no-op recorder — the default for every component not handed an
#: explicit ``obs``.
NULL_OBS = NullObservability()
