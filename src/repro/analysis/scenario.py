"""Scenario reports: one call from a finished run to a figure-ready summary.

:class:`ScenarioReport` aggregates everything a run's
:class:`~repro.obs.Observability` handle collected — latency trackers
(with CDF marks matching the paper's figures), readings,
histograms, interval series, and the structured event log (including its
``dropped`` counter, so a clipped trace is never mistaken for a quiet
one) — and renders it as JSON (for archival/diffing) or aligned text
(for benchmark stdout). Benchmarks and examples build one instead of
hand-rolling their own aggregation::

    report = ScenarioReport.from_deployment(deployment, title="quickstart")
    report.render(print)                 # text form
    report.write("results/quickstart")  # -> .json + .txt
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import LatencyTracker, Observability
from .report import print_table

__all__ = ["ScenarioReport", "DEFAULT_CDF_MARKS", "current_peak_rss"]


def current_peak_rss() -> Optional[int]:
    """This process's peak resident set size in bytes, or None where the
    platform doesn't report it (``ru_maxrss`` is KB on Linux, bytes on
    macOS)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - platform quirk
        return None
    return peak if sys.platform == "darwin" else peak * 1024

#: the CDF fractions the paper's latency figures tabulate
DEFAULT_CDF_MARKS: Tuple[float, ...] = (
    0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0,
)


class ScenarioReport:
    """Aggregated view of one run's observability data."""

    def __init__(
        self,
        obs: Observability,
        title: str = "scenario",
        sim_time_ms: Optional[float] = None,
        events_processed: Optional[int] = None,
        cdf_marks: Sequence[float] = DEFAULT_CDF_MARKS,
        extra: Optional[Dict[str, Any]] = None,
        wall_runtime_s: Optional[float] = None,
        peak_rss_bytes: Optional[int] = None,
        device_count: Optional[int] = None,
    ) -> None:
        self.obs = obs
        self.title = title
        self.sim_time_ms = sim_time_ms
        self.events_processed = events_processed
        self.cdf_marks = tuple(cdf_marks)
        self.extra = dict(extra or {})
        self.wall_runtime_s = wall_runtime_s
        self.peak_rss_bytes = peak_rss_bytes
        self.device_count = device_count

    @classmethod
    def from_deployment(
        cls,
        deployment: Any,
        title: str = "scenario",
        cdf_marks: Sequence[float] = DEFAULT_CDF_MARKS,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "ScenarioReport":
        """Build a report from a :class:`~repro.core.SpireDeployment`
        (or anything exposing ``obs`` and ``simulator``)."""
        return cls(
            deployment.obs,
            title=title,
            sim_time_ms=deployment.simulator.now,
            events_processed=deployment.simulator.events_processed,
            cdf_marks=cdf_marks,
            extra=extra,
            wall_runtime_s=getattr(deployment, "wall_runtime_s", None),
            peak_rss_bytes=current_peak_rss(),
            device_count=getattr(deployment, "device_count", None),
        )

    @property
    def events_per_sec(self) -> Optional[float]:
        """Simulated events executed per host wall-clock second."""
        if not self.wall_runtime_s or self.events_processed is None:
            return None
        return self.events_processed / self.wall_runtime_s

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    def latency(self, name: str) -> Optional[LatencyTracker]:
        instrument = self.obs.registry.get(name)
        return instrument if isinstance(instrument, LatencyTracker) else None

    def _by_kind(self, *kinds: str) -> List[Any]:
        return [
            self.obs.registry.get(name)
            for name in self.obs.registry.names()
            if getattr(self.obs.registry.get(name), "kind", None) in kinds
        ]

    # ------------------------------------------------------------------
    # Structured form
    # ------------------------------------------------------------------
    def to_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "title": self.title,
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "cdf_marks": list(self.cdf_marks),
            "latency_cdfs": {
                tracker.name: tracker.cdf_at_marks(self.cdf_marks)
                for tracker in self._by_kind("latency")
            },
        }
        if not deterministic_only:
            # host-dependent sizing stays out of deterministic-only dumps
            # (which are diffed/fingerprinted across hosts); device_count
            # rides with it so fleet sizing never perturbs pinned dumps
            if self.wall_runtime_s is not None:
                data["wall_runtime_s"] = round(self.wall_runtime_s, 4)
                rate = self.events_per_sec
                if rate is not None:
                    data["events_per_sec"] = round(rate, 1)
            if self.peak_rss_bytes is not None:
                data["peak_rss_bytes"] = self.peak_rss_bytes
            if self.device_count is not None:
                data["device_count"] = self.device_count
        data.update(self.obs.snapshot())
        if self.extra:
            data["extra"] = self.extra
        return data

    def to_json(self, indent: int = 2, deterministic_only: bool = False) -> str:
        return json.dumps(
            self.to_dict(deterministic_only), indent=indent, sort_keys=True
        )

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    def render(self, out: Callable[[str], None] = print) -> None:
        """Print the report as aligned, diff-friendly text."""
        out("")
        out(f"### scenario report: {self.title} ###")
        if self.sim_time_ms is not None:
            summary = f"simulated {self.sim_time_ms / 1000.0:.1f} s"
            if self.events_processed is not None:
                summary += f" in {self.events_processed} events"
            out(summary)
        if self.wall_runtime_s:
            rate = self.events_per_sec
            line = f"wall clock: {self.wall_runtime_s:.2f} s"
            if rate is not None:
                line += f" ({rate:,.0f} events/s)"
            out(line)
        if self.device_count is not None:
            out(f"field devices: {self.device_count}")
        if self.peak_rss_bytes is not None:
            out(f"peak RSS: {self.peak_rss_bytes / (1024 * 1024):.1f} MiB")

        trackers = self._by_kind("latency")
        for tracker in trackers:
            stats = tracker.stats()
            out("")
            out(f"latency: {tracker.name}")
            out(f"  {stats.row()}")
            if stats.count:
                values = tracker.cdf_at_marks(self.cdf_marks)
                print_table(
                    f"{tracker.name} CDF (ms)",
                    ["fraction", "latency"],
                    [[f"{mark:.1%}", value]
                     for mark, value in zip(self.cdf_marks, values)],
                    out=out,
                )

        readings = self._by_kind("reading")
        if readings:
            print_table(
                "counters",
                ["name", "value"],
                [[r.name, r.value] for r in readings],
                out=out,
            )

        histograms = self._by_kind("histogram")
        if histograms:
            print_table(
                "histograms",
                ["name", "n", "mean", "p99", "max"],
                [
                    [h.name, h.count, h.mean, h.stats().p99, h.stats().maximum]
                    for h in histograms
                ],
                out=out,
            )

        intervals = self._by_kind("intervals")
        if intervals:
            print_table(
                "interval series",
                ["name", "interval_ms", "total"],
                [[i.name, i.interval_ms, i.snapshot()["total"]]
                 for i in intervals],
                out=out,
            )

        kinds = self.obs.log.kind_counts()
        if kinds:
            print_table(
                "events",
                ["kind", "count"],
                [[key, count] for key, count in sorted(kinds.items())],
                out=out,
            )
        dropped = self.obs.log.dropped
        out("")
        out(f"event log: {len(self.obs.log)} recorded, {dropped} dropped"
            + (" (TRACE CLIPPED — raise max_events)" if dropped else ""))
        for key, value in sorted(self.extra.items()):
            out(f"{key}: {value}")

    def text(self) -> str:
        lines: List[str] = []
        self.render(lines.append)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def write(self, path_base: str) -> Tuple[str, str]:
        """Write ``<path_base>.json`` and ``<path_base>.txt``; returns
        the two paths."""
        json_path = f"{path_base}.json"
        txt_path = f"{path_base}.txt"
        with open(json_path, "w") as handle:
            handle.write(self.to_json() + "\n")
        with open(txt_path, "w") as handle:
            handle.write(self.text())
        return json_path, txt_path
