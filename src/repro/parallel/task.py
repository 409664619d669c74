"""Campaign task and record types.

Everything in this module crosses a process boundary: a
:class:`CampaignTask` travels parent→worker, and a
:class:`CampaignResult` / :class:`CampaignFailure` travels back. All of
them are plain dataclasses over JSON-ish values plus the (picklable)
options/schedule dataclasses, so pickling never drags a live simulator,
lambda, or open handle across the spawn boundary.

The merged :class:`CampaignReport` is assembled by the parent in **task
order** — never completion order — so its deterministic image (and the
fingerprint derived from it) is a pure function of the task list,
independent of worker count and scheduling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..chaos.engine import HOST_STAT_KEYS
from ..obs import merge_obs_snapshots

__all__ = [
    "CampaignTask",
    "CampaignResult",
    "CampaignFailure",
    "CampaignReport",
]


@dataclass(frozen=True)
class CampaignTask:
    """One scenario to execute in a worker.

    ``runner`` names either a builtin kind (``"chaos"``,
    ``"pbft_chaos"``) or a ``"module:callable"`` import path resolved in
    the worker (see :mod:`repro.parallel.runners`). ``options`` and the
    optional ``schedule`` are handed to the runner verbatim; both must be
    picklable.
    """

    task_id: str
    runner: str
    options: Any = None
    schedule: Any = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.runner:
            raise ValueError("runner must be non-empty")


@dataclass
class CampaignResult:
    """Outcome of one successfully executed task.

    ``wall_s``, ``worker_id`` and ``attempts`` are host/scheduling facts
    and live outside the deterministic image, mirroring the
    ``HOST_STAT_KEYS`` convention on :class:`~repro.chaos.ChaosResult`.
    """

    task_id: str
    runner: str
    ok: bool
    violations: List[Dict[str, Any]] = field(default_factory=list)
    fingerprint: str = ""
    stats: Dict[str, Any] = field(default_factory=dict)
    obs_snapshot: Optional[Dict[str, Any]] = None
    payload: Optional[Dict[str, Any]] = None
    wall_s: float = 0.0
    worker_id: int = -1
    attempts: int = 1

    @property
    def deterministic_stats(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in self.stats.items()
            if key not in HOST_STAT_KEYS
        }

    def to_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        image: Dict[str, Any] = {
            "record": "result",
            "task_id": self.task_id,
            "runner": self.runner,
            "ok": self.ok,
            "violations": self.violations,
            "fingerprint": self.fingerprint,
            "stats": self.deterministic_stats,
            "obs_snapshot": self.obs_snapshot,
            "payload": self.payload,
        }
        if not deterministic_only:
            image["stats"] = dict(self.stats)
            image["wall_s"] = self.wall_s
            image["worker_id"] = self.worker_id
            image["attempts"] = self.attempts
        return image


@dataclass
class CampaignFailure:
    """A task that could not produce a result.

    ``kind`` is one of ``"exception"`` (the runner raised — the
    traceback is captured in-worker), ``"crash"`` (the worker process
    died, e.g. a hard crash or ``os._exit``), or ``"timeout"`` (the task
    exceeded its deadline; the worker got a ``faulthandler`` dump request
    before being terminated). The owning ``seed`` is extracted from the
    task options when present so sweep reports can name the scenario
    without reparsing options.
    """

    task_id: str
    runner: str
    kind: str
    error: str = ""
    traceback: str = ""
    seed: Optional[int] = None
    wall_s: float = 0.0
    worker_id: int = -1
    attempts: int = 1

    ok = False
    fingerprint = ""
    violations: List[Dict[str, Any]] = ()
    obs_snapshot = None

    def to_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        image: Dict[str, Any] = {
            "record": "failure",
            "task_id": self.task_id,
            "runner": self.runner,
            "kind": self.kind,
            "error": self.error,
            "seed": self.seed,
        }
        if not deterministic_only:
            image["traceback"] = self.traceback
            image["wall_s"] = self.wall_s
            image["worker_id"] = self.worker_id
            image["attempts"] = self.attempts
        return image


CampaignRecord = Union[CampaignResult, CampaignFailure]


@dataclass
class CampaignReport:
    """Merged outcome of a whole campaign, in task order."""

    records: List[CampaignRecord]
    workers: int
    wall_s: float = 0.0

    @property
    def results(self) -> List[CampaignResult]:
        return [r for r in self.records if isinstance(r, CampaignResult)]

    @property
    def failures(self) -> List[CampaignFailure]:
        return [r for r in self.records if isinstance(r, CampaignFailure)]

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def violation_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            for violation in result.violations:
                key = f"{violation['monitor']}/{violation['kind']}"
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def merged_obs(self) -> Dict[str, Any]:
        """Task-ordered merge of every per-task obs snapshot."""
        return merge_obs_snapshots([
            (result.task_id, result.obs_snapshot)
            for result in self.results
            if result.obs_snapshot is not None
        ])

    def to_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        image: Dict[str, Any] = {
            "tasks": len(self.records),
            "ok": self.ok,
            "violations": self.violation_counts,
            "records": [
                record.to_dict(deterministic_only) for record in self.records
            ],
            "obs": self.merged_obs(),
        }
        if not deterministic_only:
            image["workers"] = self.workers
            image["wall_s"] = self.wall_s
        return image

    @property
    def fingerprint(self) -> str:
        """Digest of the deterministic image — worker-count independent."""
        canonical = json.dumps(
            self.to_dict(deterministic_only=True), sort_keys=True
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def wall_percentiles_ms(self) -> Dict[str, float]:
        """p50/p99 per-scenario wall cost across successful results."""
        walls = sorted(result.wall_s * 1000.0 for result in self.results)
        if not walls:
            return {"p50": 0.0, "p99": 0.0}

        def pct(fraction: float) -> float:
            index = min(len(walls) - 1, int(fraction * (len(walls) - 1) + 0.5))
            return round(walls[index], 3)

        return {"p50": pct(0.50), "p99": pct(0.99)}
