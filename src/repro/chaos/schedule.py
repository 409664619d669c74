"""Fault schedules: the serializable description of one chaos scenario.

A :class:`FaultSchedule` is an ordered tuple of :class:`FaultAction`
records. Together with the deployment options and the master seed it fully
determines a chaos run — the engine executes the schedule against the
virtual clock and every random choice inside the fault primitives flows
through named simulator RNG streams, so ``(seed, schedule)`` replays to an
identical trace.

Schedules are plain data (strings, numbers, tuples) by construction, which
is what makes them JSON-round-trippable for scenario files and hashable
for run fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .faults import FAULTS

__all__ = ["FaultAction", "FaultSchedule"]


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what, when, against whom, and how hard.

    Construction is the boundary scenario files cross: the kind's row of
    the fault table (:mod:`repro.chaos.faults`) checks the target count,
    the param names and every param value, so a bad file fails here with a
    ``ValueError`` naming the kind and the field, not inside a run.
    """

    kind: str
    start_ms: float
    duration_ms: float
    targets: Tuple[str, ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULTS:
            raise ValueError(f"unknown fault kind: {self.kind}")
        if self.duration_ms < 0 or self.start_ms < 0:
            raise ValueError("fault windows cannot be negative")
        params = self.params.items() if isinstance(self.params, Mapping) else self.params
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "params", tuple(sorted((str(k), v) for k, v in params)))
        FAULTS[self.kind].check(self.targets, self.params)

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "targets": list(self.targets),
            "params": {name: value for name, value in self.params},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultAction":
        return FaultAction(
            kind=data["kind"],
            start_ms=float(data["start_ms"]),
            duration_ms=float(data["duration_ms"]),
            targets=tuple(data.get("targets", ())),
            params=data.get("params", {}),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of fault actions."""

    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "actions",
            tuple(sorted(self.actions, key=lambda a: (a.start_ms, a.kind))),
        )

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def subset(self, indices: Iterable[int]) -> "FaultSchedule":
        """Schedule containing only the actions at ``indices`` (shrinking)."""
        keep = set(indices)
        return FaultSchedule(tuple(
            action for index, action in enumerate(self.actions) if index in keep
        ))

    def without(self, indices: Iterable[int]) -> "FaultSchedule":
        drop = set(indices)
        return self.subset(i for i in range(len(self.actions)) if i not in drop)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_list(self) -> List[Dict[str, Any]]:
        return [action.to_dict() for action in self.actions]

    @staticmethod
    def from_list(items: Iterable[Dict[str, Any]]) -> "FaultSchedule":
        return FaultSchedule(tuple(FaultAction.from_dict(item) for item in items))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_list(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultSchedule":
        return FaultSchedule.from_list(json.loads(text))
