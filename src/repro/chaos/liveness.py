"""The liveness judge: progress owed from instant t arrives by t + B.

It judges a run's timelines after the run and shares no code with the
system (the standard library only). One bound B, computed by the harness
from the protocol's timers (suspicion plus one view change plus one
request period), serves three properties:

* **owed time** — from warmup on, outside the windows of faults that can
  block ordering and of rejuvenations that take the current leader (each
  extended by B), no two consecutive deliveries, nor an interval's edge
  and a delivery, lie more than B apart (``delivery-stall``);
* **a leader fault** — a quorum adopts a view above the fire-time view
  (``no-quorum-adoption``), then a delivery follows (``ordering-stalled``),
  within B per view change: one, plus one for each next leader in the
  rotation ``leaders[view % n]`` that is held down when its turn comes,
  counted only while the schedule holds down no more replicas than the
  fault model tolerates (``f + k``);
* **an overlay fault** under self-healing — a delivery within the
  overlay's detection bound + B (``reroute-stall``).

A judgement whose progress has not arrived by the end of the run, and
whose deadline falls past it, is skipped, not judged. Every judgement's
slack (deadline minus arrival) feeds ``margin_ms``, the smallest of them.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Liveness"]


class Liveness:
    name = "liveness"

    def __init__(self, bound_ms: float, quorum: int, tolerated: int,
                 leaders: Sequence[str]) -> None:
        self.bound_ms = bound_ms
        self.quorum = quorum
        self.tolerated = tolerated  # replicas the fault model lets be held down at once
        self.leaders = tuple(leaders)  # the rotation: view v is led by leaders[v % n]
        self.findings: List[Tuple[str, float, Dict[str, Any]]] = []  # (kind, at, details)
        self.quiet_checked_ms = 0.0
        self.view_faults_checked = 0
        self.recovery_latencies_ms: List[float] = []
        self.reroute_faults_checked = 0
        self.margin_ms: Optional[float] = None

    def _flag(self, kind: str, at: float, **details: Any) -> None:
        self.findings.append((kind, at, details))

    def _met(self, deadline: float, arrival: Optional[float]) -> Optional[bool]:
        """Whether progress arriving at ``arrival`` (None: not by the end)
        met ``deadline``; None when the run ends before either tells."""
        if arrival is None and deadline > self.end_ms:
            return None
        slack = deadline - (self.end_ms if arrival is None else arrival)
        self.margin_ms = slack if self.margin_ms is None else min(self.margin_ms, slack)
        return slack >= 0

    def _first_from(self, t: Optional[float]) -> Optional[float]:
        return None if t is None else next((d for d in self.times if d >= t), None)

    def judge(self, start_ms: float, end_ms: float,
              blocking: Sequence[Tuple[float, float, Sequence[str]]],
              rejuvenations: Sequence[Tuple[str, float, float]],
              adoptions: Sequence[Tuple[float, str, int]],
              leader_faults: Sequence[Tuple[float, str, int]],
              deliveries: Sequence[float], overlay_faults: Sequence[float] = (),
              detection_ms: float = 0.0) -> None:
        """Judge a run of ``[start_ms, end_ms]``: ``blocking`` holds the
        ``(start, end, targets)`` windows of faults that can block ordering,
        ``rejuvenations`` the ``(replica, start, end)`` windows, ``adoptions``
        the ``(time, replica, view)`` new-view events, ``leader_faults`` the
        ``(fire time, target, view)`` notes, ``deliveries`` when an update
        was delivered and ``overlay_faults`` when a self-healing overlay
        fault began."""
        bound, self.end_ms, self.adoptions = self.bound_ms, end_ms, adoptions
        self.times = sorted(deliveries)
        # held down: named by a blocking window, or rejuvenating
        self.held = [(s, e, tuple(targets)) for s, e, targets in blocking]
        self.held += [(s, e, (replica,)) for replica, s, e in rejuvenations]
        suppressed = sorted([(s, e + bound) for s, e, _ in blocking] + [
            (s, e + bound) for replica, s, e in rejuvenations if replica == self._leader_at(s)])
        cursor = start_ms
        for s, e in suppressed + [(end_ms, end_ms)]:
            if min(s, end_ms) > cursor:
                self._owed(cursor, min(s, end_ms))
            cursor = max(cursor, e)
        for fault in leader_faults:
            self._leader_fault(*fault)
        for at in overlay_faults:
            met = self._met(at + detection_ms + bound, self._first_from(at))
            self.reroute_faults_checked += met is not None
            if met is False:
                self._flag("reroute-stall", at, bound_ms=round(detection_ms + bound, 3),
                           fault_start_ms=round(at, 3))

    def _owed(self, start: float, end: float) -> None:
        """Progress is owed throughout ``[start, end]``."""
        self.quiet_checked_ms += end - start
        points = [start] + [t for t in self.times if start <= t <= end] + [end]
        for a, b in zip(points, points[1:]):
            if not self._met(a + self.bound_ms, b):
                gap = max(b - a for a, b in zip(points, points[1:]))
                self._flag("delivery-stall", a, gap_ms=round(gap, 3),
                           bound_ms=round(self.bound_ms, 3),
                           owed_start_ms=round(start, 3), owed_end_ms=round(end, 3))
                return

    def _leader_fault(self, at: float, target: str, view: int) -> None:
        bound, n, changes = self.bound_ms, len(self.leaders), 1
        owed_from, deadline = self._clock(at, 0.0), self._clock(at, bound)
        # the next leader in the rotation, held down when its view would
        # start, costs one more view change
        while changes < n and any(
                s <= deadline and owed_from < e
                and self.leaders[(view + changes) % n] in targets
                for s, e, targets in self.held):
            changes += 1
            deadline = self._clock(at, changes * bound)
        earliest: Dict[str, float] = {}
        for when, replica, adopted in self.adoptions:
            if adopted > view and at <= when < earliest.get(replica, float("inf")):
                earliest[replica] = when
        adopted_at = sorted(earliest.values())
        quorum_at = adopted_at[self.quorum - 1] if len(adopted_at) >= self.quorum else None
        arrival = self._first_from(quorum_at)
        if arrival is None and deadline > self.end_ms:
            return
        self.view_faults_checked += 1
        if not self._met(deadline, quorum_at):
            self._flag("no-quorum-adoption", at, baseline_view=view, quorum=self.quorum,
                       adopted=sum(when <= deadline for when in adopted_at),
                       bound_ms=round(deadline - at, 3), target=target)
            return
        self.recovery_latencies_ms.append(quorum_at - at)
        if not self._met(deadline, arrival):
            self._flag("ordering-stalled", at, bound_ms=round(deadline - at, 3),
                       quorum_adopted_at_ms=round(quorum_at, 3), target=target)

    def _clock(self, start: float, owed_ms: float) -> float:
        """When ``owed_ms`` of owed time has run from ``start``. Nothing is
        owed while the schedule holds down more replicas than the fault
        model tolerates: the clock pauses for every such stretch."""
        edges = sorted({start, *(t for s, e, _ in self.held for t in (s, e) if t > start)})
        for a, b in zip(edges, edges[1:]):
            if len({r for s, e, targets in self.held if s <= a < e
                    for r in targets}) <= self.tolerated:
                if a + owed_ms <= b:
                    return a + owed_ms
                owed_ms -= b - a
        return edges[-1] + owed_ms  # every window has ended

    def _leader_at(self, t: float) -> str:
        """Who leads at ``t``: the highest view a quorum has adopted by then."""
        highest: Dict[str, int] = {}
        for when, replica, view in self.adoptions:
            if when <= t:
                highest[replica] = max(view, highest.get(replica, 0))
        view = (sorted(highest.values(), reverse=True)[self.quorum - 1:] or [0])[0]
        return self.leaders[view % len(self.leaders)]
