"""Health-signal collection for the feedback recovery controller.

The :class:`SignalHub` is the controller's only window onto the system.
Each sense tick it produces one :class:`SignalBatch` from two sources:

* **the structured event log** (``repro.obs``), read *incrementally* —
  Prime ``Suspect`` votes (a vote against view ``v`` names
  ``leader_of_view(v)``), and self-healing overlay link trouble
  (down/degraded/partition events name sites; the hub maps sites to the
  replicas placed there);
* **direct state probes** — replicas observed down outside a
  rejuvenation window (missed-heartbeat analog), execution-sequence lag
  behind the fleet maximum, and the chaos invariant monitors' violation
  counts, which the metric registry reads off the monitors.

Everything read is a deterministic function of the simulation, so the
controller's input stream — and therefore every decision — replays
exactly at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from ..obs import (
    EV_OVERLAY_LINK_DEGRADED,
    EV_OVERLAY_LINK_DOWN,
    EV_OVERLAY_PARTITION,
    EV_SUSPECT,
    EventLog,
)
from .options import ControlOptions

__all__ = ["SignalBatch", "SignalHub"]

#: overlay event kinds that indicate trouble on a link/site
_OVERLAY_TROUBLE = frozenset({
    EV_OVERLAY_LINK_DOWN, EV_OVERLAY_LINK_DEGRADED, EV_OVERLAY_PARTITION,
})


@dataclass
class SignalBatch:
    """One sense interval's worth of evidence, keyed by replica name."""

    #: replica -> number of fresh Suspect votes naming it as the leader
    suspect_votes: Dict[str, int] = field(default_factory=dict)
    #: replicas observed down outside a rejuvenation window
    crashed: Tuple[str, ...] = ()
    #: replica -> execution-sequence lag behind the fleet maximum
    #: (only entries at or beyond ``ControlOptions.lag_threshold_seqs``)
    lagging: Dict[str, int] = field(default_factory=dict)
    #: replica -> fresh overlay trouble events touching its site
    overlay: Dict[str, int] = field(default_factory=dict)
    #: fresh chaos-monitor invariant violations (system-wide)
    violations: int = 0

    @property
    def quiet(self) -> bool:
        """True when the batch carries no evidence at all."""
        return not (self.suspect_votes or self.crashed or self.lagging
                    or self.overlay or self.violations)


class SignalHub:
    """Incremental reader turning raw observability into per-replica signals."""

    def __init__(
        self,
        log: EventLog,
        replicas: Sequence[Any],
        replica_sites: Dict[str, str],
        leader_of_view: Callable[[int], str],
        registry: Any = None,
    ) -> None:
        self.log = log
        self.replicas = list(replicas)
        self.replica_sites = dict(replica_sites)
        self.leader_of_view = leader_of_view
        self.registry = registry
        #: replicas placed at each overlay site (for link-event mapping)
        self._site_replicas: Dict[str, List[str]] = {}
        for name, site in self.replica_sites.items():
            self._site_replicas.setdefault(site, []).append(name)
        self._cursor = 0
        self._violations_seen = 0

    # ------------------------------------------------------------------
    def poll(self, recovering: Set[str]) -> SignalBatch:
        """Collect everything new since the previous poll.

        ``recovering`` names replicas currently inside a strategy-initiated
        rejuvenation window: their downtime is expected and must not feed
        back into suspicion (the controller would otherwise re-suspect
        every replica it heals).
        """
        batch = SignalBatch()
        self._drain_events(batch, recovering)
        self._probe_state(batch, recovering)
        self._probe_violations(batch)
        return batch

    # ------------------------------------------------------------------
    def _drain_events(self, batch: SignalBatch, recovering: Set[str]) -> None:
        # Incremental read: the event log only ever appends (clear() is
        # never called mid-run), so a plain index cursor sees each event
        # exactly once without copying the log.
        events = self.log._events
        for event in events[self._cursor:]:
            kind = event.kind
            if kind == EV_SUSPECT:
                view = event.details.get("view")
                if view is None:
                    continue
                target = self.leader_of_view(view)
                if target in recovering:
                    # votes provoked by our own rejuvenation of the
                    # leader — expected, not evidence of compromise
                    continue
                batch.suspect_votes[target] = (
                    batch.suspect_votes.get(target, 0) + 1
                )
            elif kind in _OVERLAY_TROUBLE:
                for name in self._overlay_targets(event.details):
                    batch.overlay[name] = batch.overlay.get(name, 0) + 1
        self._cursor = len(events)

    def _overlay_targets(self, details: Dict[str, Any]) -> List[str]:
        link = details.get("link")
        if not link:
            # partition event: site-less, system-wide — touches everyone
            return [r.name for r in self.replicas]
        targets: List[str] = []
        for site in str(link).split("<->"):
            targets.extend(self._site_replicas.get(site, ()))
        return targets

    def _probe_state(self, batch: SignalBatch, recovering: Set[str]) -> None:
        crashed: List[str] = []
        max_seq = 0
        for replica in self.replicas:
            max_seq = max(max_seq, getattr(replica, "last_executed_seq", 0))
        for replica in self.replicas:
            name = replica.name
            if name in recovering:
                continue  # expected downtime: the strategy put it there
            if not replica.is_up:
                crashed.append(name)
                continue
            lag = max_seq - getattr(replica, "last_executed_seq", 0)
            if lag >= ControlOptions.lag_threshold_seqs:
                batch.lagging[name] = lag
        batch.crashed = tuple(crashed)

    def _probe_violations(self, batch: SignalBatch) -> None:
        if self.registry is None:
            return
        total = 0
        for name in self.registry.names():
            if name.startswith("chaos.violations."):
                total += self.registry.get(name).value
        if total > self._violations_seen:
            batch.violations = total - self._violations_seen
            self._violations_seen = total
