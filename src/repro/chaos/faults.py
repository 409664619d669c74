"""The fault table: every fault kind, declared once.

One row of :data:`FAULTS` per kind holds all that ``repro.chaos`` knows
about it: how many targets it takes, its params (name, unit, the one
default, the range the generator draws from), how the generator picks its
targets, and which :class:`~repro.simnet.FailureInjector` windows it opens.
``FAULT_KINDS`` and its subsets, the profile weights, ``generate_schedule``,
``FaultAction`` validation and the fault application of both chaos
harnesses are derived from the rows: adding or changing a kind touches one
row here and nothing else, and the rows are the taxonomy's documentation.

A fault reaches the system under chaos only through :class:`ChaosSystem`,
so one ``leader_kill`` / ``leader_partition`` row drives Prime inside a
Spire deployment and the flat PBFT baseline cluster alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..attacks.dos import LeaderChaser
from ..simnet import DosAttack, FailureInjector
from ..spines import SpinesDaemon

__all__ = [
    "FAULTS", "FAULT_KINDS", "OVERLAY_FAULT_KINDS", "LEADER_FAULT_KINDS",
    "DEFAULT_PROFILE_KINDS", "LEADER_PROFILE_KINDS", "FaultKind", "Param", "ChaosSystem",
    "inject",
]

Targets = Tuple[str, ...]


class Unit(NamedTuple):
    """What a param measures: how the generator rounds a drawn value, and
    which values a scenario file may carry."""

    digits: int
    allows: Callable[[float], bool]
    complaint: str


FRACTION = Unit(3, lambda value: 0.0 <= value <= 1.0, "must be within [0, 1]")
DELAY_MS = Unit(1, lambda value: value >= 0.0, "cannot be negative")
PERIOD_MS = Unit(1, lambda value: value > 0.0, "must be positive")


class Param(NamedTuple):
    """One tunable of a fault kind: an action that does not set it runs on
    ``default``; the generator draws ``uniform(low, high)``."""

    name: str
    unit: Unit
    default: float
    low: float
    high: float
    #: uniform draws discarded before / after this one. The generator this
    #: table replaced drew the drop, duplicate and corrupt probabilities
    #: together whichever of the three it was building, and schedules are
    #: pinned per seed, so the spare draws stay.
    pad: Tuple[int, int] = (0, 0)

    def draw(self, rng: random.Random) -> float:
        for _ in range(self.pad[0]):
            rng.random()
        value = round(rng.uniform(self.low, self.high), self.unit.digits)
        for _ in range(self.pad[1]):
            rng.random()
        return value


@dataclass(frozen=True)
class ChaosSystem:
    """The system under chaos: what a fault needs to know about it, and what
    the one runner (:func:`repro.chaos.engine.run_chaos`) starts and judges.
    The flat cluster leaves the endpoint, recovery and overlay fields empty."""

    simulator: Any
    network: Any
    obs: Any
    replicas: Sequence[Any]
    #: the ordering quorum a view must be adopted by
    quorum: int
    #: replicas the fault model lets be down or cut off at once (f + k)
    tolerated: int
    #: B of the liveness judge: progress owed from instant t is due by t + B
    liveness_bound_ms: float
    #: the event kind a replica logs when it adopts a view
    new_view_event: str
    #: start every component; the runner calls it once the faults are in
    start: Callable[[], None]
    #: what the system counts about itself, read after the run
    stats: Callable[[], Dict[str, Any]]
    current_leader: Callable[[], str]
    current_view: Callable[[], int]
    #: whose links to a process are its connectivity surface (its site daemon
    #: in an overlay deployment, every other replica on a flat cluster)
    access_peers: Callable[[str], Sequence[str]]
    #: records a leader fault's fire time, target and view for the liveness
    #: judge; plugged in by the runner
    note_leader_fault: Callable[[str, int], None] = lambda target, view: None
    #: gate-watched endpoints, and the provider their shares verify under
    endpoints: Sequence[Any] = ()
    crypto: Any = None
    #: when an endpoint verified a delivery; a system without endpoints
    #: has delivered an update once a first replica executes it
    delivery_times: Optional[Callable[[], Sequence[float]]] = None
    #: the proactive-recovery strategy and the self-healing control plane
    recovery: Optional[Any] = None
    overlay_control: Optional[Any] = None

    def strike_leader(self) -> str:
        """Resolve the leader *now* — at fire time — and have the hit judged."""
        target = self.current_leader()
        self.note_leader_fault(target, self.current_view())
        return target


# ----------------------------------------------------------------------
# Target pickers: (rng, ctx) -> targets, where ctx is the DrawContext of
# repro.chaos.generator. None means the topology has nothing to aim at
# and the action is skipped.
# ----------------------------------------------------------------------
def _no_target(rng, ctx) -> Targets:
    return ()


def _one_replica(rng, ctx) -> Targets:
    return (rng.choice(ctx.replicas),)


def _minority(rng, ctx) -> Targets:
    size = rng.randint(1, max(1, ctx.profile.max_partition_minority))
    return tuple(sorted(rng.sample(ctx.replicas, size)))


def _scope(limit: int) -> Callable[..., Targets]:
    def pick(rng, ctx) -> Targets:
        size = rng.randint(1, min(limit, len(ctx.scopes)))
        return tuple(sorted(rng.sample(ctx.scopes, size)))
    return pick


def _replica_pair(rng, ctx) -> Targets:
    return tuple(rng.sample(ctx.replicas, 2))


def _overlay_link(rng, ctx) -> Optional[Targets]:
    return tuple(rng.choice(ctx.overlay_links)) if ctx.overlay_links else None


def _overlay_site(rng, ctx) -> Optional[Targets]:
    return (rng.choice(ctx.overlay_sites),) if ctx.overlay_sites else None


# ----------------------------------------------------------------------
# Window openers: (injector, system, targets, (start_ms, duration_ms),
# param values, rng stream name) -> None
# ----------------------------------------------------------------------
def _per_node(method: Callable[..., None], process_of: Callable[[str], str] = str):
    def open_windows(inj, system, targets, when, values, stream) -> None:
        for target in targets:
            method(inj, process_of(target), *when, **values)
    return open_windows


def _partition(inj, system, targets, when, values, stream) -> None:
    # Site-access outage: each partitioned replica loses the link to its
    # overlay daemon (in an overlay deployment that *is* the partition
    # surface — replicas have no direct links).
    for target in targets:
        for peer in system.access_peers(target):
            inj.partition_window([target], [peer], *when)


def _dos(inj, system, targets, when, values, stream) -> None:
    for target in targets:
        inj.dos_node(DosAttack(target, *when, **values), peers=system.access_peers(target))


def _leader_dos(inj, system, targets, when, values, stream) -> None:
    chaser = LeaderChaser(
        inj.simulator, inj.network, leader_fn=system.current_leader,
        peers_fn=system.access_peers, **values,
    )

    def chase() -> Tuple[str, Callable[[], None]]:
        chaser.start()
        return f"retargeting every {chaser.retarget_interval_ms}ms", chaser.stop

    inj.window("LEADER-DOS", *when, chase)


def _message_fault(method: Callable[..., None]):
    def open_window(inj, system, targets, when, values, stream) -> None:
        method(inj, targets, *when, rng_name=stream, **values)
    return open_window


def _asym_link(inj, system, sources, when, values, stream) -> None:
    for source in sources:
        for peer in system.access_peers(source):
            inj.asym_link_window(source, peer, *when, **values)


def _overlay_link_fault(method: Callable[..., None]):
    def open_window(inj, system, sites, when, values, stream) -> None:
        method(inj, *map(SpinesDaemon.daemon_name, sites), *when, **values)
    return open_window


def _leader_kill(inj, system, targets, when, values, stream) -> None:
    inj.crash_resolved_window(system.strike_leader, *when, label="LEADER-KILL")


def _leader_partition(inj, system, targets, when, values, stream) -> None:
    def groups() -> Tuple[List[str], List[str]]:
        target = system.strike_leader()
        return [target], list(system.access_peers(target))

    inj.partition_resolved_window(groups, *when, label="LEADER-PARTITION")


@dataclass(frozen=True)
class FaultKind:
    """One row of the fault table."""

    name: str
    doc: str
    #: (fewest, most) targets an action may name; ``None`` is unbounded
    arity: Tuple[int, Optional[int]]
    pick: Callable[..., Optional[Targets]]
    open: Callable[..., None]
    params: Tuple[Param, ...] = ()
    #: how often the kind appears in a profile's default ``kinds``
    weight: int = 1
    #: how many of the named targets the fault acts on (``None``: all)
    targets_used: Optional[int] = None
    #: targets are overlay *site* names; under self-healing the liveness
    #: judge owes a delivery within the detection bound + B of its start
    overlay: bool = False
    #: hits whoever leads at fire time; the liveness judge owes a view
    #: change and a delivery, and the only kinds the PBFT harness runs
    leader: bool = False
    #: can block ordering: no progress is owed inside its window + B
    blocks: bool = True
    #: counts against ``profile.max_concurrent_crashes``
    crash_budget: bool = False
    #: when set, the duration is drawn from ``[stretch, max_fault_ms + stretch]``
    stretch_ms: float = 0.0

    def draw(self, rng: random.Random, ctx: Any) -> Optional[tuple]:
        """Draw ``(start_ms, duration_ms, targets, params)`` for one action,
        or None when the crash budget or the topology refuses it."""
        profile = ctx.profile
        start = round(rng.uniform(profile.window_start_ms, profile.window_end_ms), 3)
        duration = round(rng.uniform(profile.min_fault_ms, profile.max_fault_ms), 3)
        if self.stretch_ms:
            stretched = rng.uniform(self.stretch_ms, profile.max_fault_ms + self.stretch_ms)
            duration = round(stretched, 3)
        if self.crash_budget:
            overlapping = sum(
                1 for s, d in ctx.crash_windows if start < s + d and s < start + duration
            )
            if overlapping >= profile.max_concurrent_crashes:
                return None  # keep the crash budget; draw fewer actions instead
            ctx.crash_windows.append((start, duration))
        targets = self.pick(rng, ctx)
        if targets is None:
            return None
        return start, duration, targets, tuple((p.name, p.draw(rng)) for p in self.params)

    def apply(self, action: Any, system: ChaosSystem, injector: FailureInjector,
              stream: str) -> None:
        """Open the windows of ``action`` (a ``FaultAction`` of this kind) on
        ``injector``; its random decisions come from the stream ``stream``."""
        values = {p.name: action.param(p.name, p.default) for p in self.params}
        when = (action.start_ms, action.duration_ms)
        self.open(injector, system, action.targets[:self.targets_used], when, values, stream)

    def check(self, targets: Sequence[str], params: Iterable[Tuple[str, Any]]) -> None:
        """The ``FaultAction`` boundary: a scenario file naming an unknown
        param, the wrong number of targets or an out-of-range value fails
        here with a ``ValueError``, not inside a running simulation."""
        fewest, most = self.arity
        if len(targets) < fewest or (most is not None and len(targets) > most):
            raise ValueError(
                f"{self.name}: takes {fewest} to {most} targets, got {len(targets)}")
        known = {p.name: p for p in self.params}
        for name, value in params:
            if name not in known:
                raise ValueError(f"{self.name}: unknown param {name!r} (has {sorted(known)})")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{self.name}: {name} must be a number, got {value!r}")
            if not known[name].unit.allows(value):
                raise ValueError(
                    f"{self.name}: {name} {known[name].unit.complaint}, got {value!r}")


_ANY = (0, None)
_NONE = (0, 0)
_PAIR = (2, 2)

FAULTS: Dict[str, FaultKind] = {row.name: row for row in (
    FaultKind("crash", "crash a replica for a window, then recover it",
              _ANY, _one_replica, _per_node(FailureInjector.crash_window),
              weight=2, crash_budget=True),
    FaultKind("partition", "cut a minority group off from the rest",
              _ANY, _minority, _partition),
    FaultKind("dos", "degrade all access links of a fixed target",
              _ANY, _one_replica, _dos,
              (Param("extra_delay_ms", DELAY_MS, 300.0, 100.0, 400.0),
               Param("extra_loss", FRACTION, 0.2, 0.1, 0.4))),
    FaultKind("leader_dos", "adaptive DoS that chases the current Prime leader",
              _NONE, _no_target, _leader_dos,
              (Param("extra_delay_ms", DELAY_MS, 300.0, 150.0, 400.0),
               Param("extra_loss", FRACTION, 0.2, 0.1, 0.3),
               Param("retarget_interval_ms", PERIOD_MS, 1000.0, 500.0, 2000.0))),
    FaultKind("drop", "drop matching messages with a probability",
              _ANY, _scope(3), _message_fault(FailureInjector.drop_messages),
              (Param("probability", FRACTION, 0.3, 0.05, 0.4, pad=(0, 2)),), weight=2),
    FaultKind("duplicate", "deliver delayed second copies",
              _ANY, _scope(3), _message_fault(FailureInjector.duplicate_messages),
              (Param("probability", FRACTION, 0.3, 0.1, 0.5, pad=(1, 1)),), blocks=False),
    FaultKind("reorder", "buffer + shuffle matching messages per window",
              _ANY, _scope(3), _message_fault(FailureInjector.reorder_window),
              (Param("window_ms", PERIOD_MS, 20.0, 5.0, 40.0),
               Param("probability", FRACTION, 1.0, 0.3, 1.0)), blocks=False),
    FaultKind("delay_spike", "add a latency spike to matching messages",
              _ANY, _scope(3), _message_fault(FailureInjector.delay_spike),
              (Param("extra_ms", DELAY_MS, 100.0, 20.0, 200.0),
               Param("jitter_ms", DELAY_MS, 0.0, 0.0, 50.0),
               Param("probability", FRACTION, 1.0, 0.2, 1.0)), blocks=False),
    FaultKind("corrupt", "mangle matching payloads in flight",
              _ANY, _scope(3), _message_fault(FailureInjector.corrupt_payload),
              (Param("probability", FRACTION, 0.2, 0.05, 0.3, pad=(2, 0)),)),
    FaultKind("slow_node", "asymmetric slowdown of one node's outbound links",
              _ANY, _one_replica, _per_node(FailureInjector.slow_node),
              (Param("extra_delay_ms", DELAY_MS, 50.0, 20.0, 120.0),), blocks=False),
    # The generator names two replicas but only the first one's outbound
    # access link is degraded (a replica has no direct link to the second);
    # the spare target stays because schedules are pinned per seed.
    FaultKind("asym_link", "one-directional degradation of the first target's access link",
              (1, 2), _replica_pair, _asym_link,
              (Param("extra_delay_ms", DELAY_MS, 100.0, 50.0, 250.0),
               Param("extra_loss", FRACTION, 0.0, 0.0, 0.2)), targets_used=1),
    FaultKind("jitter_storm", "random per-message extra delay (timer desync)",
              _ANY, _scope(4), _message_fault(FailureInjector.jitter_storm),
              (Param("max_extra_ms", DELAY_MS, 30.0, 10.0, 60.0),
               Param("probability", FRACTION, 0.5, 0.2, 0.8)), blocks=False),
    FaultKind("link_kill", "sever one overlay link for a window",
              _PAIR, _overlay_link, _overlay_link_fault(FailureInjector.block_link_window),
              overlay=True),
    FaultKind("link_degrade", "add delay/loss to one overlay link for a window",
              _PAIR, _overlay_link, _overlay_link_fault(FailureInjector.dos_link_window),
              (Param("extra_delay_ms", DELAY_MS, 200.0, 50.0, 300.0),
               Param("extra_loss", FRACTION, 0.1, 0.0, 0.3)), overlay=True),
    FaultKind("daemon_kill", "crash one interior spines daemon for a window",
              _ANY, _overlay_site,
              _per_node(FailureInjector.crash_window, SpinesDaemon.daemon_name), overlay=True),
    # Leader faults name no target: whoever leads when the fault fires is
    # hit, so a schedule replayed against another protocol or seed still
    # lands on the leader. Windows are stretched past the suspicion +
    # view-change horizon so every draw forces a view change rather than a
    # blip the old leader survives. A kill is a crash, whoever it lands on.
    FaultKind("leader_kill", "crash the current leader for a window",
              _NONE, _no_target, _leader_kill,
              weight=2, leader=True, crash_budget=True, stretch_ms=1200.0),
    FaultKind("leader_partition", "isolate the current leader from all peers",
              _NONE, _no_target, _leader_partition, leader=True, stretch_ms=1200.0),
)}


def inject(schedule: Iterable[Any], system: ChaosSystem, injector: FailureInjector) -> None:
    """Apply a whole schedule. Each action draws from its own RNG stream, so
    removing one during shrinking never perturbs the randomness of the rest."""
    for index, action in enumerate(schedule):
        FAULTS[action.kind].apply(action, system, injector, f"chaos/{action.kind}/{index}")


FAULT_KINDS: Tuple[str, ...] = tuple(FAULTS)
OVERLAY_FAULT_KINDS = frozenset(name for name, row in FAULTS.items() if row.overlay)
LEADER_FAULT_KINDS = frozenset(name for name, row in FAULTS.items() if row.leader)


def _weighted(rows: Iterable[FaultKind]) -> Tuple[str, ...]:
    return tuple(row.name for row in rows for _ in range(row.weight))


#: ``ChaosProfile.kinds`` by default: weights skew toward the message-level
#: faults that exercise the widest protocol surface
DEFAULT_PROFILE_KINDS = _weighted(
    row for row in FAULTS.values() if not (row.overlay or row.leader))
#: what ``leader_faults=True`` adds, and all that the PBFT harness draws
LEADER_PROFILE_KINDS = _weighted(row for row in FAULTS.values() if row.leader)
