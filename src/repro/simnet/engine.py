"""Deterministic discrete-event simulation engine.

The engine is the substitute for the paper's physical testbed: every
component of the reproduced system (Prime replicas, Spines daemons, RTUs,
HMIs, attackers) runs as callbacks scheduled on a single virtual clock.
Virtual time is measured in *milliseconds* (floats), which matches the
granularity the paper reports latencies in.

Determinism guarantees:

* Events are ordered by ``(time, priority, sequence)`` where ``sequence``
  is a monotonically increasing insertion counter, so simultaneous events
  fire in the order they were scheduled.
* All randomness flows through named, seeded streams obtained from
  :meth:`Simulator.rng`, so two runs with the same seed produce identical
  traces regardless of scheduling of unrelated components.

Hot-path design (see DESIGN.md §10): events are ``__slots__`` records
compared by one precomputed key tuple (the dataclass-generated
field-by-field comparison used to be the hottest call under profile);
periodic timers re-arm one event record instead of allocating a fresh
closure + heap entry per tick; and the queue compacts lazily-cancelled
entries once they exceed a fixed fraction of the heap. None of this is
observable: firing order, RNG stream consumption, and
``events_processed`` are bit-identical to the seed implementation
(enforced by ``tests/test_perf_determinism.py``).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Timer", "PeriodicTimer", "SimulationError"]

#: compact the heap when at least this many cancelled entries linger...
_COMPACT_MIN_CANCELLED = 512
#: ...and they exceed this fraction of the queue
_COMPACT_FRACTION = 0.25


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class _Event:
    """One queue entry.

    The heap itself holds ``(time, priority, seq, event)`` tuples, so
    heapq orders entries entirely in C — ``seq`` is unique, which means
    two entries always differ before the comparison could reach the
    event object, and the record needs no ordering methods of its own.

    ``in_heap`` tracks whether the record currently sits in the queue;
    it is what lets :class:`Timer.reschedule` and :class:`PeriodicTimer`
    safely *reuse* a fired record (mutating a record while it is inside
    the heap would corrupt the heap invariant, so reuse is only legal
    once the record has been popped or compacted out).
    """

    __slots__ = ("time", "priority", "seq", "action", "args", "cancelled", "in_heap")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[..., None],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.args = args
        self.cancelled = False
        self.in_heap = False


class Timer:
    """Handle to a scheduled event that can be cancelled, queried, or
    re-armed."""

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _Event, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def fire_at(self) -> float:
        """Virtual time (ms) at which the timer fires (or fired)."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the timer is pending and not cancelled.

        A timer whose event has already executed reports False even when
        the clock still equals its fire time, so ``active`` is consistent
        before and after the :meth:`Simulator.step` that fires it.
        """
        event = self._event
        return event.in_heap and not event.cancelled

    @property
    def remaining(self) -> float:
        """Milliseconds of virtual time until the timer fires; 0.0 once
        it has fired or been cancelled."""
        if not self.active:
            return 0.0
        return max(0.0, self._event.time - self._simulator.now)

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if event.in_heap:
                self._simulator._note_cancelled()

    def reschedule(self, delay: float) -> "Timer":
        """Re-arm the timer ``delay`` ms from now; returns ``self``.

        If the underlying event already fired (or was cancelled and
        drained), its record is reused in place — no new allocation. A
        still-pending event cannot be moved inside the heap, so it is
        left behind as a cancelled tombstone and the timer swaps to a
        fresh record.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        simulator = self._simulator
        event = self._event
        when = simulator.now + delay
        if event.in_heap:
            if not event.cancelled:
                event.cancelled = True
                simulator._note_cancelled()
            event = self._event = _Event(
                when, event.priority, next(simulator._seq), event.action, event.args
            )
        else:
            event.cancelled = False
            event.time = when
            event.seq = next(simulator._seq)
        simulator._push(event)
        return self


class PeriodicTimer:
    """Re-armable periodic timer returned by :meth:`Simulator.call_every`.

    One event record is reused across every tick: after the action runs,
    the (just-popped) record gets a new ``(time, priority, seq)`` key and
    goes straight back on the heap — no per-tick closure or event
    allocation, which matters because replica/hello/RTU timers dominate
    queue churn.

    :meth:`stop` ends the series. As in the seed engine, a stop does
    *not* retract the already-queued tick — that tick still executes (as a
    no-op) and counts toward ``events_processed``, keeping event budgets
    bit-identical with the pre-overhaul implementation.
    """

    __slots__ = (
        "_simulator", "_event", "_interval", "_jitter", "_rng",
        "_action", "_args", "_stopped",
    )

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        action: Callable[..., None],
        args: tuple,
        first_delay: Optional[float],
        jitter: float,
        rng: random.Random,
    ) -> None:
        self._simulator = simulator
        self._interval = interval
        self._jitter = jitter
        self._rng = rng
        self._action = action
        self._args = args
        self._stopped = False
        delay = first_delay if first_delay is not None else interval
        # parenthesization matches the seed engine's ``now + (delay + j)``
        # exactly — float addition is not associative, and a one-ULP shift
        # in a timer would change every fingerprint downstream
        when = simulator.now + (delay + (rng.random() * jitter))
        event = _Event(when, 0, next(simulator._seq), self._fire)
        self._event = event
        simulator._push(event)

    @property
    def active(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action(*self._args)
        if self._stopped:
            return
        simulator = self._simulator
        event = self._event
        # the record was just popped by step(); reuse it for the next tick
        # (same ``now + (interval + j)`` grouping as the seed engine)
        event.time = simulator.now + (
            self._interval + (self._rng.random() * self._jitter)
        )
        event.seq = next(simulator._seq)
        simulator._push(event)

    def stop(self) -> None:
        """Stop the series after the currently queued tick."""
        self._stopped = True


class Simulator:
    """Single-threaded event loop with a virtual millisecond clock.

    Parameters
    ----------
    seed:
        Master seed. Every named RNG stream derives from it, so the whole
        simulation is reproducible from this one integer.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now: float = 0.0
        # heap of (time, priority, seq, event) tuples — compared entirely
        # in C, and seq is unique so the event object is never reached
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._rngs: dict[str, random.Random] = {}
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named RNG stream, creating it deterministically.

        Streams are independent: drawing from one never perturbs another,
        which keeps e.g. link jitter reproducible when an attacker is
        added to the scenario.
        """
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self.seed}/{name}")
        return self._rngs[name]

    # ------------------------------------------------------------------
    # Queue internals
    # ------------------------------------------------------------------
    def _push(self, event: _Event) -> None:
        event.in_heap = True
        heapq.heappush(
            self._queue, (event.time, event.priority, event.seq, event)
        )

    def _note_cancelled(self) -> None:
        """Account an in-heap cancellation; compact when tombstones pile up."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap > len(self._queue) * _COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Keys are unique (the ``seq`` component), so re-heapifying the
        surviving records can never reorder them relative to a lazy
        drain — the heap pops in total ``key`` order either way.
        """
        survivors = []
        for entry in self._queue:
            event = entry[3]
            if event is not None and event.cancelled:
                event.in_heap = False
            else:
                survivors.append(entry)
        heapq.heapify(survivors)
        self._queue = survivors
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Timer:
        """Schedule ``action(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = _Event(self.now + delay, priority, next(self._seq), action, args)
        self._push(event)
        return Timer(event, self)

    def post(self, delay: float, action: Callable[..., None], *args: Any) -> None:
        """Schedule ``action(*args)`` with no :class:`Timer` handle.

        Fire-and-forget fast path for the network layer, which schedules
        one delivery per message and never cancels them. The queue entry
        is a bare ``(time, 0, seq, None, action, args)`` tuple — no
        :class:`_Event` record, no :class:`Timer` — because a handle-less
        event needs neither cancellation state nor a stable identity.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, 0, next(self._seq), None, action, args)
        )

    def schedule_at(
        self,
        when: float,
        action: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Timer:
        """Schedule ``action(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} (now={self.now})"
            )
        event = _Event(when, priority, next(self._seq), action, args)
        self._push(event)
        return Timer(event, self)

    def call_every(
        self,
        interval: float,
        action: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng_name: str = "periodic",
    ) -> PeriodicTimer:
        """Run ``action`` every ``interval`` ms until the returned
        :class:`PeriodicTimer` is stopped (calling it also stops it).

        ``jitter`` adds a uniform random offset in ``[0, jitter)`` to each
        firing, drawn from the named RNG stream; this is used to break the
        synchrony of replica timers the same way real deployments do. The
        draw happens every tick even at ``jitter=0`` so stream consumption
        stays identical whatever the jitter setting.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        return PeriodicTimer(
            self, interval, action, args, first_delay, jitter, self.rng(rng_name)
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until` call."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is None:
                if entry[0] < self.now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self.now = entry[0]
                entry[4](*entry[5])
            else:
                event.in_heap = False
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                if event.time < self.now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self.now = event.time
                event.action(*event.args)
            self._events_processed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` executed)."""
        self._stopped = False
        count = 0
        while not self._stopped and self.step():
            count += 1
            if max_events is not None and count >= max_events:
                return

    def run_until(self, when: float) -> None:
        """Run all events with time <= ``when``, then set clock to ``when``.

        This is the main loop of every deployment run, so the body of
        :meth:`step` is inlined here — one peek plus one pop per event
        instead of peek, call, and a second scan.
        """
        if when < self.now:
            raise SimulationError(f"cannot run backwards to {when} (now={self.now})")
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        while not self._stopped and queue:
            entry = queue[0]
            event = entry[3]
            if event is None:
                # handle-less post() entry: never cancelled, fire directly
                if entry[0] > when:
                    break
                heappop(queue)
                self.now = entry[0]
                entry[4](*entry[5])
            else:
                if event.cancelled:
                    heappop(queue)
                    event.in_heap = False
                    self._cancelled_in_heap -= 1
                    continue
                if event.time > when:
                    break
                heappop(queue)
                event.in_heap = False
                self.now = event.time
                event.action(*event.args)
            self._events_processed += 1
        if not self._stopped:
            self.now = when

    def run_for(self, duration: float) -> None:
        """Run the simulation for ``duration`` ms of virtual time."""
        self.run_until(self.now + duration)
