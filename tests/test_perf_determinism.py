"""Determinism proofs for the hot-path overhaul (DESIGN.md §10).

The live engine replaced dataclass-ordered events with slotted records in
a tuple-keyed heap, added lazy tombstone compaction, re-armable periodic
timers, and a handle-less ``post()`` fast path. None of that may change
*what* a simulation does. These tests replay identical workloads through
the live engine and the frozen seed implementation
(``benchmarks/perf/seed_impl.py``) and require event-for-event identical
behaviour — including same-``(time, priority)`` ties, which only the
insertion sequence number may break.
"""

import os
import sys
from hashlib import sha256
from typing import Tuple

import pytest

from repro.crypto import encoding
from repro.crypto.provider import FastCrypto
from repro.simnet.engine import Simulator

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "benchmarks", "perf")
)
from seed_impl import (  # noqa: E402
    SeedFastCrypto,
    SeedSimulator,
    seed_digest,
    seed_encode,
)


def _tie_heavy_workload(sim, log):
    """Schedule a workload dense in same-(time, priority) ties.

    Returns the cancel handles so callers can exercise cancellation.
    """
    timers = []
    for wave in range(5):
        when = 10.0 * (wave + 1)
        for i in range(40):
            # same fire time, same priority — only insertion order ties
            timers.append(
                sim.schedule(when, log.append, (wave, i))
            )
        for i in range(10):
            # explicit priorities interleaved with the default ones
            timers.append(
                sim.schedule(when, log.append, (wave, "prio", i), priority=-1)
            )
    return timers


class TestFiringOrderParity:
    def test_tied_events_fire_in_seed_order(self):
        live_log, seed_log = [], []
        live, seed = Simulator(seed=5), SeedSimulator(seed=5)
        _tie_heavy_workload(live, live_log)
        _tie_heavy_workload(seed, seed_log)
        live.run_until(100.0)
        seed.run_until(100.0)
        assert live_log == seed_log
        assert live.events_processed == seed.events_processed
        assert live.now == seed.now

    def test_cancellation_and_compaction_preserve_order(self):
        """Cancel enough timers to force the live engine's heap compaction
        (>512 tombstones and >25% of the queue); the surviving events must
        still fire exactly as in the seed engine, which never compacts."""
        live_log, seed_log = [], []
        live, seed = Simulator(seed=9), SeedSimulator(seed=9)
        for sim, log in ((live, live_log), (seed, seed_log)):
            keep = []
            cancel = []
            for i in range(2000):
                timer = sim.schedule(
                    1.0 + (i % 17) * 0.5, log.append, i, priority=i % 3 - 1
                )
                (cancel if i % 4 else keep).append(timer)
            for timer in cancel:
                timer.cancel()
        assert live._cancelled_in_heap < 1500  # compaction actually ran
        live.run_until(50.0)
        seed.run_until(50.0)
        assert live_log == seed_log
        assert live.events_processed == seed.events_processed

    def test_periodic_timers_consume_identical_rng(self):
        """Re-arming one event record must draw jitter exactly like the
        seed's fresh-closure-per-tick implementation."""
        live_log, seed_log = [], []
        live, seed = Simulator(seed=3), SeedSimulator(seed=3)
        for sim, log in ((live, live_log), (seed, seed_log)):
            stops = []
            stops.append(sim.call_every(
                7.0, lambda log=log, sim=sim: log.append(("a", sim.now)),
                jitter=2.0, rng_name="p/a",
            ))
            stops.append(sim.call_every(
                5.0, lambda log=log, sim=sim: log.append(("b", sim.now)),
                jitter=0.0, rng_name="p/b",
            ))
            # stop mid-run, tick already queued (the seed engine hands back
            # a bare stop function, the live one a PeriodicTimer)
            sim.schedule(40.0, getattr(stops[0], "stop", stops[0]))
            sim.run_until(120.0)
        assert live_log == seed_log
        # the live stop retracts the queued tick the seed ran as a no-op
        assert live.events_processed == seed.events_processed - 1

    def test_post_orders_like_schedule(self):
        """post() entries share the (time, priority, seq) ordering domain
        with full events, so interleaved post/schedule at one instant fire
        in submission order."""
        sim = Simulator()
        log = []
        sim.post(5.0, log.append, "p1")
        sim.schedule(5.0, log.append, "s1")
        sim.post(5.0, log.append, "p2")
        sim.schedule(5.0, log.append, "s2", priority=-1)
        sim.run_until(10.0)
        assert log == ["s2", "p1", "s1", "p2"]
        assert sim.events_processed == 4

    def test_step_executes_post_entries(self):
        sim = Simulator()
        log = []
        sim.post(1.0, log.append, "x")
        sim.schedule(2.0, log.append, "y")
        assert sim.step() and sim.step()
        assert log == ["x", "y"]
        assert not sim.step()


class TestTimerSemantics:
    def test_remaining_counts_down_and_zeroes(self):
        sim = Simulator()
        timer = sim.schedule(10.0, lambda: None)
        assert timer.remaining == 10.0
        sim.run_until(4.0)
        assert timer.remaining == pytest.approx(6.0)
        sim.run_until(10.0)
        assert timer.remaining == 0.0

    def test_active_false_immediately_after_firing(self):
        """At the very instant a timer fires, active flips to False —
        the seed implementation reported True until the clock moved on."""
        sim = Simulator()
        fired_state = []
        timer = sim.schedule(5.0, lambda: fired_state.append(timer.active))
        assert timer.active
        sim.run_until(5.0)
        assert fired_state == [False]
        assert not timer.active
        assert timer.remaining == 0.0

    def test_cancel_deactivates(self):
        sim = Simulator()
        log = []
        timer = sim.schedule(5.0, log.append, "x")
        timer.cancel()
        assert not timer.active and timer.remaining == 0.0
        sim.run_until(10.0)
        assert log == []

    def test_reschedule_after_firing_reuses_record(self):
        sim = Simulator()
        log = []
        timer = sim.schedule(3.0, lambda: log.append(sim.now))
        sim.run_until(5.0)
        event_before = timer._event
        timer.reschedule(4.0)
        assert timer._event is event_before  # reused, not reallocated
        assert timer.active and timer.fire_at == 9.0
        sim.run_until(20.0)
        assert log == [3.0, 9.0]

    def test_reschedule_while_pending_moves_the_firing(self):
        sim = Simulator()
        log = []
        timer = sim.schedule(10.0, lambda: log.append(sim.now))
        sim.run_until(2.0)
        timer.reschedule(1.0)
        assert timer.fire_at == 3.0
        sim.run_until(20.0)
        assert log == [3.0]  # fired once, at the rescheduled time only
        assert sim.events_processed == 1  # tombstone pop is not an event

    def test_reschedule_negative_delay_rejected(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(Exception):
            timer.reschedule(-0.5)


class TestEncodingAndCryptoParity:
    SAMPLES = None

    @classmethod
    def _samples(cls):
        if cls.SAMPLES is None:
            from dataclasses import dataclass as dc

            @dc(frozen=True)
            class Inner:
                x: int
                y: Tuple = ()

            @dc(frozen=True)
            class Outer:
                name: str
                inner: "Inner"
                blob: bytes

            from enum import IntEnum

            class Kind(IntEnum):
                A = 1
                B = 2

            cls.SAMPLES = [
                None, True, False, 0, -17, 3.5, float("inf"), "", "hé",
                b"\x00\xff", (), (1, ("two", 3.0)), [1, [2, [3]]],
                frozenset({1, 2, 3}), {"b": 1, "a": (2,)},
                Kind.B, Inner(4, (5, 6)),
                Outer("o", Inner(1, ()), b"raw"),
            ]
        return cls.SAMPLES

    def test_encode_matches_seed_bytes(self):
        for value in self._samples():
            assert encoding.encode(value) == seed_encode(value), value

    def test_digest_matches_seed(self):
        for value in self._samples():
            assert encoding.digest(value) == seed_digest(value), value

    def test_fastcrypto_tags_match_seed(self):
        live, seed = FastCrypto(seed="par"), SeedFastCrypto(seed="par")
        link_key = sha256(b"par/mac/a/b").digest()
        for message in self._samples():
            assert (
                live.sign("r1", message).value
                == seed.sign("r1", message).value
            )
            # a link MAC covers the message's 32-byte digest, not its
            # encoding (re-pinned once, on purpose: DESIGN.md §1.3)
            assert live.mac("a", "b", message) == sha256(
                link_key + sha256(encoding.encode(message)).digest()
            ).digest()
            assert live.mac("b", "a", message) == live.mac("a", "b", message)
