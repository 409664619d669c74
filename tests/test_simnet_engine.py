"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet import SimulationError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(3.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [3.5]
    assert sim.now == 3.5


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "late", priority=1)
    sim.schedule(1.0, fired.append, "early", priority=0)
    sim.run()
    assert fired == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, "x")
    timer.cancel()
    sim.run()
    assert fired == []


def test_timer_active_and_fire_at():
    sim = Simulator()
    timer = sim.schedule(4.0, lambda: None)
    assert timer.active
    assert timer.fire_at == 4.0
    timer.cancel()
    assert not timer.active


def test_run_until_stops_at_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run_until(5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.run_until(5.0)


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run_for(3.0)
    sim.run_for(4.0)
    assert sim.now == 7.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_call_every_repeats_until_stopped():
    sim = Simulator()
    fired = []
    stop = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(45.0)
    stop.stop()
    sim.run_until(100.0)
    assert fired == [10.0, 20.0, 30.0, 40.0]


def test_call_every_first_delay():
    sim = Simulator()
    fired = []
    sim.call_every(10.0, lambda: fired.append(sim.now), first_delay=1.0)
    sim.run_until(25.0)
    assert fired == [1.0, 11.0, 21.0]


def test_call_every_invalid_interval():
    with pytest.raises(SimulationError):
        Simulator().call_every(0.0, lambda: None)


def test_call_every_jitter_bounded():
    sim = Simulator(seed=5)
    fired = []
    sim.call_every(10.0, lambda: fired.append(sim.now), jitter=2.0)
    sim.run_until(200.0)
    gaps = [b - a for a, b in zip(fired, fired[1:])]
    assert all(10.0 <= gap < 12.0 for gap in gaps)


def test_rng_streams_are_deterministic():
    a = Simulator(seed=1).rng("x").random()
    b = Simulator(seed=1).rng("x").random()
    assert a == b


def test_rng_streams_are_independent():
    sim = Simulator(seed=1)
    first = sim.rng("a").random()
    sim2 = Simulator(seed=1)
    sim2.rng("b").random()  # draw from an unrelated stream first
    second = sim2.rng("a").random()
    assert first == second


def test_rng_different_seeds_differ():
    assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
