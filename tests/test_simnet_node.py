"""Unit tests for the process abstraction (timers, crash/recover)."""

from repro.simnet import LinkSpec, Network, Process, Simulator


class Worker(Process):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.fired = []
        self.crashes = 0
        self.recoveries = 0

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def build():
    sim = Simulator(seed=2)
    net = Network(sim, LinkSpec(latency_ms=1.0))
    return sim, net, Worker("w", sim, net)


def test_set_timer_fires():
    sim, net, w = build()
    w.set_timer(5.0, w.fired.append, "x")
    sim.run()
    assert w.fired == ["x"]


def test_timer_does_not_fire_after_crash():
    sim, net, w = build()
    w.set_timer(5.0, w.fired.append, "x")
    w.crash()
    sim.run()
    assert w.fired == []


def test_timer_from_before_crash_dead_after_recovery():
    sim, net, w = build()
    w.set_timer(5.0, w.fired.append, "pre-crash")
    w.crash()
    w.recover()
    sim.run()
    assert w.fired == []  # incarnation changed; stale timer must not fire


def test_timer_set_after_recovery_fires():
    sim, net, w = build()
    w.crash()
    w.recover()
    w.set_timer(1.0, w.fired.append, "post")
    sim.run()
    assert w.fired == ["post"]


def queued(sim, timer):
    """Live (not cancelled) queue entries of ``timer``."""
    return [entry for entry in sim._queue
            if entry[3] is timer._event and not entry[3].cancelled]


def test_every_loop_stops_on_crash():
    sim, net, w = build()
    timer = w.every(10.0, lambda: w.fired.append(sim.now))
    sim.run_until(35.0)
    assert timer.active and queued(sim, timer)
    w.crash()
    assert not timer.active
    assert queued(sim, timer) == []  # the queued tick is retracted
    late = w.every(10.0, lambda: w.fired.append("late"))  # armed while down
    assert not late.active and queued(sim, late) == []
    processed = sim.events_processed
    sim.run_until(100.0)
    assert len(w.fired) == 3
    assert sim.events_processed == processed


def test_a_timer_of_the_last_incarnation_never_runs_beside_the_new_ones():
    sim, net, w = build()
    w.set_timer(5.0, w.fired.append, "old")
    w.crash()
    w.recover()
    w.set_timer(5.0, w.fired.append, "new")
    sim.run()
    assert w.fired == ["new"]


def test_every_returns_stop_function():
    sim, net, w = build()
    stop = w.every(10.0, lambda: w.fired.append(sim.now))
    sim.run_until(25.0)
    stop.stop()
    sim.run_until(100.0)
    assert len(w.fired) == 2


def test_crash_recover_hooks_called_once():
    sim, net, w = build()
    w.crash()
    w.crash()  # idempotent
    assert w.crashes == 1
    w.recover()
    w.recover()
    assert w.recoveries == 1


def test_crashed_process_receives_nothing():
    sim, net, w = build()
    other = Worker("o", sim, net)
    received = []
    w.on_message = lambda src, p: received.append(p)
    w.crash()
    other.send("w", "x")
    sim.run()
    assert received == []


def test_is_up_flag():
    sim, net, w = build()
    assert w.is_up
    w.crash()
    assert not w.is_up
    w.recover()
    assert w.is_up


def test_send_returns_true_when_on_wire():
    sim, net, w = build()
    Worker("o", sim, net)
    assert w.send("o", "x") is True
