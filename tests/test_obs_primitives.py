"""Unit tests for the ``repro.obs`` primitives.

Covers the instrumentation API: typed instruments and the registry, the
structured event log, the no-op recorder, and snapshot determinism across
runs of the same seed.
"""

import weakref

import pytest

from repro.obs import (
    NULL_OBS,
    EventLog,
    MetricRegistry,
    NullObservability,
    Observability,
    merge_metric_snapshots,
)
from repro.simnet import LinkSpec, Network, Simulator
from repro.spines import SpinesOverlay, lan_topology


# ----------------------------------------------------------------------
# Instruments + registry
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    registry = MetricRegistry()
    counts = {"c": 1}
    reading = registry.read("c", lambda: counts["c"])
    counts["c"] += 4
    assert reading.value == 5

    histogram = registry.histogram("h")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    stats = histogram.stats()
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.maximum == 4.0


def test_registry_get_or_create_and_family_mismatch():
    registry = MetricRegistry()
    assert registry.histogram("x") is registry.histogram("x")
    with pytest.raises(TypeError):
        registry.latency("x")
    assert registry.names() == ["x"]


class _Component:
    """Keeps its own count and lets obs read it, as components do."""

    def __init__(self, obs, count=0):
        self.count = count
        obs.read("component.count", lambda: self.count)


def test_readings_under_one_name_sum():
    registry = MetricRegistry()
    first, second = _Component(registry, 2), _Component(registry, 5)
    assert registry.get("component.count").value == 7
    assert registry.snapshot() == {"component.count": 7}
    assert first.count + second.count == 7


def test_reading_is_evaluated_at_snapshot_time():
    registry = MetricRegistry()
    component = _Component(registry)
    reading = registry.get("component.count")
    assert registry.snapshot()["component.count"] == 0
    component.count += 3
    assert reading.value == 3
    assert registry.snapshot()["component.count"] == 3


def test_reading_and_counter_under_one_name_raise():
    registry = MetricRegistry()
    registry.histogram("x")
    with pytest.raises(TypeError):
        registry.read("x", lambda: 0)
    registry.read("y", lambda: 0)
    with pytest.raises(TypeError):
        registry.histogram("y")


def test_null_obs_read_keeps_no_reference():
    # a real recorder holds the component alive through its reading ...
    obs = Observability()
    component = _Component(obs)
    kept = weakref.ref(component)
    del component
    assert kept() is not None
    # ... the null recorder stores nothing
    component = _Component(NULL_OBS)
    ref = weakref.ref(component)
    del component
    assert ref() is None
    assert NULL_OBS.snapshot()["metrics"] == {}


def test_merge_adds_two_readings():
    first, second = MetricRegistry(), MetricRegistry()
    _Component(first, 4)
    _Component(second, 6)
    merged = merge_metric_snapshots([first.snapshot(), second.snapshot()])
    assert merged == {"component.count": 10}


def test_histogram_overflow_is_flagged_not_silent():
    registry = MetricRegistry()
    histogram = registry.histogram("h", max_samples=3)
    for value in range(10):
        histogram.observe(float(value))
    assert histogram.count == 10
    assert histogram.overflowed == 7
    assert "overflowed" in histogram.snapshot()


def test_latency_tracker_cdf_at_marks_matches_fig3_formula():
    registry = MetricRegistry()
    tracker = registry.latency("lat")
    for index in range(10):
        tracker.submitted(("k", index), at=0.0)
        tracker.acknowledged(("k", index), at=float(index + 1))
    values = sorted(tracker.latencies())
    marks = (0.10, 0.50, 1.0)
    expected = [
        values[min(len(values) - 1, max(0, int(mark * len(values)) - 1))]
        for mark in marks
    ]
    assert tracker.cdf_at_marks(marks) == expected


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
def test_event_log_records_and_counts_kinds():
    clock = {"t": 0.0}
    log = EventLog(now_fn=lambda: clock["t"])
    log.event("comp", "started", index=1)
    clock["t"] = 5.0
    log.event("comp", "stopped")
    assert len(log) == 2
    assert [e.time for e in log] == [0.0, 5.0]
    assert log.kind_counts() == {"started": 1, "stopped": 1}
    assert log.events("comp", "started")[0].details["index"] == 1


def test_event_log_bounded_with_dropped_counter():
    log = EventLog(now_fn=lambda: 0.0, max_events=2)
    for index in range(5):
        log.event("c", "k", i=index)
    assert len(log) == 2
    assert log.dropped == 3


# ----------------------------------------------------------------------
# Disabled recorder: everything is a no-op
# ----------------------------------------------------------------------
def test_null_obs_swallows_everything():
    obs = NULL_OBS
    assert obs.enabled is False
    obs.read("r", lambda: 1)
    obs.histogram("h").observe(1.0)
    obs.event("comp", "kind", a=1)
    assert obs.histogram("h").count == 0
    assert obs.registry.snapshot() == {}
    assert len(obs.log) == 0
    assert obs.snapshot()["metrics"] == {}


def test_null_obs_is_the_shared_default_of_components():
    assert isinstance(NULL_OBS, NullObservability)

    def overlay(**kwargs):
        simulator = Simulator(seed=1)
        network = Network(simulator, LinkSpec(latency_ms=1.0))
        return SpinesOverlay(simulator, network, lan_topology(1), **kwargs)

    assert overlay().obs is NULL_OBS
    # explicit obs always wins, and reaches the daemons
    obs = Observability()
    observed = overlay(obs=obs)
    assert observed.obs is obs
    assert all(daemon.obs is obs for daemon in observed.daemons.values())


def test_obs_adopts_an_existing_event_log():
    simulator = Simulator(seed=1)
    log = EventLog(now_fn=lambda: simulator.now)
    obs = Observability(log=log)
    assert obs.enabled and obs.log is log
    obs.read("shared", lambda: 1)
    assert obs.registry.get("shared").value == 1
    # events through obs land in the adopted log
    obs.event("comp", "kind")
    assert log.count() == 1


# ----------------------------------------------------------------------
# Snapshot determinism across identical seeds
# ----------------------------------------------------------------------
def _small_run(seed):
    from repro.core import SpireDeployment, SpireOptions

    deployment = SpireDeployment(SpireOptions(
        num_substations=2, poll_interval_ms=250.0, seed=seed,
    ))
    deployment.start()
    deployment.run_for(1500.0)
    return deployment.obs.snapshot()


def test_deterministic_snapshot_identical_across_same_seed_runs():
    # every instrument holds simulated time or a count, so the whole,
    # unfiltered snapshot of one seed repeats exactly, transport and
    # dispatch counts included
    first = _small_run(seed=11)
    second = _small_run(seed=11)
    assert first == second
    assert first["metrics"]["prime.transport.overlay.sent"] > 0
    assert any(".msgs." in name for name in first["metrics"])


def test_deterministic_snapshot_excludes_wall_clock_instruments():
    # no instrument records host time any more: the plain snapshot has no
    # wall-clock profile, while the deterministic dispatch and transport
    # counts are still in it
    snapshot = _small_run(seed=11)
    assert not any(name.endswith(".wall_ms") for name in snapshot["metrics"])
    assert snapshot["metrics"]["prime.transport.overlay.sent"] > 0
    assert any(".msgs." in name for name in snapshot["metrics"])
