"""Tests for proactive recovery scheduling and the diversity model."""

import pytest

from repro.core import DiversityManager, Exploit, PeriodicStrategy
from repro.simnet import LinkSpec, Network, Process, Simulator


class Dummy(Process):
    pass


def build(n=6):
    sim = Simulator(seed=3)
    net = Network(sim, LinkSpec())
    replicas = [Dummy(f"r{i}", sim, net) for i in range(n)]
    return sim, net, replicas


def test_round_robin_rotation():
    sim, net, replicas = build()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0
    )
    scheduler.start()
    sim.run_for(650)
    assert scheduler.recoveries_started == 6
    assert scheduler.recoveries_completed == 6
    assert all(r.is_up for r in replicas)


def test_at_most_k_concurrent():
    sim, net, replicas = build()
    # duration longer than the period: without the cap two would overlap
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=50.0, recovery_duration_ms=120.0,
        max_concurrent=1,
    )
    scheduler.start()
    down_counts = []
    sim.call_every(10.0, lambda: down_counts.append(
        sum(1 for r in replicas if not r.is_up)))
    sim.run_for(1000)
    assert max(down_counts) <= 1
    assert scheduler.skipped > 0


def test_max_concurrent_two():
    sim, net, replicas = build()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=50.0, recovery_duration_ms=120.0,
        max_concurrent=2,
    )
    scheduler.start()
    down_counts = []
    sim.call_every(10.0, lambda: down_counts.append(
        sum(1 for r in replicas if not r.is_up)))
    sim.run_for(1000)
    assert max(down_counts) == 2


def test_skips_already_down_replicas():
    sim, net, replicas = build()
    replicas[0].crash()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0
    )
    scheduler.start()
    sim.run_for(120)
    # first tick skipped r0 (already down) and rejuvenated r1 instead
    assert scheduler.recoveries_started == 1
    assert not replicas[0].is_up


def test_on_rejuvenate_hook_called():
    sim, net, replicas = build()
    rejuvenated = []
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
        on_rejuvenate=lambda replica: rejuvenated.append(replica.name),
    )
    scheduler.start()
    sim.run_for(250)
    assert rejuvenated == ["r0", "r1"]


def test_stop_halts_rotation():
    sim, net, replicas = build()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0
    )
    scheduler.start()
    sim.run_for(150)
    scheduler.stop()
    sim.run_for(1000)
    assert scheduler.recoveries_started == 1


def test_start_twice_does_not_leak_previous_timer():
    sim, net, replicas = build()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0
    )
    scheduler.start()
    scheduler.start()  # must replace the first timer, not add a second
    sim.run_for(650)
    # with the leaked timer two rotations would run interleaved,
    # doubling the count (12) within the same window
    assert scheduler.recoveries_started == 6
    scheduler.stop()
    sim.run_for(1000)
    assert scheduler.recoveries_started == 6


def test_invalid_max_concurrent():
    sim, net, replicas = build()
    with pytest.raises(ValueError):
        PeriodicStrategy(sim, replicas, 100.0, 10.0, max_concurrent=0)


# ----------------------------------------------------------------------
# Diversity
# ----------------------------------------------------------------------


def test_variant_assignment_stable():
    manager = DiversityManager(seed=1)
    assert manager.assign("r0") == manager.assign("r0")


def test_rejuvenation_changes_variant_with_high_probability():
    manager = DiversityManager(variant_space=2 ** 20, seed=1)
    before = manager.assign("r0")
    after = manager.rejuvenate("r0")
    assert manager.variant_of("r0") == after
    assert before != after  # overwhelmingly likely in a 2^20 space


def test_exploit_targets_current_variant():
    manager = DiversityManager(seed=2)
    exploit = manager.exploit_for("r0")
    assert manager.is_vulnerable("r0", exploit)
    manager.rejuvenate("r0")
    assert not manager.is_vulnerable("r0", exploit)


def test_exploit_rarely_transfers_between_replicas():
    manager = DiversityManager(variant_space=2 ** 20, seed=3)
    exploit = manager.exploit_for("r0")
    for index in range(1, 10):
        manager.assign(f"r{index}")
    assert manager.vulnerable_replicas(exploit) == ["r0"]


def test_monoculture_exposure():
    manager = DiversityManager(variant_space=2 ** 20, seed=4)
    replicas = [f"r{i}" for i in range(10)]
    diversified = manager.monoculture_exposure(replicas)
    assert diversified == pytest.approx(0.1)
    # an undiversified fleet: force every replica onto one variant
    for replica in replicas:
        manager._variants[replica] = 7
    assert manager.monoculture_exposure(replicas) == 1.0


def test_variant_space_validation():
    with pytest.raises(ValueError):
        DiversityManager(variant_space=1)
