"""Tests for fleet-scale scenarios (repro.fleet + repro.scada.region).

Covers: spec validation (inconsistent fleet knobs fail with actionable
errors), generator determinism (same seed ⇒ byte-identical topology and
traffic, different seeds differ), the sharded poll driver's equivalence
with the per-device timers it replaces, lazy materialization, and a
small fleet deployment end to end (readings ordered and verified,
operator commands routed through the region resolver and executed).
"""

import pytest

from repro.core import BatchingOptions, SpireDeployment, SpireOptions
from repro.crypto.encoding import digest
from repro.fleet import (
    FleetSpec,
    FleetTrafficDriver,
    OperatorTrafficModel,
    RegionSpec,
    TrafficSpec,
    generate_fleet,
)
from repro.scada import RegionShard, ShardedPollDriver
from repro.simnet import LinkSpec, Network, Process, Simulator


# ----------------------------------------------------------------------
# FleetSpec validation
# ----------------------------------------------------------------------

def test_sized_splits_evenly_and_validates():
    spec = FleetSpec.sized(1000, num_regions=4)
    assert [r.device_count for r in spec.regions] == [250, 250, 250, 250]
    spec.validate()
    uneven = FleetSpec.sized(10, num_regions=3)
    assert [r.device_count for r in uneven.regions] == [4, 3, 3]


def test_sized_auto_region_count_respects_unit_id_budget():
    spec = FleetSpec.sized(10_000)
    assert all(r.device_count <= 255 for r in spec.regions)
    assert sum(r.device_count for r in spec.regions) == 10_000
    spec.validate()


def test_validate_rejects_total_mismatch():
    spec = FleetSpec(
        total_devices=10,
        regions=(RegionSpec("east", 4), RegionSpec("west", 4)),
    )
    with pytest.raises(ValueError, match="sum to 8"):
        spec.validate()


def test_validate_rejects_nonpositive_arrival_rate():
    spec = FleetSpec.sized(8, num_regions=2)
    bad = FleetSpec(
        total_devices=8,
        regions=spec.regions,
        traffic=TrafficSpec(rate_per_s=0.0),
    )
    with pytest.raises(ValueError, match="rate_per_s must be positive"):
        bad.validate()


def test_validate_rejects_oversized_region():
    spec = FleetSpec(total_devices=300, regions=(RegionSpec("big", 300),))
    with pytest.raises(ValueError, match="at most 255"):
        spec.validate()


def test_validate_rejects_duplicate_and_slashed_region_names():
    with pytest.raises(ValueError, match="duplicate region names"):
        FleetSpec(
            total_devices=4,
            regions=(RegionSpec("a", 2), RegionSpec("a", 2)),
        ).validate()
    with pytest.raises(ValueError, match="must not contain '/'"):
        FleetSpec(
            total_devices=2, regions=(RegionSpec("a/b", 2),)
        ).validate()


def test_options_validate_calls_fleet_validate():
    bad = FleetSpec(
        total_devices=10,
        regions=(RegionSpec("east", 4), RegionSpec("west", 4)),
    )
    with pytest.raises(ValueError, match="sum to 8"):
        SpireOptions.wan(fleet=bad).validate()


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------

def test_same_seed_same_topology_different_seed_differs():
    spec = FleetSpec.sized(120, num_regions=3)
    first = generate_fleet(spec, seed=11).manifest()
    second = generate_fleet(spec, seed=11).manifest()
    other = generate_fleet(spec, seed=12).manifest()
    assert first == second
    assert first != other


def test_manifest_digest_is_stable_across_processes():
    spec = FleetSpec.sized(60, num_regions=2)
    assert digest(generate_fleet(spec, seed=3).manifest()) == digest(
        generate_fleet(spec, seed=3).manifest()
    )


def test_generator_respects_spec_shape():
    spec = FleetSpec.sized(100, num_regions=4)
    topology = generate_fleet(spec, seed=5)
    assert topology.device_count == 100
    assert [shard.device_count for shard in topology.regions] == [25] * 4
    kinds = [slot.kind for shard in topology.regions for slot in shard.slots]
    # about ``plc_fraction`` of the devices are PLCs, the rest RTUs
    assert set(kinds) == {"plc", "rtu"}
    assert abs(kinds.count("plc") / 100 - FleetSpec.plc_fraction) < 0.1
    assert all(
        shard.poll_intervals_ms == tuple(pc.interval_ms for pc in FleetSpec.poll_classes)
        and shard.base_tick_ms == FleetSpec.base_tick_ms
        for shard in topology.regions
    )
    # substation names are globally unique and region-prefixed
    names = [
        slot.substation
        for shard in topology.regions
        for slot in shard.slots
    ]
    assert len(set(names)) == 100
    assert all("/" in name for name in names)


def test_traffic_model_deterministic_and_open_loop():
    sizes = [30, 20]
    spec = TrafficSpec(process="poisson", rate_per_s=5.0)
    first = OperatorTrafficModel(spec, sizes, seed=9).preview(64)
    second = OperatorTrafficModel(spec, sizes, seed=9).preview(64)
    other = OperatorTrafficModel(spec, sizes, seed=10).preview(64)
    assert first == second
    assert first != other
    for gap_ms, region, device, _close in first:
        assert gap_ms > 0
        assert 0 <= region < 2
        assert 0 <= device < sizes[region]


def test_periodic_traffic_has_fixed_gaps():
    model = OperatorTrafficModel(
        TrafficSpec(process="periodic", rate_per_s=4.0), [10], seed=1
    )
    gaps = {action[0] for action in model.preview(16)}
    assert gaps == {250.0}


# ----------------------------------------------------------------------
# Sharded poll driver ≡ per-device timers
# ----------------------------------------------------------------------

def _drive(mode, run_ms=4000.0):
    """Run a mixed-class roster under one driver mode; returns the
    (time, slot_index) poll sequence."""
    simulator = Simulator(seed=2)
    network = Network(simulator, LinkSpec(latency_ms=0.5, jitter_ms=0.0))
    owner = Process(f"driver:{mode}", simulator, network)
    shard = RegionShard(
        "ctl", seed=2, poll_intervals_ms=(100.0, 500.0, 1000.0),
        base_tick_ms=100.0,
    )
    # interleave classes so slot order and class order disagree
    for index in range(9):
        shard.add_slot(f"ctl/s{index}", "rtu", index % 3, load_mw=10.0)
    fired = []
    driver = ShardedPollDriver(
        owner, shard,
        poll=lambda slot: fired.append((simulator.now, slot.index)),
        mode=mode,
    )
    driver.start()
    simulator.run_until(run_ms)
    return fired


def test_sharded_driver_matches_per_device_timers():
    """The region-level driver must poll every device at the same virtual
    time, in the same order, as one periodic timer per device would."""
    sharded = _drive("sharded")
    per_device = _drive("per-device")
    assert sharded == per_device
    assert len(sharded) > 0


def test_driver_rejects_unknown_mode_and_unaligned_interval():
    with pytest.raises(ValueError, match="not a positive multiple"):
        RegionShard("r", seed=1, poll_intervals_ms=(150.0,), base_tick_ms=100.0)
    shard = RegionShard("r", seed=1, poll_intervals_ms=(100.0,), base_tick_ms=100.0)
    simulator = Simulator(seed=1)
    network = Network(simulator)
    owner = Process("o", simulator, network)
    with pytest.raises(ValueError, match="unknown driver mode"):
        ShardedPollDriver(owner, shard, poll=lambda s: None, mode="bogus")


def test_lazy_materialization_only_touches_polled_slots():
    simulator = Simulator(seed=3)
    network = Network(simulator, LinkSpec(latency_ms=0.5, jitter_ms=0.0))
    Process("proxy:r", simulator, network)
    shard = RegionShard(
        "r", seed=3, poll_intervals_ms=(100.0, 100000.0), base_tick_ms=100.0
    )
    fast = shard.add_slot("r/fast", "rtu", 0, load_mw=5.0)
    slow = shard.add_slot("r/slow", "plc", 1, load_mw=5.0)
    assert shard.materialized == 0
    device = shard.materialize(fast, simulator, network, "proxy:r")
    assert shard.materialized == 1
    assert fast.device is device
    assert fast.coil_ids == (f"r/fast->{shard.source}",)
    assert slow.device is None
    # idempotent: re-materializing returns the same process
    assert shard.materialize(fast, simulator, network, "proxy:r") is device
    # the star feeder energizes the materialized leaf
    assert "r/fast" in shard.grid.energized_substations()


# ----------------------------------------------------------------------
# Fleet deployment end to end
# ----------------------------------------------------------------------

def _small_fleet_options(**overrides):
    spec = FleetSpec.sized(24, num_regions=2)
    base = dict(
        seed=13,
        fleet=spec,
        batching=BatchingOptions(max_batch_size=16),
    )
    base.update(overrides)
    return SpireOptions.wan(**base)


def test_fleet_deployment_orders_readings_end_to_end():
    deployment = SpireDeployment(_small_fleet_options())
    deployment.start()
    deployment.run_for(3000.0)
    assert deployment.device_count == 24
    assert len(deployment.region_proxies) == 2
    readings = sum(
        p.readings_submitted for p in deployment.region_proxies
    )
    assert readings > 0
    # threshold-verified status updates reached the operator console
    assert deployment.hmis[0].status_updates_seen > 0
    # open-loop traffic issued commands and the proxies executed them
    assert deployment.traffic_driver is not None
    assert deployment.traffic_driver.commands_issued > 0
    assert sum(p.commands_executed for p in deployment.region_proxies) > 0


def test_fleet_deployment_materializes_lazily():
    # a device materializes at its first poll: before the first base tick
    # none has, after one tick only the fastest class, and after the
    # slowest class's interval all of them
    spec = FleetSpec(
        total_devices=24,
        regions=(RegionSpec("east", 12), RegionSpec("west", 12)),
        traffic=None,
    )
    deployment = SpireDeployment(_small_fleet_options(fleet=spec))
    regions = deployment.fleet_topology.regions

    def materialized():
        return sum(shard.materialized for shard in regions)

    fastest = sum(
        1 for shard in regions for slot in shard.slots
        if shard.class_periods[slot.poll_class] == 1
    )
    deployment.start()
    deployment.run_for(FleetSpec.base_tick_ms / 2)
    assert materialized() == 0
    deployment.run_for(FleetSpec.base_tick_ms)
    assert materialized() == fastest < 24
    deployment.run_for(max(pc.interval_ms for pc in FleetSpec.poll_classes))
    assert materialized() == 24


def test_fleet_run_is_deterministic():
    def run():
        deployment = SpireDeployment(_small_fleet_options())
        deployment.start()
        deployment.run_for(2500.0)
        return (
            deployment.simulator.events_processed,
            sum(p.readings_submitted for p in deployment.region_proxies),
            deployment.hmis[0].status_updates_seen,
            deployment.traffic_driver.commands_issued,
        )

    assert run() == run()


def test_region_resolver_routes_commands_to_owning_proxy():
    deployment = SpireDeployment(_small_fleet_options())
    replica = deployment.replicas[0]
    east = deployment.fleet_topology.regions[0]
    substation = east.slots[0].substation
    assert replica.proxy_resolver(substation) == f"proxy:{east.name}"
    assert replica.proxy_resolver("nowhere/s0") is None


def test_forged_command_reaches_only_the_proxy_it_targets():
    """A compromised replica's forged breaker command is routed like a
    genuine one: to the region proxy fronting the substation it names,
    where one share stays below the f+1 threshold forever."""
    from repro.attacks import make_delivery_forger
    from repro.core.update import BreakerCommand, DeliveryRecord

    deployment = SpireDeployment(_small_fleet_options())
    east, west = deployment.fleet_topology.regions
    slot = west.slots[0]
    breaker_id = f"{slot.substation}->{west.source}"

    def fake_record():
        return DeliveryRecord(
            kind="command", client="hmi:0", client_seq=999_999,
            order_index=999_999,
            payload=BreakerCommand(slot.substation, breaker_id, close=False,
                                   issued_by="attacker"),
        )

    deployment.start()
    make_delivery_forger(deployment.replicas[1], fake_record, interval_ms=100.0)
    deployment.run_for(1500.0)
    east_proxy, west_proxy = deployment.region_proxies
    assert west_proxy.collector.pending_records >= 1
    assert east_proxy.collector.pending_records == 0
    # never executed: the device is materialized by its polls, and its
    # breaker is still closed
    assert west.grid.breaker_closed(slot.substation, breaker_id) is True


def test_fleet_traffic_driver_requires_hmis():
    topology = generate_fleet(FleetSpec.sized(8, num_regions=2), seed=1)
    with pytest.raises(ValueError, match="at least one HMI"):
        FleetTrafficDriver(
            Simulator(seed=1), [], topology, TrafficSpec(), seed=1
        )
