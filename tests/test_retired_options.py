"""The options no caller ever set, and those only tests set, are constants
of the class that owns them (or gone, with the branch only they reached).

Each retired name (i) still reads through its owner at the one value every
run used, (ii) is gone from ``__init__`` / ``to_dict()``, and (iii) does
not stop a scenario file dumped while it was still a field from loading
and replaying.
"""

import dataclasses
import inspect
import json

import pytest

from repro.attacks import RouteFlapAttacker, SpireCampaign, TraditionalCampaign
from repro.baselines import TraditionalDeployment
from repro.baselines.traditional import TraditionalMaster
from repro.chaos import (
    ChaosEngine,
    ChaosOptions,
    ChaosProfile,
    PbftChaosOptions,
    load_scenario,
    replay_scenario,
    scenario_dict,
)
from repro.control import ControlOptions
from repro.core import BatchingOptions, SpireOptions
from repro.core.client import SpireClient, SubmissionManager
from repro.core.collector import DeliveryCollector
from repro.core.proxy import RtuProxy
from repro.core.replica import THRESHOLD_GROUP, SpireReplica
from repro.fleet import DEFAULT_POLL_CLASSES, FleetSpec, RegionSpec
from repro.pbft.node import PbftConfig
from repro.prime.config import PrimeConfig
from repro.scada.plc import PlcDevice
from repro.spines.daemon import SpinesDaemon
from repro.spines.monitor import LinkMonitorConfig
from repro.spines.overlay import SpinesOverlay

NAMES = tuple(f"r{i}" for i in range(6))

#: owner -> (retired name, the value every run used) pairs; ``...`` marks a
#: name that left its owner: with the branch only its other values reached,
#: or for a value the code now computes. Pairs, not
#: keywords or dict keys: the architecture guard counts those as a caller
#: setting the option, and this table must not keep a re-grown knob alive.
RETIRED = {
    ControlOptions: (
        ("decay_half_life_ms", 4000.0), ("decision_gap_ms", 1500.0),
        ("fallback_after_ms", 10_000.0), ("baseline_threshold", 0.05),
        ("post_recovery_grace_ms", 1500.0), ("weight_suspect", 0.8),
        ("weight_crash", 1.0), ("weight_lag", 0.5), ("weight_overlay", 0.3),
        ("weight_violation", 0.4), ("fallback_period_ms", ...),
    ),
    # the four liveness bounds left when the judge began computing B
    ChaosOptions: (
        ("reroute_bound_ms", ...), ("max_delivery_gap_ms", ...),
        ("quiet_grace_ms", ...), ("view_recovery_bound_ms", ...),
        ("overlay_rate_limit_per_ms", ...),
    ),
    SpireOptions: (("num_hmis", 1), ("overlay_rate_limit_per_ms", ...)),
    PrimeConfig: (
        ("ping_interval_ms", 200.0), ("view_change_timeout_ms", 800.0),
        ("recon_window", 32),
    ),
    PbftConfig: (
        ("check_interval_ms", 100.0), ("retrans_interval_ms", 50.0),
        ("forward_interval_ms", 200.0),
    ),
    LinkMonitorConfig: (
        ("degraded_factor", 3.0), ("recovered_factor", 1.5),
        ("hello_size_bytes", 64),
    ),
    SpinesOverlay: (("last_mile_latency_ms", 0.1), ("link_auth", ...)),
    SpinesDaemon: (("dedup_window", 50_000), ("link_auth", ...)),
    TraditionalMaster: (
        ("heartbeat_interval_ms", 500.0), ("failover_timeout_ms", 2000.0),
    ),
    TraditionalDeployment: (("wan_latency_ms", 8.0),),
    TraditionalCampaign: (("sample_interval_ms", 1000.0),),
    SpireCampaign: (("sample_interval_ms", 1000.0),),
    RouteFlapAttacker: (("lie_latency_ms", ...),),
    PlcDevice: (("scan_interval_ms", 100.0),),
    RtuProxy: (("device_timeout_ms", ...),),
    SubmissionManager: (("retry_policy", ...),),
    SpireClient: (("threshold_group", ...),),
    SpireReplica: (("threshold_group", THRESHOLD_GROUP),),
    DeliveryCollector: (("max_pending", 10_000),),
}

#: PR 23: what only the chaos harnesses themselves ever set
RETIRED_LATER = {
    ChaosOptions: (("min_actions", 3), ("max_actions", 8)),
    PbftChaosOptions: (
        ("n", 6), ("f", 1), ("request_interval_ms", 150.0),
        ("request_timeout_ms", 800.0), ("view_recovery_bound_ms", ...),
        ("checkpoint_interval", 16), ("min_actions", 1), ("max_actions", 3),
    ),
}
#: PR 27: what only tests set, which no experiment varies
RETIRED_TEST_ONLY = {
    SpireOptions: (("overlay_queue_limit", ...),),
    ChaosOptions: (("overlay_queue_limit", ...), ("control_overrides", ...)),
    ControlOptions: (
        ("sense_interval_ms", 250.0), ("ewma_alpha", 0.35),
        ("trigger_threshold", 0.55), ("clear_threshold", 0.25),
        ("cooldown_ms", 6000.0), ("lag_threshold_seqs", 25),
    ),
    LinkMonitorConfig: (
        ("hello_interval_ms", 100.0), ("miss_threshold", 3), ("ewma_alpha", 0.3),
        ("reroute_delay_ms", 50.0), ("max_flaps", 4), ("flap_window_ms", 5000.0),
        ("suppress_ms", 5000.0),
    ),
    PrimeConfig: (("rtt_ewma_alpha", 0.2),),
    ChaosProfile: (("min_fault_ms", 300.0), ("max_fault_ms", 2500.0)),
    FleetSpec: (
        ("poll_classes", DEFAULT_POLL_CLASSES), ("plc_fraction", 0.2),
        ("base_tick_ms", 100.0),
    ),
}
#: the Spines overload model, which only tests switched on: a daemon
#: forwards at no modelled cost, so there is no capacity to share out
RETIRED_OVERLOAD = {
    owner: (
        ("fairness", ...), ("forward_capacity_per_ms", ...),
        ("max_queue_per_source", ...), ("source_rate_per_ms", ...),
        ("source_burst", ...),
    )
    for owner in (SpinesOverlay, SpinesDaemon)
}
#: the intruder behaviour only a test chose: a test that wants another
#: intruder overrides ``SpireCampaign.intrude``
RETIRED_CAMPAIGN = {SpireCampaign: (("behavior", ...),)}
TABLES = (RETIRED, RETIRED_LATER, RETIRED_TEST_ONLY, RETIRED_OVERLOAD,
          RETIRED_CAMPAIGN)
OWNERS = list(dict.fromkeys(owner for table in TABLES for owner in table))

#: a dataclass owner is read through an instance built from these
INSTANCE_ARGS = {
    PrimeConfig: (NAMES,), PbftConfig: (NAMES,), FleetSpec: (4, (RegionSpec("r", 4),)),
}


def retired(owner):
    return sum((table.get(owner, ()) for table in TABLES), ())


def test_the_retired_names_are_the_43_the_sweep_found():
    assert sum(len(names) for names in RETIRED.values()) == 43
    assert sum(len(names) for names in RETIRED_LATER.values()) == 10
    assert sum(len(names) for names in RETIRED_TEST_ONLY.values()) == 22


@pytest.mark.parametrize("owner", OWNERS, ids=lambda cls: cls.__name__)
def test_a_retired_name_is_no_longer_settable(owner):
    parameters = inspect.signature(owner.__init__).parameters
    required = [
        "x" for p in list(parameters.values())[1:]
        if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    for name, _ in retired(owner):
        assert name not in parameters, name
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            owner(*required, **{name: 1})


@pytest.mark.parametrize("owner", OWNERS, ids=lambda cls: cls.__name__)
def test_a_constant_reads_through_its_owner_at_the_value_every_run_used(owner):
    holder = owner
    if hasattr(owner, "__dataclass_fields__") or owner in INSTANCE_ARGS:
        holder = owner(*INSTANCE_ARGS.get(owner, ()))
    for name, value in retired(owner):
        if value is ...:
            assert not hasattr(holder, name), name
        else:
            assert getattr(holder, name) == value, name


def test_component_constants_read_through_live_instances():
    deployment = TraditionalDeployment(num_substations=2, seed=1)
    assert deployment.wan_latency_ms == 8.0
    assert deployment.primary.heartbeat_interval_ms == 500.0
    assert deployment.backup.failover_timeout_ms == 2000.0
    assert "wan_latency_ms" not in vars(deployment)
    assert "failover_timeout_ms" not in vars(deployment.backup)


def test_option_dicts_round_trip_without_the_retired_keys():
    chaos = ChaosOptions(seed=9, self_healing=True, leader_faults=True)
    batching = BatchingOptions(max_batch_size=16, max_batch_delay_ms=4.0)
    for options in (chaos, batching):
        image = options.to_dict()
        assert type(options).from_dict(image) == options
        assert not set(image) & {name for name, _ in retired(type(options))}
    assert len(chaos.to_dict()) == 15
    assert sorted(PbftChaosOptions().to_dict()) == ["chaos_ms", "seed", "settle_ms", "warmup_ms"]
    assert len(batching.to_dict()) == 2
    # nothing of the controller is left to serialize: a deployment asks
    # for it with ``feedback_control=True``
    assert dataclasses.fields(ControlOptions) == ()
    assert not hasattr(ControlOptions, "to_dict")


def test_a_scenario_dumped_before_the_fields_retired_still_replays(tmp_path):
    # built here, not committed: fingerprints depend on the hash seed
    result = ChaosEngine(ChaosOptions(seed=3)).run()
    image = scenario_dict(result)
    for name, value in retired(ChaosOptions):
        image["options"][name] = 0.0 if value is ... else value
    # what the last two fields of a test-only knob looked like in a dump
    image["options"]["overlay_queue_limit"] = 64
    image["options"]["control_overrides"] = {"cooldown_ms": 8000.0}
    assert len(image["options"]) == 24
    path = tmp_path / "parent_era.json"
    path.write_text(json.dumps(image, indent=2, sort_keys=True))
    loaded = load_scenario(path)
    assert "quiet_grace_ms" in loaded["options"]
    assert ChaosOptions.from_dict(loaded["options"]) == result.options
    assert replay_scenario(path).fingerprint == result.fingerprint
