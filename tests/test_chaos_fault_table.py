"""The fault taxonomy, pinned: what each seed draws and what each kind does.

Two golden records taken before the fault kinds moved into one table
(``repro.chaos.faults``), and held bit-identical since:

* the schedules ``generate_schedule`` draws for seeds 0-199 under four
  profiles — any change to RNG draw order, a generator range or the
  rounding of a drawn value moves a digest;
* one hand-written schedule holding every kind, several without params so
  the per-kind *defaults* are what runs, driven through ``ChaosEngine`` —
  any change to a default, to which primitive a kind maps to, or to the
  order events are scheduled in moves the fingerprint.
"""

import hashlib
import json
import os

import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosEngine,
    ChaosOptions,
    ChaosProfile,
    FaultAction,
    FaultSchedule,
    generate_schedule,
)

DETERMINISTIC_HASHING = os.environ.get("PYTHONHASHSEED") == "0"

REPLICAS = [f"replica:{i}" for i in range(6)]
ENDPOINTS = ["proxy:field", "hmi:0"]
OVERLAY_LINKS = [
    ("cc1", "cc2"), ("cc1", "dc1"), ("cc1", "dc2"),
    ("cc2", "dc1"), ("cc2", "dc2"), ("dc1", "dc2"),
]
OVERLAY_SITES = ["cc1", "cc2", "dc1", "dc2"]
LEADER_WEIGHTS = ("leader_kill", "leader_kill", "leader_partition")


def _draw(profile_name: str, seed: int) -> FaultSchedule:
    if profile_name == "default":
        return generate_schedule(seed, REPLICAS, endpoints=ENDPOINTS)
    if profile_name == "overlay":
        profile = ChaosProfile(
            kinds=ChaosProfile().kinds
            + ("link_kill", "link_degrade", "daemon_kill"),
            max_actions=10,
        )
        return generate_schedule(
            seed, REPLICAS, endpoints=ENDPOINTS, profile=profile,
            overlay_links=OVERLAY_LINKS, overlay_sites=OVERLAY_SITES,
        )
    if profile_name == "pbft_leader":
        # the profile ``run_pbft_chaos`` builds from ``PbftChaosOptions()``
        profile = ChaosProfile(
            window_start_ms=1000.0, window_end_ms=6000.0,
            min_actions=1, max_actions=3, max_concurrent_crashes=1,
            kinds=LEADER_WEIGHTS,
        )
        return generate_schedule(seed, REPLICAS, profile=profile)
    # the profile ``ChaosEngine.run`` builds for ``leader_faults=True``
    # at the smoke shape of tests/test_chaos_leader.py
    profile = ChaosProfile(
        window_start_ms=800.0, window_end_ms=3800.0,
        min_actions=3, max_actions=8,
        max_concurrent_crashes=1, max_partition_minority=1,
        kinds=ChaosProfile().kinds + LEADER_WEIGHTS,
    )
    return generate_schedule(
        seed, REPLICAS, endpoints=ENDPOINTS, profile=profile,
    )


#: profile -> sha256 over the canonical JSON of the schedules of seeds 0-199
PINNED_SCHEDULES = {
    "default":
        "c59114c71fd83b53f8e5f12799801ed80a7b5dcc832410682c6f76330adcf69e",
    "overlay":
        "d27426b484f1e54b63bb54a262ecc73c8f706dff0783f872e7b54d6285380a22",
    "pbft_leader":
        "b2d96bc5193aad5a704bf6becd257f9544fd722fd8df49118452d1bde22bf83b",
    "leader_faults":
        "bf0d2559f237c910660da9891e5e1d5c24d8a4fc18ecf323a16d1948ef3d2a76",
}


def schedules_digest(profile_name: str) -> str:
    image = [_draw(profile_name, seed).to_list() for seed in range(200)]
    text = json.dumps(image, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("profile_name", sorted(PINNED_SCHEDULES))
def test_generated_schedules_unchanged(profile_name):
    assert schedules_digest(profile_name) == PINNED_SCHEDULES[profile_name]


def test_pinned_profiles_cover_every_kind():
    drawn = {
        action.kind
        for profile_name in PINNED_SCHEDULES
        for seed in range(200)
        for action in _draw(profile_name, seed)
    }
    assert drawn == set(FAULT_KINDS)


# ----------------------------------------------------------------------
# Every kind through the engine, defaults included
# ----------------------------------------------------------------------

#: all 17 kinds; the ones without params run on the per-kind defaults
ALL_KINDS_SCHEDULE = FaultSchedule((
    FaultAction("crash", 900.0, 400.0, targets=("replica:4",)),
    FaultAction("partition", 1000.0, 500.0, targets=("replica:5",)),
    FaultAction("dos", 1100.0, 600.0, targets=("replica:1",)),
    FaultAction("leader_dos", 1200.0, 1500.0),
    FaultAction("drop", 1300.0, 700.0, targets=("replica:2", "hmi:0")),
    FaultAction("duplicate", 1400.0, 600.0, targets=("replica:3",),
                params=(("probability", 0.4),)),
    FaultAction("reorder", 1500.0, 500.0, targets=("replica:0",)),
    FaultAction("delay_spike", 1600.0, 400.0, targets=("proxy:field",)),
    FaultAction("corrupt", 1700.0, 500.0, targets=("replica:1",)),
    FaultAction("slow_node", 1800.0, 600.0, targets=("replica:2",)),
    FaultAction("asym_link", 1900.0, 500.0,
                targets=("replica:3", "replica:0")),
    FaultAction("jitter_storm", 2000.0, 600.0,
                targets=("replica:0", "replica:5")),
    FaultAction("link_kill", 2300.0, 900.0, targets=("cc1", "dc2")),
    FaultAction("link_degrade", 2500.0, 800.0, targets=("cc2", "dc1")),
    FaultAction("daemon_kill", 3400.0, 500.0, targets=("dc1",)),
    FaultAction("leader_kill", 3600.0, 1500.0),
    FaultAction("leader_partition", 5400.0, 1400.0),
    FaultAction("dos", 2100.0, 300.0, targets=("replica:4",),
                params=(("extra_delay_ms", 120.0), ("extra_loss", 0.05))),
    FaultAction("reorder", 2900.0, 300.0, targets=("hmi:0",),
                params=(("window_ms", 12.5), ("probability", 0.6))),
))

ALL_KINDS_OPTIONS = ChaosOptions(
    seed=19,
    warmup_ms=800.0,
    chaos_ms=6200.0,
    settle_ms=2000.0,
    poll_interval_ms=250.0,
    proactive_recovery=(5000.0, 400.0),
    self_healing=True,
    overlay_queue_limit=64,
)

#: (fingerprint, events processed) at PYTHONHASHSEED=0
PINNED_ALL_KINDS = (
    "6f91502095296b53c8307f098a3f0ab07884ca7374a416c74cc8b64136c06130",
    69_667,
)


def test_all_kinds_schedule_holds_every_kind():
    assert {a.kind for a in ALL_KINDS_SCHEDULE} == set(FAULT_KINDS)


@pytest.mark.skipif(
    not DETERMINISTIC_HASHING, reason="fingerprints pinned at PYTHONHASHSEED=0"
)
def test_all_kinds_run_fingerprint_unchanged():
    fingerprint, events = PINNED_ALL_KINDS
    result = ChaosEngine(ALL_KINDS_OPTIONS, schedule=ALL_KINDS_SCHEDULE).run()
    assert result.stats["events_processed"] == events
    assert result.fingerprint == fingerprint
    # every kind bit: overlay faults rerouted, leader faults were judged
    assert result.stats["fault_kinds"] == sorted(FAULT_KINDS)
    assert result.stats["reroute_faults_checked"] == 3
    assert result.stats["view_faults_checked"] == 2
