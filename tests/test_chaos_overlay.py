"""Chaos coverage for the overlay fault kinds and their reroute judgement.

The three overlay fault kinds (``link_kill``, ``link_degrade``,
``daemon_kill``) target overlay *sites*, not process names; the engine
maps them onto spines daemon processes. With ``self_healing=True`` the
liveness judge owes a verified delivery within the overlay's detection
bound plus B of every overlay fault's start (its fixtures are rows of
``test_chaos.py::test_the_liveness_judge``).
"""

import json

from repro.chaos import (
    OVERLAY_FAULT_KINDS,
    ChaosEngine,
    ChaosOptions,
    ChaosProfile,
    FaultAction,
    FaultSchedule,
    generate_schedule,
)

OVERLAY_LINKS = [
    ("cc1", "cc2"), ("cc1", "dc1"), ("cc1", "dc2"),
    ("cc2", "dc1"), ("cc2", "dc2"), ("dc1", "dc2"),
]
OVERLAY_SITES = ["cc1", "cc2", "dc1", "dc2"]


# ----------------------------------------------------------------------
# Schedule model + generator
# ----------------------------------------------------------------------
def test_overlay_fault_actions_roundtrip_json():
    actions = [
        FaultAction("link_kill", 100.0, 500.0, targets=("cc1", "dc2")),
        FaultAction("link_degrade", 200.0, 400.0, targets=("cc2", "dc1"),
                    params=(("extra_delay_ms", 150.0), ("extra_loss", 0.2))),
        FaultAction("daemon_kill", 300.0, 600.0, targets=("dc1",)),
    ]
    for action in actions:
        assert action.kind in OVERLAY_FAULT_KINDS
        restored = FaultAction.from_dict(json.loads(json.dumps(action.to_dict())))
        assert restored == action
    schedule = FaultSchedule(tuple(actions))
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_generator_draws_overlay_faults_deterministically():
    profile = ChaosProfile(
        kinds=("link_kill", "link_degrade", "daemon_kill"),
        window_start_ms=500.0, window_end_ms=4000.0,
        min_actions=4, max_actions=8,
    )
    first = generate_schedule(
        21, [f"replica:{i}" for i in range(6)], profile=profile,
        overlay_links=OVERLAY_LINKS, overlay_sites=OVERLAY_SITES,
    )
    second = generate_schedule(
        21, [f"replica:{i}" for i in range(6)], profile=profile,
        overlay_links=OVERLAY_LINKS, overlay_sites=OVERLAY_SITES,
    )
    assert first == second
    assert len(first) >= 4
    assert all(a.kind in OVERLAY_FAULT_KINDS for a in first)
    for action in first:
        if action.kind in ("link_kill", "link_degrade"):
            assert tuple(action.targets) in [
                tuple(l) for l in OVERLAY_LINKS
            ] or tuple(reversed(action.targets)) in [
                tuple(l) for l in OVERLAY_LINKS
            ]
        else:
            assert action.targets[0] in OVERLAY_SITES


def test_generator_skips_overlay_kinds_without_topology():
    profile = ChaosProfile(
        kinds=("link_kill", "daemon_kill", "crash"),
        window_start_ms=500.0, window_end_ms=4000.0,
        min_actions=3, max_actions=6,
    )
    schedule = generate_schedule(
        9, [f"replica:{i}" for i in range(6)], profile=profile,
    )
    # with no overlay links/sites supplied, only crash survives
    assert all(a.kind == "crash" for a in schedule)


# ----------------------------------------------------------------------
# End to end: explicit overlay schedule through a full deployment
# ----------------------------------------------------------------------
def _overlay_options(seed=13):
    return ChaosOptions(
        seed=seed,
        warmup_ms=800.0,
        chaos_ms=3000.0,
        settle_ms=2000.0,
        poll_interval_ms=250.0,
        proactive_recovery=(5000.0, 400.0),
        self_healing=True,
    )


def _overlay_schedule():
    return FaultSchedule((
        FaultAction("link_kill", 1200.0, 1500.0, targets=("cc1", "dc2")),
        FaultAction("daemon_kill", 2600.0, 600.0, targets=("dc2",)),
    ))


def test_chaos_run_survives_overlay_faults_with_self_healing():
    result = ChaosEngine(_overlay_options(), schedule=_overlay_schedule()).run()
    assert result.violations == []
    assert result.stats["reroute_faults_checked"] == 2
    assert result.stats["overlay_reroutes"] >= 1
    # injector actually applied the faults
    notes = " ".join(result.injector_log)
    assert "LINK-KILL" in notes and "CRASH" in notes


def test_chaos_overlay_run_is_deterministic():
    first = ChaosEngine(_overlay_options(), schedule=_overlay_schedule()).run()
    second = ChaosEngine(_overlay_options(), schedule=_overlay_schedule()).run()
    assert first.fingerprint == second.fingerprint
    assert first.deterministic_stats == second.deterministic_stats


def test_chaos_link_degrade_applies_dos_window():
    schedule = FaultSchedule((
        FaultAction("link_degrade", 1200.0, 1200.0, targets=("cc1", "cc2"),
                    params=(("extra_delay_ms", 120.0), ("extra_loss", 0.1))),
    ))
    result = ChaosEngine(_overlay_options(seed=14), schedule=schedule).run()
    assert result.violations == []
    assert result.stats["reroute_faults_checked"] == 1
