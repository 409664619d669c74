"""``repro.chaos`` — seeded chaos testing, judged by two output judges and two monitors.

Randomized-but-replayable fault schedules on top of ``repro.simnet``, run
against a system under chaos, judged by an output oracle (safety), a
liveness judge (progress owed by the schedule arrives within a bound
computed from the protocol's timers) and two runtime monitors. One
runner (:func:`repro.chaos.engine.run_chaos`) serves both systems —
``ChaosEngine`` builds Prime inside a Spire deployment, ``run_pbft_chaos``
the flat PBFT baseline — and one table (:mod:`repro.chaos.faults`) holds
every fault kind: its targets, its params with their one default and
generator range, how it is aimed and which ``FailureInjector`` window it
opens. Every run is a pure function of ``(seed, schedule)``; failing runs
dump JSON scenario files that replay byte-for-byte and shrink to minimal
reproducers.

Quickstart::

    from repro.chaos import ChaosEngine, ChaosOptions

    result = ChaosEngine(ChaosOptions(seed=42)).run()
    assert result.ok, result.violations
"""

from .engine import HOST_STAT_KEYS, ChaosEngine, ChaosOptions, ChaosResult
from .faults import FAULT_KINDS, LEADER_FAULT_KINDS, OVERLAY_FAULT_KINDS
from .generator import ChaosProfile, generate_schedule
from .liveness import Liveness
from .monitors import ProxyGateMonitor, QuorumAvailabilityMonitor, Violation
from .oracle import Oracle
from .pbft import PbftChaosOptions, run_pbft_chaos
from .scenario import (
    SCENARIO_FORMAT,
    ReplayMismatch,
    dump_scenario,
    load_scenario,
    replay_scenario,
    scenario_dict,
)
from .schedule import FaultAction, FaultSchedule
from .shrink import ShrinkResult, shrink_schedule

__all__ = [
    "ChaosEngine",
    "ChaosOptions",
    "ChaosResult",
    "HOST_STAT_KEYS",
    "ChaosProfile",
    "generate_schedule",
    "Oracle",
    "Liveness",
    "ProxyGateMonitor",
    "QuorumAvailabilityMonitor",
    "Violation",
    "FaultAction",
    "FaultSchedule",
    "FAULT_KINDS",
    "OVERLAY_FAULT_KINDS",
    "LEADER_FAULT_KINDS",
    "PbftChaosOptions",
    "run_pbft_chaos",
    "SCENARIO_FORMAT",
    "scenario_dict",
    "dump_scenario",
    "load_scenario",
    "replay_scenario",
    "ReplayMismatch",
    "ShrinkResult",
    "shrink_schedule",
]
