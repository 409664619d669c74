"""Every violation kind fires through the one runner, on both systems.

One row per ``(system, family, kind)`` the oracle and the monitors can
emit: a named mutant weakens one thing (the ``benchmarks/e2e/mutants.py``
pattern) and the run — ``ChaosEngine`` for Prime in a Spire deployment,
``run_pbft_chaos`` for the flat PBFT cluster, both
:func:`repro.chaos.engine.run_chaos` underneath — must report exactly that
kind (plus, where the weakening cannot help causing them, the kinds the row
lists under ``also``). A row's id names the invariant family; the safety
kinds and the proxy gate's duplicate and ungated kinds are flagged by the
output oracle, the bounded-delay, reroute-bound and view-recovery kinds by
the liveness judge, the rest by the family's monitor. The unmutated runs are the
smoke sweeps of ``test_chaos_smoke.py`` and ``test_chaos_leader.py``: zero
violations.

Rows that replaced a fixture-level test name it:

* ``spire quorum-availability/rejuvenation-below-quorum`` replaced
  ``test_chaos.py::test_quorum_monitor_tracks_live_count_and_flags_bad_begin``
  and ``test_control_loop.py::test_quorum_floor_monitor_flags_floor_break``
  (the two monitors are one; their two kinds count once, under this name);
* ``spire proxy-gate/unverified-delivery`` replaced
  ``test_chaos.py::test_proxy_gate_monitor_catches_forged_signature``.
"""

import dataclasses
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import pytest
from test_chaos_smoke import weaken_proxy_gate

import repro.chaos.monitors as monitors
import repro.chaos.pbft as pbft_harness
from repro.chaos import (
    ChaosEngine,
    ChaosOptions,
    FaultAction,
    FaultSchedule,
    Liveness,
    Oracle,
    PbftChaosOptions,
    run_pbft_chaos,
    shrink_schedule,
)
from repro.core import BreakerCommand
from repro.pbft import PbftNode
from repro.prime import sign_client_update

#: short shapes: a leader fault at 700 ms is judged (B is 1,171.2 ms for
#: this Prime shape, 1,050 ms for the PBFT cluster)
SPIRE = dict(seed=3, warmup_ms=600.0, chaos_ms=3000.0, settle_ms=200.0,
             poll_interval_ms=250.0, proactive_recovery=None)
PBFT = dict(seed=3, warmup_ms=300.0, chaos_ms=3000.0, settle_ms=500.0)
VICTIM = "replica:3"
NO_FAULTS = FaultSchedule(())
LEADER_KILL = FaultSchedule((FaultAction("leader_kill", 700.0, 1500.0),))


# ----------------------------------------------------------------------
# Spire mutants: ``mutator(deployment)``, applied before the monitors attach
# ----------------------------------------------------------------------

def _once_at_victim(deployment, wrap: Callable[..., Any]) -> None:
    """Route the victim's ``execute_update`` through ``wrap(original, node,
    update, verified)`` for the first update that passes verification."""
    node = next(r for r in deployment.replicas if r.name == VICTIM)
    original = node.execution.execute_update
    pending = [True]

    def execute_update(update, verified):
        if verified and pending and not node.client_dedup.is_duplicate(
                update.client, update.client_seq):
            pending.clear()
            return wrap(original, node, update, verified)
        return original(update, verified)

    node.execution.execute_update = execute_update


def executes_something_else(deployment) -> None:
    """One replica executes a different payload at one order index."""
    def wrap(original, node, update, verified):
        return original(dataclasses.replace(update, payload=("tampered",)), verified)
    _once_at_victim(deployment, wrap)


def orders_an_update_twice(deployment) -> None:
    """One replica forgets it executed an update and executes it again at
    the next order index (every later index of its is then off by one)."""
    def wrap(original, node, update, verified):
        item = original(update, verified)
        node.client_dedup.is_duplicate = lambda client, seq: False
        original(update, verified)
        del node.client_dedup.is_duplicate
        return item
    _once_at_victim(deployment, wrap)


def applies_an_update_twice(deployment) -> None:
    """One replica applies an update to its state twice and counts it once."""
    def wrap(original, node, update, verified):
        item = original(update, verified)
        result = node.app.execute(update, node.executed_counter)
        for listener in node.execution_listeners:
            listener(update, node.executed_counter, result)
        return item
    _once_at_victim(deployment, wrap)


def hmi_forgets_what_it_released(deployment) -> None:
    """The HMI's collector keeps no dedup table: every later share of a
    signed batch releases the batch's records again."""
    deployment.hmis[0].collector._mark_done = lambda key: None


def proxy_operates_a_breaker_nobody_ordered(deployment) -> None:
    """At 900 ms the proxy writes to the field with no delivery behind it."""
    substation = deployment.grid.substations["sub0"]
    command = BreakerCommand("sub0", next(iter(substation.breakers)), False, "intruder")
    deployment.simulator.schedule_at(
        900.0, lambda: deployment.proxy._execute_command(command))


def recovery_ignores_the_floor(deployment) -> None:
    """The recovery strategy runs with its deferral guard off."""
    deployment.recovery_scheduler.min_live = None


def _deliveries_stop(deployment, at_ms: float, until_ms: Optional[float] = None) -> None:
    saved = {}

    def stop() -> None:
        for replica in deployment.replicas:
            saved[replica.name] = list(replica.batch_execution_listeners)
            replica.batch_execution_listeners.clear()

    def resume() -> None:
        for replica in deployment.replicas:
            replica.batch_execution_listeners[:] = saved[replica.name]

    deployment.simulator.schedule_at(at_ms, stop)
    if until_ms is not None:
        deployment.simulator.schedule_at(until_ms, resume)


def replicas_stop_delivering(deployment) -> None:
    """From 900 ms on no replica sends a delivery share."""
    _deliveries_stop(deployment, 900.0)


def overlay_fault_blacks_out_delivery(deployment) -> None:
    """Nothing is delivered for 2.01 s from the overlay fault's start, past
    the detection bound (450 ms) + B (1,171.2 ms) it owes a delivery by."""
    _deliveries_stop(deployment, 790.0, 2800.0)


def nobody_suspects_the_leader(deployment) -> None:
    """Turn-around-time monitoring is off at every replica."""
    for replica in deployment.replicas:
        replica._tat_tick = lambda: None


def ordering_never_resumes(deployment) -> None:
    """The view changes, but nothing is delivered after the leader fault."""
    _deliveries_stop(deployment, 700.0)


# ----------------------------------------------------------------------
# PBFT mutants: a ``PbftNode`` subclass the harness builds its cluster of
# ----------------------------------------------------------------------

class _OnceAtVictim(PbftNode):
    pending = True

    def _execute_update(self, update) -> None:
        if type(self).pending and self.name == VICTIM and \
                not self.client_dedup.is_duplicate(update.client, update.client_seq):
            type(self).pending = False
            self.mutated(update)
        else:
            super()._execute_update(update)

    def mutated(self, update) -> None:
        raise NotImplementedError


class ExecutesSomethingElse(_OnceAtVictim):
    def mutated(self, update) -> None:
        super()._execute_update(sign_client_update(
            self.crypto, update.client, update.client_seq, ("tampered",)))


class OrdersAnUpdateTwice(_OnceAtVictim):
    def mutated(self, update) -> None:
        super()._execute_update(update)
        self.client_dedup.is_duplicate = lambda client, seq: False
        super()._execute_update(update)
        del self.client_dedup.is_duplicate


class AppliesASlotTwice(_OnceAtVictim):
    """Stable storage, no restore: the same update applied twice."""

    def mutated(self, update) -> None:
        super()._execute_update(update)
        result = self.app.execute(update, self.executed_counter)
        for listener in self.execution_listeners:
            listener(update, self.executed_counter, result)


class NobodyTimesOut(PbftNode):
    def _timeout_tick(self) -> None:
        pass


class ExecutesNothingAfterTheFault(PbftNode):
    def _execute_update(self, update) -> None:
        if self.simulator.now < 700.0:
            super()._execute_update(update)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

EXECUTION_KINDS = ("divergent-execution", "duplicate-execution", "double-execution")
#: what the output oracle flags
ORACLE_KINDS = EXECUTION_KINDS + ("duplicate-delivery", "ungated-field-command")
#: what the liveness judge flags; every other kind is its family's monitor's
LIVENESS_KINDS = ("delivery-stall", "reroute-stall", "no-quorum-adoption", "ordering-stalled")
LEADER_KINDS = ("no-quorum-adoption", "ordering-stalled")


class Row(NamedTuple):
    system: str
    #: the invariant family the test id names
    family: str
    kind: str
    mutant: Any
    schedule: FaultSchedule = NO_FAULTS
    options: Dict[str, Any] = {}
    #: kinds the weakening cannot help causing besides the expected one
    also: Tuple[str, ...] = ()

    @property
    def monitor(self) -> str:
        """Who flags the row's kind."""
        if self.kind in ORACLE_KINDS:
            return Oracle.name
        return Liveness.name if self.kind in LIVENESS_KINDS else self.family


SHIFTED = ("double-execution", "divergent-execution")
TWO_DOWN = FaultSchedule((
    FaultAction("crash", 700.0, 1500.0, targets=("replica:4",)),
    FaultAction("crash", 700.0, 1500.0, targets=("replica:5",)),
))
LINK_KILL = FaultSchedule((FaultAction("link_kill", 800.0, 500.0, targets=("cc1", "dc2")),))

ROWS = (
    Row("spire", "safety", "divergent-execution", executes_something_else),
    Row("spire", "safety", "duplicate-execution", orders_an_update_twice, also=SHIFTED),
    Row("spire", "safety", "double-execution", applies_an_update_twice),
    Row("spire", "proxy-gate", "unverified-delivery", weaken_proxy_gate),
    Row("spire", "proxy-gate", "duplicate-delivery", hmi_forgets_what_it_released),
    Row("spire", "proxy-gate", "ungated-field-command",
        proxy_operates_a_breaker_nobody_ordered),
    Row("spire", "quorum-availability", "rejuvenation-below-quorum",
        recovery_ignores_the_floor, TWO_DOWN,
        dict(proactive_recovery=(1000.0, 300.0))),
    Row("spire", "bounded-delay", "delivery-stall", replicas_stop_delivering),
    Row("spire", "reroute-bound", "reroute-stall", overlay_fault_blacks_out_delivery,
        LINK_KILL, dict(self_healing=True)),
    Row("spire", "view-recovery", "no-quorum-adoption", nobody_suspects_the_leader,
        LEADER_KILL),
    Row("spire", "view-recovery", "ordering-stalled", ordering_never_resumes,
        LEADER_KILL),
    Row("pbft", "safety", "divergent-execution", ExecutesSomethingElse),
    Row("pbft", "safety", "duplicate-execution", OrdersAnUpdateTwice, also=SHIFTED),
    Row("pbft", "safety", "double-execution", AppliesASlotTwice),
    Row("pbft", "view-recovery", "no-quorum-adoption", NobodyTimesOut, LEADER_KILL),
    Row("pbft", "view-recovery", "ordering-stalled", ExecutesNothingAfterTheFault,
        LEADER_KILL),
)


def run(row: Row, monkeypatch):
    if row.system == "spire":
        options = ChaosOptions(**{**SPIRE, **row.options})
        return ChaosEngine(options, schedule=row.schedule, mutator=row.mutant).run()
    monkeypatch.setattr(pbft_harness, "PbftNode", row.mutant)
    monkeypatch.setattr(row.mutant, "pending", True, raising=False)
    return run_pbft_chaos(PbftChaosOptions(**PBFT), row.schedule)


@pytest.mark.parametrize(
    "row", ROWS, ids=lambda row: f"{row.system}-{row.family}/{row.kind}")
def test_the_mutant_is_flagged_with_exactly_its_kind(row, monkeypatch):
    result = run(row, monkeypatch)
    flagged = {(v.monitor, v.kind) for v in result.violations}
    assert (row.monitor, row.kind) in flagged, sorted(flagged)
    assert flagged - {(Oracle.name, kind) for kind in row.also} == {(row.monitor, row.kind)}
    # obs reads every attached monitor's count, zero included
    prefix = "chaos.violations."
    counted = {
        name[len(prefix):]: value
        for name, value in result.obs_snapshot["metrics"].items()
        if name.startswith(prefix)
    }
    assert {v.monitor for v in result.violations} <= set(counted)
    for monitor, count in counted.items():
        assert count == sum(v.monitor == monitor for v in result.violations)


def test_the_table_covers_every_kind_the_monitors_can_emit():
    # every literal kind handed to ``_flag`` in repro.chaos.monitors and by
    # the two judges, by the class that hands it
    import ast
    import inspect

    judges = [Oracle, Liveness] + [
        getattr(monitors, name) for name in monitors.__all__ if name.endswith("Monitor")
    ]
    emitted = set()
    for cls in judges:
        for node in ast.walk(ast.parse(inspect.getsource(cls))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "_flag":
                emitted.add((cls.name, node.args[0].value))
    assert len(emitted) == 11
    assert {(row.monitor, row.kind) for row in ROWS if row.system == "spire"} == emitted
    assert {kind for judge, kind in emitted if judge == Oracle.name} == set(ORACLE_KINDS)
    assert {kind for judge, kind in emitted if judge == Liveness.name} == set(LIVENESS_KINDS)
    # the flat cluster has no endpoints, recovery strategy or overlay
    assert {(row.monitor, row.kind) for row in ROWS if row.system == "pbft"} == {
        pair for pair in emitted if pair[1] in LEADER_KINDS + EXECUTION_KINDS
    }


def test_the_quorum_row_also_keeps_the_live_timeline():
    row = next(row for row in ROWS if row.monitor == "quorum-availability")
    result = ChaosEngine(
        ChaosOptions(**{**SPIRE, **row.options}), schedule=row.schedule,
        mutator=row.mutant,
    ).run()
    details = dict(result.violations[0].details)
    # two crashed, a third taken down: 4 live before, floor 2f+k+1 = 4
    assert (details["live"], details["floor"]) == (4, 4)
    assert details["strategy"] == "PeriodicStrategy"
    assert result.stats["min_live_seen"] == 3
    assert result.stats["floor_rejuvenations_checked"] >= 1


def test_a_rejuvenated_prime_replica_replaying_is_not_a_double_execution():
    """The other half of exactly-once: a killed leader comes back, restores
    its state and executes again what it had executed before the crash.
    Its final state equals the oracle's replay up to its executed count,
    so nothing is flagged, and nothing had to wrap ``restore``."""
    executed = {}

    def count(deployment) -> None:
        for replica in deployment.replicas:
            seen = executed.setdefault(replica.name, {})
            replica.execution_listeners.append(
                lambda update, index, result, seen=seen: seen.__setitem__(
                    (update.client, update.client_seq),
                    seen.get((update.client, update.client_seq), 0) + 1))

    result = ChaosEngine(
        ChaosOptions(**SPIRE), schedule=LEADER_KILL, mutator=count).run()
    assert result.ok, [str(v) for v in result.violations]
    assert result.stats["view_faults_checked"] == 1
    replayed = {
        name for name, seen in executed.items() if max(seen.values()) > 1
    }
    assert replayed == {"replica:0"}  # the leader of view 0, and only it


def test_the_shrinker_keeps_the_failure_it_was_given():
    """Two mutants at once: the unordered breaker write needs no fault, the
    floor break needs both crashes. The empty schedule still fails, but on
    the write alone, so the shrinker must not stop there: a candidate counts
    only if it flags every ``(monitor, kind)`` of the full schedule's run."""
    def both(deployment) -> None:
        proxy_operates_a_breaker_nobody_ordered(deployment)
        recovery_ignores_the_floor(deployment)

    options = ChaosOptions(**{**SPIRE, "proactive_recovery": (1000.0, 300.0)})
    failure = {(v.monitor, v.kind) for v in ChaosEngine(options, TWO_DOWN, both).run().violations}
    assert {kind for _, kind in failure} == {"ungated-field-command", "rejuvenation-below-quorum"}
    shrunk = shrink_schedule(options, TWO_DOWN, mutator=both)
    assert shrunk.reproduced
    again = ChaosEngine(options, shrunk.schedule, both).run()
    assert failure <= {(v.monitor, v.kind) for v in again.violations}
    assert shrunk.schedule == TWO_DOWN  # neither crash alone breaks the floor
