"""Unit tests for the chaos subsystem's building blocks.

Covers the schedule data model, the seeded generator's invariants, the
oracle's, the liveness judge's and the monitors' fine print on bare
fixtures, the ddmin shrinker's reduction logic, and the scenario file
format. That every violation kind fires
through the one runner is ``test_chaos_violation_kinds.py``; end-to-end
chaos runs live in ``test_chaos_smoke.py``.
"""

import json
from typing import NamedTuple

import pytest

import repro.chaos.shrink as shrink_mod
from repro.chaos import (
    ChaosOptions,
    ChaosProfile,
    FaultAction,
    FaultSchedule,
    Liveness,
    Oracle,
    ProxyGateMonitor,
    Violation,
    generate_schedule,
    load_scenario,
    shrink_schedule,
)
from repro.core.update import BatchDeliveryShare, DeliveryRecord, batch_record_for
from repro.crypto.provider import FastCrypto
from repro.prime import LoggingApp
from repro.prime.messages import ClientUpdate
from repro.simnet import LinkSpec, Network, Process, Simulator


# ----------------------------------------------------------------------
# Schedule data model
# ----------------------------------------------------------------------

def test_fault_action_normalizes_params():
    action = FaultAction("delay_spike", 10.0, 5.0, targets=["b", "a"],
                         params=[("probability", 0.5), ("extra_ms", 1)])
    assert action.params == (("extra_ms", 1), ("probability", 0.5))
    assert action.param("probability") == 0.5
    assert action.param("missing", 42) == 42
    assert action.end_ms == 15.0


def test_fault_action_rejects_bad_input():
    with pytest.raises(ValueError):
        FaultAction("meteor-strike", 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultAction("drop", -1.0, 1.0)


def test_fault_schedule_sorts_and_roundtrips():
    schedule = FaultSchedule((
        FaultAction("drop", 50.0, 10.0, targets=("x",)),
        FaultAction("crash", 5.0, 10.0, targets=("y",)),
    ))
    assert [a.kind for a in schedule] == ["crash", "drop"]
    assert FaultSchedule.from_json(schedule.to_json()) == schedule
    # JSON round-trip of an action with params preserves value types
    action = FaultAction("reorder", 1.0, 2.0, targets=("a",),
                         params=(("window_ms", 20.0),))
    assert FaultAction.from_dict(json.loads(json.dumps(action.to_dict()))) == action


def test_fault_schedule_subset_without():
    schedule = FaultSchedule(tuple(
        FaultAction("crash", float(i), 1.0, targets=(f"r{i}",)) for i in range(4)
    ))
    assert [a.start_ms for a in schedule.subset([0, 2])] == [0.0, 2.0]
    assert [a.start_ms for a in schedule.without([0, 2])] == [1.0, 3.0]
    assert len(schedule.subset(())) == 0


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------

REPLICAS = [f"replica:{i}" for i in range(6)]


def test_generate_schedule_is_deterministic():
    first = generate_schedule(11, REPLICAS, endpoints=["proxy:field"])
    again = generate_schedule(11, REPLICAS, endpoints=["proxy:field"])
    assert first == again
    assert generate_schedule(12, REPLICAS, endpoints=["proxy:field"]) != first


def test_generate_schedule_respects_profile_bounds():
    profile = ChaosProfile(window_start_ms=1000.0, window_end_ms=4000.0,
                           max_concurrent_crashes=1, max_partition_minority=1)
    for seed in range(30):
        schedule = generate_schedule(seed, REPLICAS, profile=profile)
        crash_windows = []
        for action in schedule:
            assert 1000.0 <= action.start_ms <= 4000.0
            assert profile.min_fault_ms <= action.duration_ms <= profile.max_fault_ms
            if action.kind == "crash":
                crash_windows.append((action.start_ms, action.end_ms))
            if action.kind == "partition":
                assert len(action.targets) <= 1
        for i, (s1, e1) in enumerate(crash_windows):
            overlaps = sum(1 for s2, e2 in crash_windows[i + 1:]
                           if s1 < e2 and s2 < e1)
            assert overlaps < profile.max_concurrent_crashes


def test_generated_schedule_roundtrips_through_json():
    for seed in range(10):
        schedule = generate_schedule(seed, REPLICAS, endpoints=["hmi:0"])
        assert FaultSchedule.from_json(schedule.to_json()) == schedule


# ----------------------------------------------------------------------
# The oracle and the monitors
# ----------------------------------------------------------------------

class _Replica(Process):
    """Minimal stand-in exposing the replica outputs the oracle reads."""

    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.execution_listeners = []
        self.app = LoggingApp()
        self.executed_counter = 0

    def execute(self, update, order_index):
        self.executed_counter = order_index
        result = self.app.execute(update, order_index)
        for listener in self.execution_listeners:
            listener(update, order_index, result)


def _sim_net():
    sim = Simulator(seed=1)
    return sim, Network(sim, LinkSpec(latency_ms=1.0))


def _kinds(oracle):
    return [kind for kind, _, _ in oracle.findings]


def test_safety_monitor_accepts_agreement_flags_divergence():
    sim, net = _sim_net()
    replicas = [_Replica(f"r{i}", sim, net) for i in range(3)]
    oracle = Oracle(lambda: sim.now)
    oracle.watch(replicas)

    same = ClientUpdate("proxy", 1, "reading-1")
    for replica in replicas:
        replica.execute(same, 1)
    oracle.check_states(replicas)
    assert oracle.findings == []

    replicas[0].execute(ClientUpdate("proxy", 2, "reading-2"), 2)
    replicas[1].execute(ClientUpdate("proxy", 3, "OTHER"), 2)
    [(kind, _, details)] = oracle.findings
    assert kind == "divergent-execution"
    assert details["order_index"] == 2 and details["replica"] == "r1"
    # the diverged replica is not judged by a replay of an order it left;
    # the one that fell behind is, against the prefix it executed
    oracle.check_states(replicas)
    assert _kinds(oracle) == ["divergent-execution"]
    replicas[2].app.execute(same, 1)  # applied to its state, never reported
    oracle.check_states(replicas)
    assert _kinds(oracle) == ["divergent-execution", "double-execution"]


def test_safety_monitor_excludes_byzantine_replicas():
    """The oracle judges the replicas it is handed and no other."""
    sim, net = _sim_net()
    replicas = [_Replica(f"r{i}", sim, net) for i in range(2)]
    oracle = Oracle(lambda: sim.now)
    oracle.watch(replicas[:1])
    replicas[0].execute(ClientUpdate("proxy", 1, "honest"), 1)
    replicas[1].execute(ClientUpdate("proxy", 9, "equivocation"), 1)
    oracle.check_states(replicas[:1])
    assert oracle.findings == [] and oracle.executions_checked == 1


class _Endpoint:
    """Bare endpoint: a named owner of a DeliveryCollector that acts on
    what the collector releases."""

    def __init__(self, name, collector):
        self.name = name
        self.collector = collector
        self.acted_on = []

    def _on_verified_record(self, record):
        self.acted_on.append(record)

    def receive(self, share):
        for record, _ in self.collector.add_batch(share):
            self._on_verified_record(record)


def _delivery_fixture():
    from repro.core.collector import DeliveryCollector

    crypto = FastCrypto(seed="gate-test")
    crypto.create_threshold_group("g", players=4, threshold=2)
    sim, _ = _sim_net()
    collector = DeliveryCollector(crypto, "g")
    batch, entries = batch_record_for(
        "r1#0", 1, [(ClientUpdate("proxy", 1, "reading"), 1, None)]
    )
    shares = [
        BatchDeliveryShare(
            f"r{i}", batch, crypto.threshold_sign_share("g", i, batch), entries
        )
        for i in (1, 2)
    ]
    return sim, crypto, collector, shares


def test_proxy_gate_monitor_passes_honest_collector():
    sim, crypto, collector, shares = _delivery_fixture()
    monitor = ProxyGateMonitor(sim, crypto)
    monitor.attach(_Endpoint("proxy", collector))
    assert collector.add_batch(shares[0]) == []
    assert len(collector.add_batch(shares[1])) == 1
    assert monitor.violations() == []
    assert monitor.deliveries_checked == 1


def test_proxy_gate_monitor_catches_record_outside_the_signed_root():
    sim, crypto, collector, shares = _delivery_fixture()
    real_add_batch = collector.add_batch
    smuggled = DeliveryRecord("command", "hmi", 7, 2, "open-breaker")

    def smuggling_add_batch(share):
        released = real_add_batch(share)
        # a genuine batch signature vouching for a record it never covered
        return released + [(smuggled, signature) for _, signature in released]

    collector.add_batch = smuggling_add_batch
    monitor = ProxyGateMonitor(sim, crypto)
    monitor.attach(_Endpoint("proxy", collector))
    collector.add_batch(shares[0])
    collector.add_batch(shares[1])
    [violation] = monitor.violations()
    assert violation.kind == "unverified-delivery"
    assert dict(violation.details)["client"] == "hmi"


def test_proxy_gate_monitor_catches_duplicate_delivery():
    """The gate re-verifies a replayed record and finds it genuine; the
    oracle, reading what the endpoint acts on, finds it acted on twice."""
    sim, crypto, collector, shares = _delivery_fixture()
    real_add_batch = collector.add_batch
    state = {"first": []}

    def replaying_add_batch(share):
        released = real_add_batch(share)
        if released:
            state["first"] = released
        return released or state["first"]

    collector.add_batch = replaying_add_batch
    endpoint = _Endpoint("proxy", collector)
    monitor = ProxyGateMonitor(sim, crypto)
    monitor.attach(endpoint)
    oracle = Oracle(lambda: sim.now)
    oracle.watch((), [endpoint])
    endpoint.receive(shares[0])
    endpoint.receive(shares[1])   # combines: first legitimate delivery
    endpoint.receive(shares[0])   # replays the same record again
    assert monitor.violations() == [] and monitor.deliveries_checked == 2
    assert _kinds(oracle) == ["duplicate-delivery"]
    assert len(endpoint.acted_on) == 2  # an observer: the replay still went through


def test_proxy_gate_monitor_forgets_its_oldest_batches_never_recent_ones():
    """Up to ``kept_batches`` batches, the gate remembers the entries
    offered before a release, so a completing share that carries none is
    still judged on them; past it, the oldest batch is forgotten first."""
    sim, crypto, collector, _ = _delivery_fixture()
    monitor = ProxyGateMonitor(sim, crypto)
    monitor.kept_batches = cap = 4
    monitor.attach(_Endpoint("proxy", collector))

    def share(seq, index, carried):
        batch, entries = batch_record_for(
            "r1#0", seq, [(ClientUpdate("proxy", seq, "reading"), seq, None)]
        )
        signed = crypto.threshold_sign_share("g", index, batch)
        return BatchDeliveryShare(f"r{index}", batch, signed, entries if carried else ())

    batches = range(1, 3 * cap + 1)
    for seq in batches:
        assert collector.add_batch(share(seq, 1, carried=True)) == []
    for seq in batches[-cap:]:
        assert len(collector.add_batch(share(seq, 2, carried=False))) == 1
    assert monitor.violations() == [] and monitor.deliveries_checked == cap
    # the oldest batch's offered entries are gone: its release is judged
    # on the completing share alone, which carries no proof
    assert len(collector.add_batch(share(batches[0], 2, carried=False))) == 1
    assert [v.kind for v in monitor.violations()] == ["unverified-delivery"]


def _steady(*gaps, until=5000.0):
    """A delivery every 100 ms from 0 to ``until``, none inside ``gaps``."""
    return [t * 100.0 for t in range(int(until / 100) + 1)
            if not any(a <= t * 100.0 < b for a, b in gaps)]


class Case(NamedTuple):
    """One judgement of the liveness judge, on bare timelines."""

    deliveries: list
    kinds: tuple = ()
    #: stats the row pins, read off the judge after it ran
    stats: dict = {}
    bound_ms: float = 600.0
    start_ms: float = 0.0
    end_ms: float = 5000.0
    blocking: tuple = ()
    rejuvenations: tuple = ()
    adoptions: tuple = ()
    leader_faults: tuple = ()
    overlay_faults: tuple = ()


LEADERS = tuple(f"r{i}" for i in range(6))


def _adopted(view, at, replicas=LEADERS[1:5]):
    return tuple((at, replica, view) for replica in replicas)


LIVENESS_CASES = {
    # the watchdog's fixtures, now owed time with B as the gap bound
    "a-stall-in-owed-time": Case(
        [1000.0, 1050.0, 1400.0, 1450.0], ("delivery-stall",),
        dict(quiet_checked_ms=500.0), bound_ms=100.0, start_ms=1000.0, end_ms=1500.0),
    "short-owed-intervals-and-steady-flow": Case(
        [t * 50.0 for t in range(100)], (), dict(quiet_checked_ms=2090.0),
        bound_ms=100.0, end_ms=3000.0, blocking=((90.0, 900.0, ()),)),
    # the reroute monitor's fixtures: detection 400 ms + B within a blocking window
    "an-overlay-fault-healed-in-time": Case(
        _steady((2000.0, 2900.0)), (), dict(reroute_faults_checked=1),
        blocking=((2000.0, 2500.0, ("cc1", "dc2")),), overlay_faults=(2000.0,)),
    "an-overlay-fault-that-stalls": Case(
        _steady((2000.0, 3200.0)), ("reroute-stall",), dict(reroute_faults_checked=1),
        blocking=((2000.0, 2500.0, ("cc1", "dc2")),), overlay_faults=(2000.0,)),
    "an-overlay-fault-too-close-to-the-end": Case(
        _steady((4500.0, 5000.1)), (), dict(reroute_faults_checked=0),
        blocking=((4500.0, 4800.0, ("cc1", "dc2")),), overlay_faults=(4500.0,)),
    # the next leader, r2, is cut off too: two view changes are budgeted
    # (Prime leader seed 24 resumes 1,595.5 ms after its third fault)
    "a-cascade-past-a-held-next-leader": Case(
        _steady((1000.0, 2210.0)), (),
        dict(view_faults_checked=1, recovery_latencies_ms=[1200.0]), bound_ms=1000.0,
        blocking=((1000.0, 3000.0, ("r1",)), (900.0, 3500.0, ("r2",))),
        adoptions=_adopted(1, 500.0) + _adopted(3, 2200.0),
        leader_faults=((1000.0, "r1", 1),)),
    "one-view-change-that-is-too-slow": Case(
        _steady((1000.0, 2210.0)), ("no-quorum-adoption",), dict(view_faults_checked=1),
        bound_ms=1000.0, blocking=((1000.0, 3000.0, ("r1",)),),
        adoptions=_adopted(1, 500.0) + _adopted(2, 2200.0),
        leader_faults=((1000.0, "r1", 1),)),
    # r3 and r4 are down as well: more than f + k = 2 held, so the
    # view change is owed from when r4 is back, at 2000 ms
    "a-leader-fault-beyond-the-fault-model": Case(
        _steady((1000.0, 2810.0)), (),
        dict(view_faults_checked=1, recovery_latencies_ms=[1800.0]), bound_ms=1000.0,
        blocking=((1000.0, 3000.0, ("r1",)), (800.0, 4000.0, ("r3",)),
                  (900.0, 2000.0, ("r4",))),
        adoptions=_adopted(1, 500.0) + _adopted(2, 2800.0),
        leader_faults=((1000.0, "r1", 1),)),
    # r3 is held from before the fault and r4 from after it: three held
    # from 1500 to 2500 ms, so the clock pauses there and the view change
    # is owed by 3000 ms, not 2000 ms (Prime leader seed 4 adopts its
    # view about 220 ms after its third held replica is back)
    "a-third-replica-held-after-the-leader-fault": Case(
        _steady((1000.0, 2810.0)), (),
        dict(view_faults_checked=1, recovery_latencies_ms=[1800.0]), bound_ms=1000.0,
        blocking=((1000.0, 3000.0, ("r1",)), (1200.0, 4000.0, ("r3",)),
                  (1500.0, 2500.0, ("r4",))),
        adoptions=_adopted(1, 500.0) + _adopted(2, 2800.0),
        leader_faults=((1000.0, "r1", 1),)),
    "a-view-change-and-no-delivery": Case(
        _steady((1000.0, 5000.1)), ("ordering-stalled",), dict(view_faults_checked=1),
        bound_ms=1000.0, blocking=((1000.0, 3000.0, ("r1",)),),
        adoptions=_adopted(1, 500.0) + _adopted(2, 1800.0),
        leader_faults=((1000.0, "r1", 1),)),
    # rejuvenating a replica that does not lead leaves progress owed ...
    "a-non-leader-rejuvenating-in-owed-time": Case(
        _steady((2000.0, 2700.0)), ("delivery-stall",), dict(quiet_checked_ms=5000.0),
        rejuvenations=(("r3", 2000.0, 2400.0),)),
    # ... rejuvenating the leader of the view a quorum holds does not
    "the-leader-rejuvenating": Case(
        _steady((2000.0, 2700.0)), (), dict(quiet_checked_ms=4000.0),
        rejuvenations=(("r1", 2000.0, 2400.0),), adoptions=_adopted(1, 500.0)),
}


@pytest.mark.parametrize("case", LIVENESS_CASES.values(), ids=LIVENESS_CASES)
def test_the_liveness_judge(case):
    judge = Liveness(case.bound_ms, quorum=4, tolerated=2, leaders=LEADERS)
    judge.judge(
        case.start_ms, case.end_ms, case.blocking, case.rejuvenations, case.adoptions,
        case.leader_faults, case.deliveries, case.overlay_faults, detection_ms=400.0,
    )
    assert tuple(kind for kind, _, _ in judge.findings) == case.kinds
    for name, value in case.stats.items():
        assert getattr(judge, name) == pytest.approx(value), name
    # a finding is a judgement with negative slack, and only a finding is
    assert (judge.margin_ms < 0) == bool(case.kinds)


def test_violation_serializes():
    violation = Violation("safety", "divergent-execution", 123.0,
                          (("order_index", 7),))
    data = violation.to_dict()
    assert data["monitor"] == "safety"
    assert data["details"] == {"order_index": 7}
    assert json.dumps(data)  # JSON-safe


# ----------------------------------------------------------------------
# Shrinker (engine monkeypatched for speed)
# ----------------------------------------------------------------------

def _fake_engine(required_kinds):
    class FakeEngine:
        def __init__(self, options, schedule, mutator=None):
            self.schedule = schedule

        def run(self):
            kinds = {a.kind for a in self.schedule}
            failed = required_kinds <= kinds

            class R:
                violations = [Violation("fake", "boom", 0.0)] if failed else []

            return R()

    return FakeEngine


def _schedule_of(kinds):
    return FaultSchedule(tuple(
        FaultAction(kind, float(10 * i), 5.0) for i, kind in enumerate(kinds)
    ))


def test_shrink_finds_minimal_action_pair(monkeypatch):
    monkeypatch.setattr(shrink_mod, "ChaosEngine",
                        _fake_engine({"crash", "partition"}))
    schedule = _schedule_of(
        ["drop", "crash", "reorder", "dos", "partition", "corrupt"]
    )
    result = shrink_schedule(ChaosOptions(), schedule)
    assert result.reproduced
    assert sorted(a.kind for a in result.schedule) == ["crash", "partition"]
    assert result.runs <= 20


def test_shrink_reports_non_reproducing_schedule(monkeypatch):
    monkeypatch.setattr(shrink_mod, "ChaosEngine", _fake_engine({"leader_dos"}))
    schedule = _schedule_of(["drop", "crash"])
    result = shrink_schedule(ChaosOptions(), schedule)
    assert not result.reproduced
    assert result.schedule == schedule
    assert result.runs == 1


def test_shrink_collapses_schedule_independent_failure(monkeypatch):
    monkeypatch.setattr(shrink_mod, "ChaosEngine", _fake_engine(set()))
    schedule = _schedule_of(["drop", "crash", "dos"])
    result = shrink_schedule(ChaosOptions(), schedule)
    assert result.reproduced
    assert len(result.schedule) == 0


# ----------------------------------------------------------------------
# Scenario format
# ----------------------------------------------------------------------

def test_load_scenario_rejects_unknown_format():
    with pytest.raises(ValueError):
        load_scenario({"format": "something-else/9"})


def test_chaos_options_roundtrip():
    options = ChaosOptions(seed=5, proactive_recovery=(1000.0, 100.0))
    assert ChaosOptions.from_dict(options.to_dict()) == options
    assert ChaosOptions.from_dict(
        ChaosOptions(proactive_recovery=None).to_dict()
    ).proactive_recovery is None
