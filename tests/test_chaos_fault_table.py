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

Then the table's own contract, one parametrised case per row (it draws an
action it accepts, the action survives JSON, its window opens, bites and
closes behind itself), and the boundary scenario files cross: one rejected
scenario per validation rule, and the ``reorder`` window of zero length
that used to hang the harness.
"""

import hashlib
import json
import random
import re
import signal
from contextlib import contextmanager

import pytest

import repro.chaos.pbft as pbft_harness
from repro.chaos import (
    FAULT_KINDS,
    SCENARIO_FORMAT,
    ChaosEngine,
    ChaosOptions,
    ChaosProfile,
    FaultAction,
    FaultSchedule,
    PbftChaosOptions,
    generate_schedule,
    replay_scenario,
    run_pbft_chaos,
)
from repro.chaos.engine import schedule_profile
from repro.chaos.faults import FAULTS, LEADER_FAULT_KINDS, ChaosSystem
from repro.chaos.generator import DrawContext
from repro.simnet import FailureInjector, LinkSpec, Network, Process, Simulator

REPLICAS = [f"replica:{i}" for i in range(6)]
ENDPOINTS = ["proxy:field", "hmi:0"]
OVERLAY_LINKS = [
    ("cc1", "cc2"), ("cc1", "dc1"), ("cc1", "dc2"),
    ("cc2", "dc1"), ("cc2", "dc2"), ("dc1", "dc2"),
]
OVERLAY_SITES = ["cc1", "cc2", "dc1", "dc2"]


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
        # what ``run_pbft_chaos`` draws from for ``PbftChaosOptions()``
        return generate_schedule(
            seed, REPLICAS, profile=schedule_profile(PbftChaosOptions()),
        )
    # what ``ChaosEngine.run`` draws from for ``leader_faults=True`` at the
    # smoke shape of tests/test_chaos_leader.py
    smoke = ChaosOptions(warmup_ms=800.0, chaos_ms=3000.0, leader_faults=True)
    return generate_schedule(
        seed, REPLICAS, endpoints=ENDPOINTS, profile=schedule_profile(smoke),
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
)

#: (fingerprint, events processed); re-pinned when
#: both protocols took one head-of-line repair path and the poller re-sent
#: a timed-out transaction in place, when a routed overlay took one
#: datagram per destination site, when it took one per multicast, when
#: Prime's reconciliation pushed only on evidence, when a new view
#: stopped re-agreeing slots a replica had ordered, and when a proxy
#: submitted each poll round in one message (CHANGES.md)
PINNED_ALL_KINDS = (
    "ab42082b37c5580fd69b8577b3a053f734e82db41c54d1904366dfdcdc13afba",
    41_704,
)


def test_all_kinds_schedule_holds_every_kind():
    assert {a.kind for a in ALL_KINDS_SCHEDULE} == set(FAULT_KINDS)


def test_all_kinds_run_fingerprint_unchanged():
    fingerprint, events = PINNED_ALL_KINDS
    result = ChaosEngine(ALL_KINDS_OPTIONS, schedule=ALL_KINDS_SCHEDULE).run()
    assert result.stats["events_processed"] == events
    assert result.fingerprint == fingerprint
    # every kind bit: overlay faults rerouted, leader faults were judged
    assert result.stats["fault_kinds"] == sorted(FAULT_KINDS)
    assert result.stats["reroute_faults_checked"] == 3
    assert result.stats["view_faults_checked"] == 2


# ----------------------------------------------------------------------
# The table's contract, row by row
# ----------------------------------------------------------------------

SITE_OF = {
    "replica:0": "cc1", "replica:1": "cc1", "replica:2": "cc2",
    "replica:3": "cc2", "hmi:0": "cc2",
}
MINI_LINKS = [("cc1", "cc2")]
MINI_SITES = ["cc1", "cc2"]


class MiniDeployment:
    """Four replicas and an HMI behind two site daemons, on a bare network:
    everything a fault row touches, nothing that takes time to run."""

    def __init__(self):
        self.simulator = Simulator(seed=3)
        self.network = Network(self.simulator, LinkSpec(latency_ms=1.0))
        names = list(SITE_OF) + [f"spines:{site}" for site in MINI_SITES]
        self.processes = {
            name: Process(name, self.simulator, self.network) for name in names
        }
        self.injector = FailureInjector(self.simulator, self.network)
        self.struck = []
        self.system = ChaosSystem(
            # a fault row reads only the four fields after these
            simulator=self.simulator, network=self.network, obs=None,
            replicas=(), quorum=0, tolerated=0, liveness_bound_ms=0.0,
            new_view_event="", start=None, stats=None,
            current_leader=lambda: "replica:0",
            current_view=lambda: 7,
            access_peers=lambda name: [f"spines:{SITE_OF[name]}"],
            note_leader_fault=lambda target, view: self.struck.append((target, view)),
        )

    def surface(self):
        """Every piece of state a fault may bend, as comparable data."""
        net = self.network
        links = {}
        for src in self.processes:
            for dst in self.processes:
                if src != dst:
                    state = net._link(src, dst)
                    links[src, dst] = (
                        state.extra_delay_ms, state.extra_loss, state.blocked,
                    )
        return (
            links, len(net._filters), list(net._partitions),
            {name: process.is_up for name, process in self.processes.items()},
        )


def draw_action(kind: str, seed: int = 5) -> FaultAction:
    replicas = [name for name in SITE_OF if name.startswith("replica:")]
    ctx = DrawContext(
        ChaosProfile(window_start_ms=100.0, window_end_ms=200.0),
        replicas, list(SITE_OF), MINI_LINKS, MINI_SITES,
    )
    drawn = FAULTS[kind].draw(random.Random(seed), ctx)
    assert drawn is not None
    return FaultAction(kind, *drawn)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_row_draws_an_action_it_accepts_and_json_keeps(kind):
    row = FAULTS[kind]
    action = draw_action(kind)
    assert action == draw_action(kind)  # a pure function of the seed
    fewest, most = row.arity
    assert fewest <= len(action.targets) <= (most if most is not None else 99)
    # the generator sets every param the row declares, within its range
    assert [name for name, _ in action.params] == sorted(p.name for p in row.params)
    for param in row.params:
        assert param.low <= action.param(param.name) <= param.high
        assert param.unit.allows(param.default)
    schedule = FaultSchedule((action,))
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_row_opens_a_window_that_closes_behind_itself(kind):
    mini = MiniDeployment()
    action = draw_action(kind)
    before = mini.surface()
    pending = mini.simulator.pending_events
    FAULTS[kind].apply(action, mini.system, mini.injector, f"chaos/{kind}/0")
    assert mini.simulator.pending_events >= pending + 2  # a start and a stop
    assert mini.surface() == before                      # nothing yet

    mini.simulator.run_until(action.start_ms + action.duration_ms / 2)
    assert mini.surface() != before, "the fault did not bite"
    mini.simulator.run_until(action.end_ms + 1.0)
    assert mini.surface() == before, "the window left something behind"

    stamps = [float(re.match(r"\[t=\s*([\d.]+)ms\]", line).group(1))
              for line in mini.injector.log]
    assert min(stamps) == pytest.approx(action.start_ms, abs=0.05)
    assert max(stamps) == pytest.approx(action.end_ms, abs=0.05)
    assert len(stamps) >= 2
    # leader faults, and only they, are reported to the view-recovery monitor
    assert mini.struck == ([("replica:0", 7)] if kind in LEADER_FAULT_KINDS else [])


def test_rows_without_params_run_on_the_table_defaults():
    """The one default per param is the row's — this is where the engine's
    200 ms / 0.1 for ``link_degrade`` (``dos_link_window`` itself says
    300 / 0.2) is now written down."""
    mini = MiniDeployment()
    action = FaultAction("link_degrade", 10.0, 20.0, targets=("cc1", "cc2"))
    FAULTS["link_degrade"].apply(action, mini.system, mini.injector, "s")
    mini.simulator.run_until(15.0)
    links = mini.surface()[0]
    assert links["spines:cc1", "spines:cc2"] == (200.0, 0.1, False)
    assert links["spines:cc2", "spines:cc1"] == (200.0, 0.1, False)


def test_asym_link_degrades_only_the_first_targets_access_link():
    """The generator names two replicas; the second has never been used.
    The row says so (``targets_used=1``) instead of a branch hiding it."""
    assert FAULTS["asym_link"].targets_used == 1
    assert FAULTS["asym_link"].arity == (1, 2)
    assert all(FAULTS[kind].targets_used is None
               for kind in FAULT_KINDS if kind != "asym_link")
    mini = MiniDeployment()
    before = mini.surface()[0]
    action = FaultAction("asym_link", 10.0, 20.0,
                         targets=("replica:0", "replica:2"),
                         params=(("extra_delay_ms", 40.0),))
    FAULTS["asym_link"].apply(action, mini.system, mini.injector, "s")
    mini.simulator.run_until(15.0)
    during = mini.surface()[0]
    changed = {link for link in during if during[link] != before[link]}
    assert changed == {("replica:0", "spines:cc1")}  # one way, first target
    assert during["replica:0", "spines:cc1"] == (40.0, 0.0, False)


@pytest.mark.parametrize(
    "kind", [kind for kind in FAULT_KINDS if kind not in LEADER_FAULT_KINDS])
def test_pbft_harness_refuses_non_leader_kinds_before_it_builds(kind, monkeypatch):
    def no_simulator(*args, **kwargs):
        raise AssertionError("the simulator was built")

    monkeypatch.setattr(pbft_harness, "Simulator", no_simulator)
    schedule = FaultSchedule((draw_action(kind),))
    with pytest.raises(ValueError, match=kind):
        run_pbft_chaos(PbftChaosOptions(), schedule)


def test_pbft_harness_runs_both_leader_kinds_from_the_table():
    schedule = FaultSchedule((
        FaultAction("leader_kill", 400.0, 900.0),
        FaultAction("leader_partition", 2200.0, 900.0),
    ))
    result = run_pbft_chaos(
        PbftChaosOptions(seed=3, warmup_ms=300.0, chaos_ms=3000.0, settle_ms=1500.0),
        schedule,
    )
    assert result.ok, [str(v) for v in result.violations]
    assert result.stats["fault_kinds"] == sorted(LEADER_FAULT_KINDS)
    log = " ".join(result.injector_log)
    assert "LEADER-KILL CRASH replica:0" in log
    assert "LEADER-PARTITION PARTITION" in log and "LEADER-PARTITION HEAL" in log
    # flat cluster: the leader is cut off from every other replica
    assert "| ['replica:0', 'replica:2', 'replica:3', 'replica:4', 'replica:5']" in log


# ----------------------------------------------------------------------
# The scenario-file boundary
# ----------------------------------------------------------------------

@contextmanager
def wall_clock_guard(seconds: float):
    """Fail, rather than hang the suite, if the body runs too long."""
    def on_alarm(signum, frame):
        raise AssertionError(f"still running after {seconds}s of wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def scenario_with(action: dict) -> dict:
    return {
        "format": SCENARIO_FORMAT,
        "options": ChaosOptions(
            warmup_ms=50.0, chaos_ms=50.0, settle_ms=0.0,
            proactive_recovery=None,
        ).to_dict(),
        "schedule": [action],
    }


def test_zero_reorder_window_is_refused_not_run_forever():
    """``window_ms=0`` re-armed the flush tick at delay 0: a 100 ms run
    never got past the fault's start."""
    with wall_clock_guard(5.0):
        with pytest.raises(ValueError, match=r"reorder.*window_ms"):
            FaultAction("reorder", 10.0, 50.0, targets=("replica:0",),
                        params={"window_ms": 0})
        with pytest.raises(ValueError, match=r"reorder.*window_ms"):
            replay_scenario(scenario_with({
                "kind": "reorder", "start_ms": 10.0, "duration_ms": 50.0,
                "targets": ["replica:0"], "params": {"window_ms": 0},
            }))
        mini = MiniDeployment()
        with pytest.raises(ValueError, match="window_ms"):
            mini.injector.reorder_window(["replica:0"], 10.0, 50.0, window_ms=0)
        mini.simulator.run_until(100.0)
        assert mini.simulator.now == 100.0


BAD_ACTIONS = {
    "unknown param": (
        {"kind": "drop", "targets": ["replica:0"], "params": {"probabilty": 0.5}},
        r"drop.*probabilty"),
    "too few targets": (
        {"kind": "link_kill", "targets": ["cc1"]}, r"link_kill.*targets"),
    "too many targets": (
        {"kind": "leader_kill", "targets": ["replica:0"]}, r"leader_kill.*targets"),
    "asym_link without a source": (
        {"kind": "asym_link", "targets": []}, r"asym_link.*targets"),
    "zero retarget interval": (
        {"kind": "leader_dos", "params": {"retarget_interval_ms": 0}},
        r"leader_dos.*retarget_interval_ms"),
    "negative reorder window": (
        {"kind": "reorder", "targets": ["hmi:0"], "params": {"window_ms": -5.0}},
        r"reorder.*window_ms"),
    "probability above one": (
        {"kind": "corrupt", "targets": ["hmi:0"], "params": {"probability": 1.5}},
        r"corrupt.*probability"),
    "negative loss": (
        {"kind": "dos", "targets": ["replica:1"], "params": {"extra_loss": -0.1}},
        r"dos.*extra_loss"),
    "negative delay": (
        {"kind": "delay_spike", "targets": ["hmi:0"], "params": {"extra_ms": -1.0}},
        r"delay_spike.*extra_ms"),
    "a value that is not a number": (
        {"kind": "slow_node", "targets": ["replica:1"],
         "params": {"extra_delay_ms": "50"}},
        r"slow_node.*extra_delay_ms"),
}


@pytest.mark.parametrize("rule", sorted(BAD_ACTIONS))
def test_scenario_file_breaking_a_rule_is_rejected_at_load(rule):
    action, complaint = BAD_ACTIONS[rule]
    action = {"start_ms": 10.0, "duration_ms": 20.0, **action}
    with wall_clock_guard(5.0):
        with pytest.raises(ValueError, match=complaint):
            replay_scenario(scenario_with(action))


def test_every_generated_and_pinned_action_passes_the_boundary():
    actions = list(ALL_KINDS_SCHEDULE)
    for profile_name in PINNED_SCHEDULES:
        for seed in range(0, 200, 7):
            actions.extend(_draw(profile_name, seed))
    assert {action.kind for action in actions} == set(FAULT_KINDS)
    for action in actions:
        assert FaultAction.from_dict(action.to_dict()) == action
