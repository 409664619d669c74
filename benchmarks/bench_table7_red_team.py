"""T7 — Red-team exercise outcome: traditional SCADA vs Spire.

Reproduces the paper's resiliency-exercise result as a table: the same
scripted intrusion campaign run against (a) a traditional single-master
SCADA system with hot standby, and (b) Spire with diversity and proactive
recovery. The paper reports the traditional configurations were
compromised (attacker operated the process), while Spire withstood the
full exercise with service intact.

One judge counts the unauthorized breaker operations of every row: the
output oracle (``repro.chaos.Oracle``), which flags each breaker write the
field sees that no ordered command justifies. The traditional system has
no ordered log, so every write its compromised master sends is one. Spire
tolerates f intrusions, so its 8 s-rejuvenation run is split at the
instant the campaign first holds more than f replicas. Rejuvenating every
2 s instead evicts each intruder before the next lands on this schedule,
so the campaign holds at most f for the whole run (EXPERIMENTS.md T7 says
why the period is set against the dwell and where 2 s stops sufficing).
"""

import math

from repro.analysis import print_table
from repro.attacks import SpireCampaign, TraditionalCampaign
from repro.baselines import TraditionalDeployment
from repro.chaos import Oracle
from repro.core import SpireDeployment, SpireOptions

from common import once, reporter

RUN_MS = 40_000.0
#: the only kind of finding a run of this table may produce
UNGATED = "ungated-field-command"


def run_traditional():
    traditional = TraditionalDeployment(num_substations=6, seed=21)
    campaign = TraditionalCampaign(
        traditional, breach_time_ms=8_000.0, sabotage_interval_ms=400.0,
    )
    oracle = Oracle(lambda: traditional.simulator.now)
    oracle.watch_field(traditional.proxy.poller)
    traditional.start()
    campaign.start()
    traditional.run_for(RUN_MS)
    return traditional, campaign, oracle


def run_spire(rejuvenation_ms: float):
    spire = SpireDeployment(SpireOptions(
        num_substations=6, poll_interval_ms=250.0, seed=21,
        proactive_recovery=(rejuvenation_ms, 500.0),
    ))
    campaign = SpireCampaign(
        spire, first_attempt_ms=8_000.0, dwell_ms=5_000.0,
        attempt_interval_ms=5_000.0,
    )
    oracle = Oracle(lambda: spire.simulator.now)
    oracle.watch(spire.replicas, [*spire.hmis, spire.proxy])
    spire.start()
    campaign.start()
    spire.run_for(RUN_MS)
    oracle.check_states(spire.replicas)
    return spire, campaign, oracle


def run_all():
    return run_traditional(), run_spire(8_000.0), run_spire(2_000.0)


def unauthorized(oracle, start: float = 0.0, end: float = math.inf) -> int:
    """The breaker writes ``oracle`` found unjustified in ``[start, end)``."""
    return sum(1 for kind, at, _ in oracle.findings
               if kind == UNGATED and start <= at < end)


def held(spire):
    """(time, replicas the campaign holds from then on), one per landing or
    eviction, read from the obs log."""
    count = 0
    for event in spire.obs.log.events("campaign", None):
        count += {"compromised": 1, "evicted": -1}.get(event.kind, 0)
        yield event.time, count


def row(system, deployment, campaign, oracle, start=0.0, end=math.inf):
    """The exploits ``campaign`` launched in ``[start, end)``, how many of
    them landed, and what reached the field in that interval."""
    result = campaign.result
    ops = unauthorized(oracle, start, end)
    served = result.min_served_fraction(deployment.grid.total_load_mw(), start, end)
    return [
        system,
        f"{start / 1000:.1f}-{min(end, RUN_MS) / 1000:.1f} s",
        sum(start <= at < end for at in result.attempted),
        sum(start <= at < end for at in result.landed),
        ops,
        f"{served:.0%}",
        "COMPROMISED" if ops else "SERVICE MAINTAINED",
    ]


def test_table7_red_team(benchmark):
    emit = reporter("table7_red_team")
    (traditional, campaign_t, oracle_t), (spire, campaign_s, oracle_s), \
        (rapid, campaign_r, oracle_r) = once(benchmark, run_all)
    f = spire.options.f
    beyond_f = next((at for at, count in held(spire) if count > f), math.inf)
    rows = [
        row("traditional (1 master + standby)", traditional, campaign_t, oracle_t),
        row(f"Spire (f={f}), 8 s rejuvenation, <= f held",
            spire, campaign_s, oracle_s, end=beyond_f),
        row(f"Spire (f={f}), 8 s rejuvenation, > f held",
            spire, campaign_s, oracle_s, start=beyond_f),
        row(f"Spire (f={f}), 2 s rejuvenation",
            rapid, campaign_r, oracle_r),
    ]
    emit("T7: identical intrusion campaign against every system "
         f"({RUN_MS / 1000:.0f} s, breach attempts from t=8 s, "
         "5 s exploit dwell)")
    print_table(
        "red-team exercise outcome",
        ["system", "interval", "exploit attempts", "landed",
         "unauthorized breaker ops", "min served load", "verdict"],
        rows,
        out=emit,
    )
    sent = traditional.primary.commands_issued
    dwell = campaign_s.dwell_ms
    emit("exploit attempts: those launched in the interval; landed: those of "
         f"them that landed, each {dwell / 1000:.0f} s after its launch, so an "
         f"attempt launched after {(RUN_MS - dwell) / 1000:.0f} s cannot land "
         "within the run")
    emit("unauthorized breaker ops: the breaker writes the output oracle "
         "found no ordered command for, in the interval")
    emit(f"traditional: the compromised master sent {sent} breaker commands; "
         f"the last is still in flight at {RUN_MS / 1000:.0f} s")
    for label, deployment in (("8 s", spire), ("2 s", rapid)):
        stats = deployment.status_recorder.stats()
        evicted = deployment.obs.log.count(component="campaign", kind="evicted")
        emit(f"Spire, {label} rejuvenation: {evicted} intrusions evicted by "
             f"proactive recovery; {stats.count} updates delivered at mean "
             f"{stats.mean:.1f} ms throughout the exercise")
    emit("paper reference: red team took control of the traditional "
         "configurations; Spire withstood the multi-day exercise")

    # the oracle is the only judge, and it finds nothing but ungated
    # breaker writes: every replica agrees with one sequential master
    for oracle in (oracle_t, oracle_s, oracle_r):
        assert {kind for kind, _, _ in oracle.findings} <= {UNGATED}
    assert oracle_s.executions_checked > 0 and oracle_r.executions_checked > 0
    # traditional: with no operator traffic, every breaker write that
    # reached the proxy is unjustified; all but the last command sent got there
    assert unauthorized(oracle_t) == traditional.proxy.poller.writes_confirmed
    assert unauthorized(oracle_t) == sent - 1 > 10
    assert campaign_t.result.min_served_fraction(
        traditional.grid.total_load_mw()) < 0.2
    # Spire, 8 s: nothing reaches the field while at most f replicas are
    # held; from the instant f+1 are, two colluding forgers reach the f+1
    # share threshold and exactly one write lands
    assert beyond_f < RUN_MS
    assert unauthorized(oracle_s, end=beyond_f) == 0
    assert unauthorized(oracle_s, start=beyond_f) == unauthorized(oracle_s) == 1
    # Spire, 2 s: the campaign never holds more than f, and the field sees
    # nothing nobody ordered
    assert max(count for _, count in held(rapid)) <= f
    assert campaign_r.result.landed
    assert oracle_r.findings == []
    for deployment, campaign in ((spire, campaign_s), (rapid, campaign_r)):
        total = deployment.grid.total_load_mw()
        assert campaign.result.min_served_fraction(total) > 0.95
        assert deployment.grid.served_load_mw() == total
        assert deployment.status_recorder.stats().count > 500
