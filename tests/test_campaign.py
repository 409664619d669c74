"""Red-team campaign tests: traditional SCADA falls, Spire stands."""

import pytest

from repro.attacks import SpireCampaign, TraditionalCampaign, make_silent
from repro.baselines import TraditionalDeployment
from repro.chaos import Oracle
from repro.core import SpireDeployment, SpireOptions


def test_traditional_campaign_takes_the_grid():
    deployment = TraditionalDeployment(num_substations=5, seed=4)
    campaign = TraditionalCampaign(
        deployment, breach_time_ms=2000.0, sabotage_interval_ms=200.0
    )
    oracle = Oracle(lambda: deployment.simulator.now)
    oracle.watch_field(deployment.proxy.poller)
    deployment.start()
    campaign.start()
    deployment.run_for(15_000)
    result = campaign.result
    assert result.attempted == result.landed == [2000.0]
    # nobody ordered anything, so every breaker write the field saw is the
    # attacker's, and the oracle flags each one
    kinds = [kind for kind, _, _ in oracle.findings]
    assert set(kinds) == {"ungated-field-command"}
    assert 10 < len(kinds) == deployment.proxy.poller.writes_confirmed
    total = deployment.grid.total_load_mw()
    assert result.min_served_fraction(total) < 0.2  # grid essentially dark
    # served load was full before the breach
    pre_breach = [load for at, load in result.served_load if at < 2000.0]
    assert min(pre_breach) == pytest.approx(total, rel=0.2)


def test_spire_campaign_service_survives():
    deployment = SpireDeployment(SpireOptions(
        num_substations=5, poll_interval_ms=250.0, seed=4,
        proactive_recovery=(8_000.0, 500.0),
    ))
    campaign = SpireCampaign(
        deployment,
        first_attempt_ms=2_000.0,
        dwell_ms=4_000.0,
        attempt_interval_ms=6_000.0,
    )
    deployment.start()
    campaign.start()
    deployment.run_for(40_000)
    result = campaign.result
    # attacker landed at most on a couple of replicas and recovery evicted
    assert len(result.attempted) >= 5
    # grid stayed fully served: no unauthorized operation ever executed
    total = deployment.grid.total_load_mw()
    assert result.min_served_fraction(total) > 0.95
    # status updates kept flowing end to end
    assert deployment.proxy.submissions.acked_total > 100
    # compromised replicas were eventually evicted by rejuvenation
    assert result.exploits_invalidated + len(campaign.compromised) \
        <= len(result.attempted)


class SilentCampaign(SpireCampaign):
    """The campaign, with intruders that only fall silent."""

    def intrude(self, replica):
        return [make_silent(replica)]


def test_spire_campaign_eviction_via_recovery():
    deployment = SpireDeployment(SpireOptions(
        num_substations=3, poll_interval_ms=250.0, seed=8,
        proactive_recovery=(5_000.0, 400.0),
    ))
    campaign = SilentCampaign(
        deployment,
        first_attempt_ms=1_000.0,
        dwell_ms=1_000.0,          # fast weaponization: compromises land
        attempt_interval_ms=4_000.0,
    )
    deployment.start()
    campaign.start()
    # up to 45 s, stopping at the first eviction
    evictions = 0
    while not evictions and deployment.simulator.now < 45_000:
        deployment.run_for(1_000)
        evictions = deployment.obs.log.count(component="campaign", kind="evicted")
    compromises = deployment.obs.log.count(component="campaign", kind="compromised")
    assert compromises >= 1
    assert evictions >= 1  # rejuvenation healed at least one intrusion


def test_rejuvenation_faster_than_the_dwell_keeps_the_campaign_within_f():
    # T7's 2 s-rejuvenation row, shortened: on this schedule each intruder
    # is evicted before the next one lands (not on every schedule: see
    # EXPERIMENTS.md T7, "Choosing the period")
    deployment = SpireDeployment(SpireOptions(
        num_substations=3, poll_interval_ms=500.0, seed=21,
        proactive_recovery=(2_000.0, 500.0),
    ))
    campaign = SpireCampaign(
        deployment, first_attempt_ms=2_000.0, dwell_ms=5_000.0,
        attempt_interval_ms=5_000.0,
    )
    oracle = Oracle(lambda: deployment.simulator.now)
    oracle.watch(deployment.replicas, [*deployment.hmis, deployment.proxy])
    deployment.start()
    campaign.start()
    deployment.run_for(20_000)
    oracle.check_states(deployment.replicas)
    held, most_held = 0, 0
    for event in deployment.obs.log.events("campaign", None):
        held += {"compromised": 1, "evicted": -1}.get(event.kind, 0)
        most_held = max(most_held, held)
    assert len(campaign.result.landed) >= 2
    assert most_held == deployment.options.f
    assert oracle.findings == []
    assert oracle.executions_checked > 0
