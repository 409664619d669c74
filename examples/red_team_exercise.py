#!/usr/bin/env python3
"""Red-team exercise: the same intrusion campaign against a traditional
SCADA stack and against Spire (reproducing the paper's resiliency test).

Against the traditional system, the attacker compromises the single SCADA
master host, inherits its field credential, and opens breakers until the
grid is dark. Against Spire, the attacker exploits one replica at a time
(diversity-gated), but ≤ f compromised replicas can neither forge
threshold-signed commands nor block service, and proactive recovery with
re-diversification keeps evicting it.

Run:  python examples/red_team_exercise.py
"""

from repro.attacks import SpireCampaign, TraditionalCampaign
from repro.baselines import TraditionalDeployment
from repro.chaos import Oracle
from repro.core import SpireDeployment, SpireOptions

RUN_MS = 40_000.0


def sparkline(values, width=50):
    if not values:
        return ""
    chars = "  ▁▂▃▄▅▆▇█"
    high = max(values) or 1.0
    step = max(1, len(values) // width)
    return "".join(chars[min(9, int(v / high * 9))] for v in values[::step])


def main() -> None:
    print("=== Phase 1: red team vs traditional SCADA (single master + "
          "hot standby) ===")
    traditional = TraditionalDeployment(num_substations=6, seed=21)
    campaign_t = TraditionalCampaign(
        traditional, breach_time_ms=8_000.0, sabotage_interval_ms=400.0,
    )
    # the output oracle flags every breaker write no ordered command justifies
    oracle = Oracle(lambda: traditional.simulator.now)
    oracle.watch_field(traditional.proxy.poller)
    traditional.start()
    campaign_t.start()
    traditional.run_for(RUN_MS)
    total = traditional.grid.total_load_mw()
    served = [load for _, load in campaign_t.result.served_load]
    print(f"  master compromised at t=8 s; {len(oracle.findings)} breaker "
          f"writes nobody ordered reached the field")
    print(f"  served load over time: {sparkline(served)}")
    print(f"  minimum served: {campaign_t.result.min_served_fraction(total):.0%} "
          f"of {total:.0f} MW  ->  GRID DOWN")

    print("\n=== Phase 2: the same red team vs Spire (f=1, diversity, "
          "proactive recovery) ===")
    # one replica rejuvenated every 2 s: on this schedule each intruder is
    # evicted before the next one lands, so at most f replicas are held
    spire = SpireDeployment(SpireOptions(
        num_substations=6, poll_interval_ms=250.0, seed=21,
        proactive_recovery=(2_000.0, 500.0),
    ))
    campaign_s = SpireCampaign(
        spire, first_attempt_ms=8_000.0, dwell_ms=5_000.0,
        attempt_interval_ms=5_000.0,
    )
    oracle = Oracle(lambda: spire.simulator.now)
    oracle.watch(spire.replicas, [*spire.hmis, spire.proxy])
    spire.start()
    campaign_s.start()
    spire.run_for(RUN_MS)
    total = spire.grid.total_load_mw()
    served = [load for _, load in campaign_s.result.served_load]
    result = campaign_s.result
    print(f"  exploit attempts: {len(result.attempted)}, "
          f"landed: {len(result.landed)}, "
          f"invalidated by re-diversification: {result.exploits_invalidated}")
    print(f"  currently compromised replicas: "
          f"{len(campaign_s.compromised)} (f={spire.options.f}, recovery keeps "
          f"evicting); breaker writes nobody ordered: {len(oracle.findings)}")
    print(f"  served load over time: {sparkline(served)}")
    print(f"  minimum served: {result.min_served_fraction(total):.0%} "
          f"of {total:.0f} MW  ->  SERVICE MAINTAINED")
    stats = spire.status_recorder.stats()
    print(f"  SCADA updates delivered throughout: {stats.count} "
          f"(mean latency {stats.mean:.1f} ms)")
    evictions = spire.obs.log.count(component="campaign", kind="evicted")
    print(f"  intrusions evicted by proactive recovery: {evictions}")


if __name__ == "__main__":
    main()
