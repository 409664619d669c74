#!/usr/bin/env python3
"""Quickstart: bring up a complete Spire deployment and watch it work.

Builds the paper's canonical wide-area configuration — 6 SCADA-master
replicas (f=1 intrusion, k=1 recovering) spread over 2 control centers and
2 data centers, connected by a Spines overlay, supervising a small power
grid through an RTU proxy — runs it for 10 seconds of virtual time, issues
an operator command, and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.analysis import ScenarioReport
from repro.core import SpireDeployment, SpireOptions


def main() -> None:
    print("Building Spire deployment (6 replicas, 2 CC + 2 DC, 5 substations)...")
    deployment = SpireDeployment(SpireOptions.wan(
        num_substations=5,
        poll_interval_ms=200.0,   # each RTU polled 5x per second
        seed=42,
    ))
    deployment.start()

    print("Running 10 s of virtual time (RTU polling -> Prime ordering -> "
          "threshold-signed delivery)...")
    deployment.run_for(10_000)

    stats = deployment.status_recorder.stats()
    print(f"\nStatus updates delivered end-to-end: {stats.count}")
    print(f"  latency  mean={stats.mean:.1f} ms   median={stats.median:.1f} ms   "
          f"p99={stats.p99:.1f} ms   max={stats.maximum:.1f} ms")

    hmi = deployment.hmis[0]
    print(f"\nHMI view ({len(hmi.view)} substations):")
    for substation in sorted(hmi.view):
        reading = hmi.substation_status(substation)
        print(f"  {substation}: {reading.measurement('voltage_kv'):6.1f} kV, "
              f"{reading.measurement('flow_mw'):6.1f} MW, "
              f"energized={bool(reading.measurement('energized'))}")

    # operator opens a breaker; the command is signed, ordered by Prime,
    # threshold-signed by the replicas, verified at the proxy, and written
    # to the RTU over Modbus
    substation = sorted(deployment.grid.substations)[2]
    breaker = sorted(deployment.grid.substations[substation].breakers)[0]
    print(f"\nOperator opens breaker {breaker} at {substation}...")
    hmi.operate_breaker(substation, breaker, close=False, reason="quickstart")
    deployment.run_for(2_000)

    closed = deployment.grid.breaker_closed(substation, breaker)
    command_stats = deployment.command_recorder.stats()
    print(f"  breaker now closed={closed} "
          f"(command latency {command_stats.mean:.1f} ms)")
    print(f"  served load: {deployment.grid.served_load_mw():.1f} / "
          f"{deployment.grid.total_load_mw():.1f} MW")
    print(f"\nSimulated {deployment.simulator.now / 1000:.0f} s in "
          f"{deployment.simulator.events_processed} events. Done.")

    # the same numbers (and everything else the run measured: per-layer
    # counts, Spines transit latencies, per-message-kind counts,
    # structured events) in one aggregated report
    ScenarioReport.from_deployment(deployment, title="quickstart").render(print)


if __name__ == "__main__":
    main()
