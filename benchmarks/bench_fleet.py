"""Fleet-scale saturation benchmark → ``BENCH_core.json`` ``fleet`` section.

Sweeps the hierarchical fleet generator (``repro.fleet``) over device
counts and records, per count:

* **saturation** — status updates/sim-second sustained through the full
  ordered pipeline, plus simulator events/wall-second;
* **memory ceiling** — peak RSS and live-object count, measured in an
  isolated subprocess per device count so the high-water marks don't
  contaminate each other.

Each sweep point runs ``--one N`` in a fresh interpreter (deterministic:
fixed seed). The CI smoke gate (``--smoke --check``) runs the 1k-device
point and compares it against the committed baseline. The throughput floor is ordered readings per wall-second
(``readings_submitted / run_wall_s``) — the work done, not the events it
took: a change that orders the same readings with fewer simulator events
lowers events/wall-s while the run gets faster. The floor is
host-calibrated by ``common.host_anchor`` (the frozen seed-implementation
engine, as in ``perf_core.py``), while the memory ceiling is a hard byte
limit — RSS does not scale with host speed. Every row must also be
``conserved``.

Usage::

    python benchmarks/bench_fleet.py                   # sweep + print
    python benchmarks/bench_fleet.py --record          # sweep + fig9 + write baseline
    python benchmarks/bench_fleet.py --smoke --check   # CI gate vs BENCH_core.json
    python benchmarks/bench_fleet.py --fig9            # n=31 replicas, 10k devices
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from common import (  # noqa: E402
    host_anchor,
    host_scale,
    load_bench,
    store_bench_section,
)

from repro.analysis import current_peak_rss  # noqa: E402
from repro.core import BatchingOptions, SpireDeployment, SpireOptions  # noqa: E402
from repro.fleet import FleetSpec  # noqa: E402

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_core.json")

#: (device_count, simulated ms) sweep points — windows shrink as counts
#: grow so the committed sweep stays a few minutes of wall clock
SWEEP = ((100, 3000.0), (1000, 3000.0), (5000, 2000.0), (10000, 2000.0))
SMOKE_DEVICES, SMOKE_SIM_MS = 1000, 1500.0
#: hard memory ceiling for the CI smoke point (1k devices); RSS is a
#: property of the code, not the host, so this is NOT host-calibrated
SMOKE_RSS_CEILING_BYTES = 512 * 1024 * 1024
FIG9_DEVICES, FIG9_SIM_MS = 10000, 500.0
SEED = 7


def fleet_options(devices: int, f: int = 1, k: int = 1) -> SpireOptions:
    """The benchmark configuration: WAN preset, delivery batching on
    (the realistic fleet posture after PR 7), observability off so the
    numbers are the system's, not the telemetry's."""
    return SpireOptions.wan(
        seed=SEED,
        f=f,
        k=k,
        fleet=FleetSpec.sized(devices),
        observability=False,
        batching=BatchingOptions(max_batch_size=64, max_batch_delay_ms=20.0),
        # flooding puts every datagram on every overlay link (~12 forwards
        # on this topology where a route takes 1-2), and at n=31 there are
        # 31 broadcasters; the scalability question is ordering cost, so
        # route shortest
        overlay_mode="shortest" if f > 2 else "flooding",
    )


def run_one(devices: int, sim_ms: float, f: int = 1, k: int = 1) -> dict:
    """Build + run one fleet scenario; returns the metrics row."""
    build_started = perf_counter()
    deployment = SpireDeployment(fleet_options(devices, f=f, k=k))
    deployment.start()
    build_s = perf_counter() - build_started
    collector = deployment.hmis[0].collector
    add_batch, distinct = collector.add_batch, set()

    def counting_add_batch(share):
        released = add_batch(share)
        distinct.update(record.key() for record, _ in released)
        return released

    collector.add_batch = counting_add_batch
    run_started = perf_counter()
    deployment.run_for(sim_ms)
    run_s = perf_counter() - run_started
    readings = sum(p.readings_submitted for p in deployment.region_proxies)
    commands = sum(p.commands_executed for p in deployment.region_proxies)
    materialized = sum(
        shard.materialized for shard in deployment.fleet_topology.regions
    )
    gc.collect()
    events = deployment.simulator.events_processed
    return {
        "devices": devices,
        "regions": len(deployment.region_proxies),
        "replicas": len(deployment.replicas),
        "sim_ms": sim_ms,
        "build_wall_s": round(build_s, 4),
        "run_wall_s": round(run_s, 4),
        "events": events,
        "events_per_wall_s": round(events / run_s, 1),
        "readings_submitted": readings,
        "updates_per_sim_s": round(readings / (sim_ms / 1000.0), 1),
        "hmi_verified_updates": deployment.hmis[0].status_updates_seen,
        "hmi_released_records": collector.verified,
        "hmi_distinct_records": len(distinct),
        "commands_executed": commands,
        "devices_materialized": materialized,
        "peak_rss_bytes": current_peak_rss(),
        "live_objects": len(gc.get_objects()),
    }


def run_isolated(devices: int, sim_ms: float, f: int = 1, k: int = 1,
                 emit=print) -> dict:
    """Run one sweep point in a fresh interpreter so peak-RSS high-water
    marks are per-point, not cumulative."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--one", str(devices), "--sim-ms", str(sim_ms),
        "--f", str(f), "--k", str(k),
    ]
    emit(f"  [{devices} devices] running isolated "
         f"({sim_ms:g} sim-ms, f={f}, k={k})...")
    proc = subprocess.run(
        command, capture_output=True, text=True, cwd=_ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"sweep point {devices} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------
def run_sweep(emit=print) -> dict:
    rows = {}
    for devices, sim_ms in SWEEP:
        row = run_isolated(devices, sim_ms, emit=emit)
        rows[str(devices)] = row
        emit(f"    {devices:>6} devices: "
             f"{row['updates_per_sim_s']:>8,.0f} updates/sim-s, "
             f"{row['events_per_wall_s']:>8,.0f} events/wall-s, "
             f"peak {row['peak_rss_bytes'] / 2**20:>6.1f} MiB, "
             f"{row['live_objects']:,} objects")
    return rows


# ----------------------------------------------------------------------
# Baseline record / CI gate
# ----------------------------------------------------------------------
def conserved(label: str, row: dict, emit=print) -> bool:
    """Host-independent facts of a row: the HMI verifies no more readings
    than the proxies submitted, and releases each record exactly once."""
    ok = True
    if row["hmi_verified_updates"] > row["readings_submitted"]:
        emit(f"  FAIL: {label}: HMI verified {row['hmi_verified_updates']} "
             f"status updates, proxies submitted only "
             f"{row['readings_submitted']}")
        ok = False
    if row["hmi_released_records"] != row["hmi_distinct_records"]:
        emit(f"  FAIL: {label}: HMI released {row['hmi_released_records']} "
             f"records but only {row['hmi_distinct_records']} distinct keys")
        ok = False
    return ok


def record(sweep: dict, smoke: dict, fig9: dict | None,
           calib: float, path: str, emit=print) -> bool:
    rows = {**sweep, "smoke": smoke, "fig9": fig9}
    verdicts = [conserved(k, row, emit) for k, row in rows.items() if row]
    if not all(verdicts):  # every broken row was reported first
        emit(f"fleet baseline NOT recorded: {path} unchanged")
        return False
    section = load_bench(path).get("fleet", {})
    section["sweep"] = sweep
    section["smoke_baseline"] = smoke
    section["seed_event_throughput"] = calib
    section["smoke_rss_ceiling_bytes"] = SMOKE_RSS_CEILING_BYTES
    if fig9 is not None:
        section["fig9"] = fig9
    store_bench_section(path, "fleet", section)
    emit(f"recorded fleet baseline -> {path}")
    return True


def readings_per_wall_s(row: dict) -> float:
    """Ordered readings per wall-second of a sweep row: the gated rate."""
    return row["readings_submitted"] / row["run_wall_s"]


def check(smoke: dict, calib: float, path: str, tolerance: float,
          emit=print) -> bool:
    fleet = load_bench(path).get("fleet", {})
    baseline = fleet.get("smoke_baseline")
    base_calib = fleet.get("seed_event_throughput")
    ceiling = fleet.get("smoke_rss_ceiling_bytes", SMOKE_RSS_CEILING_BYTES)
    if baseline is None or not base_calib:
        emit(f"ERROR: no committed fleet smoke baseline in {path}")
        return False
    ok = conserved("smoke", smoke, emit)
    expected = readings_per_wall_s(baseline) * host_scale(base_calib, calib, emit)
    floor = expected * (1.0 - tolerance)
    measured = readings_per_wall_s(smoke)
    emit(f"  ordered readings: {measured:,.0f}/wall-s vs normalized "
         f"baseline {expected:,.0f}/wall-s (floor {floor:,.0f}/wall-s)")
    if measured < floor:
        emit("  FAIL: fleet ordered-reading throughput regressed beyond "
             "tolerance")
        ok = False
    emit(f"  peak RSS: {smoke['peak_rss_bytes'] / 2**20:.1f} MiB vs hard "
         f"ceiling {ceiling / 2**20:.0f} MiB")
    if smoke["peak_rss_bytes"] > ceiling:
        emit("  FAIL: fleet memory ceiling exceeded")
        ok = False
    # the simulation itself is deterministic: the smoke point must order
    # exactly as many readings as the committed baseline did
    if smoke["readings_submitted"] != baseline["readings_submitted"]:
        emit(f"  FAIL: readings_submitted {smoke['readings_submitted']} != "
             f"baseline {baseline['readings_submitted']} (determinism or "
             f"behavior change — re-record the fleet baseline if intended)")
        ok = False
    else:
        emit(f"  determinism: {smoke['readings_submitted']} readings "
             f"submitted, exactly as baseline")
    emit("fleet check: " + ("OK" if ok else "REGRESSION DETECTED"))
    return ok


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", type=int, metavar="DEVICES",
                        help="run a single point and print JSON (internal)")
    parser.add_argument("--sim-ms", type=float, default=SMOKE_SIM_MS)
    parser.add_argument("--f", type=int, default=1)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 1k-device CI point")
    parser.add_argument("--fig9", action="store_true",
                        help="also run the n=31-replica, 10k-device point")
    parser.add_argument("--record", action="store_true",
                        help="write the baseline")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.35)
    parser.add_argument("--json", default=DEFAULT_OUTPUT)
    parser.add_argument("--out", help="write this run's raw JSON to PATH "
                                      "(CI artifact)")
    args = parser.parse_args(argv)

    if args.one is not None:
        print(json.dumps(run_one(args.one, args.sim_ms, f=args.f, k=args.k)))
        return 0

    emit = print
    results: dict = {}
    calib = host_anchor()
    emit(f"bench_fleet: host calibration {calib:,.0f} seed events/s")

    if args.record or not args.smoke:
        results["sweep"] = run_sweep(emit=emit)
    smoke = results["smoke"] = run_isolated(SMOKE_DEVICES, SMOKE_SIM_MS, emit=emit)
    emit(f"  1k smoke: {smoke['updates_per_sim_s']:,.0f} updates/sim-s, "
         f"{smoke['events_per_wall_s']:,.0f} events/wall-s, "
         f"peak {smoke['peak_rss_bytes'] / 2**20:.1f} MiB")

    fig9 = None
    if args.fig9:
        fig9 = run_isolated(FIG9_DEVICES, FIG9_SIM_MS, f=8, k=3, emit=emit)
        results["fig9"] = fig9
        emit(f"  fig9-style n={fig9['replicas']}: {fig9['readings_submitted']}"
             f" readings in {fig9['sim_ms']:g} sim-ms, "
             f"peak {fig9['peak_rss_bytes'] / 2**20:.1f} MiB")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.record and not record(results["sweep"], smoke, fig9, calib,
                                  args.json, emit=emit):
        return 1
    if args.check and not check(smoke, calib, args.json, args.tolerance,
                                emit=emit):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
