"""Campaign-runner scaling benchmark → ``BENCH_core.json`` ``campaign`` section.

Measures the :mod:`repro.parallel` multiprocess campaign runner on the
chaos sweep: the same task list is executed at increasing worker counts
and, per count, records scenarios/sec, the speedup vs serial, and the
per-scenario wall p50/p99. Every run's merged report fingerprint must be
identical — the scaling curve is only meaningful because the results
byte-match at any worker count.

The CI gate (``--smoke --check``) is **host-calibrated**: GitHub runners
and laptops differ in core count, so the required speedup at ``w``
workers is ``min(2.5, 0.625 * min(w, cpus))`` scaled by the tolerance —
on a 4+-core host that is the ISSUE's ≥2.5× at 4 workers; on a
single-core host it degrades to "parallel overhead stays bounded". The
gate additionally asserts serial-vs-parallel fingerprint equality within
the run, and pins the smoke fingerprint against the committed baseline
when the interpreter minor version matches (the fingerprint is a pure
function of the task list per version).

Usage::

    python benchmarks/bench_campaign.py                  # smoke matrix + print
    python benchmarks/bench_campaign.py --full           # 200-scenario matrix
    python benchmarks/bench_campaign.py --record         # smoke matrix + write baseline
    python benchmarks/bench_campaign.py --smoke --check  # CI gate vs BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from common import load_bench, store_bench_section  # noqa: E402

from repro.chaos import ChaosOptions  # noqa: E402
from repro.parallel import run_campaign, seed_tasks  # noqa: E402

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_core.json")

#: compact scenario shape for the smoke matrix (matches the tier-1 suites)
SMOKE_SHAPE = dict(warmup_ms=500.0, chaos_ms=1000.0, settle_ms=500.0)
SMOKE_SCENARIOS = 24
SMOKE_WORKERS = (1, 2, 4)
#: the full matrix: the real 200-scenario sweep shape at 1/2/4/8 workers
FULL_SCENARIOS = 200
FULL_WORKERS = (1, 2, 4, 8)

#: per-core speedup slope used for host calibration: a w-worker run on a
#: cpus-core host is required to reach 0.625 * min(w, cpus), capped at
#: the ISSUE's 2.5x target (hit at 4 workers on 4+ cores)
SPEEDUP_SLOPE = 0.625
SPEEDUP_CAP = 2.5


def required_speedup(workers: int, cpus: int) -> float:
    return min(SPEEDUP_CAP, SPEEDUP_SLOPE * min(workers, cpus))


def campaign_tasks(smoke: bool):
    if smoke:
        return seed_tasks(
            "chaos", ChaosOptions(**SMOKE_SHAPE), range(SMOKE_SCENARIOS)
        )
    return seed_tasks("chaos", ChaosOptions(), range(FULL_SCENARIOS))


def run_matrix(smoke: bool, worker_counts, emit=print) -> dict:
    """Execute the task list once per worker count; returns the section."""
    tasks = campaign_tasks(smoke)
    rows = {}
    fingerprints = set()
    serial_rate = None
    for workers in worker_counts:
        started = perf_counter()
        report = run_campaign(tasks, workers=workers)
        wall = perf_counter() - started
        if not report.ok:
            raise RuntimeError(
                f"campaign violations/failures at workers={workers}: "
                f"{report.violation_counts} "
                f"{[f.to_dict() for f in report.failures]}"
            )
        rate = round(len(tasks) / wall, 3)
        if serial_rate is None:
            serial_rate = rate
        percentiles = report.wall_percentiles_ms()
        rows[str(workers)] = {
            "wall_s": round(wall, 3),
            "scenarios_per_sec": rate,
            "speedup": round(rate / serial_rate, 3),
            "per_scenario_wall_ms": percentiles,
        }
        fingerprints.add(report.fingerprint)
        emit(f"  workers={workers}: {wall:6.1f}s wall, {rate:6.2f} scen/s, "
             f"speedup x{rate / serial_rate:.2f}, per-scenario "
             f"p50 {percentiles['p50']:.0f} ms / p99 {percentiles['p99']:.0f} ms")
    if len(fingerprints) != 1:
        raise RuntimeError(
            f"merged report fingerprints diverged across worker counts: "
            f"{sorted(fingerprints)}"
        )
    return {
        "mode": "smoke" if smoke else "full",
        "scenarios": len(tasks),
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "fingerprint": next(iter(fingerprints)),
        "workers": rows,
    }


# ----------------------------------------------------------------------
# Baseline record / CI gate
# ----------------------------------------------------------------------
def check(section: dict, path: str, tolerance: float, emit=print) -> bool:
    baseline = load_bench(path).get("campaign")
    if baseline is None:
        emit(f"ERROR: no committed campaign baseline in {path}")
        return False
    ok = True
    cpus = section["cpus"]
    for workers, row in section["workers"].items():
        w = int(workers)
        if w == 1:
            continue
        required = required_speedup(w, cpus) * (1.0 - tolerance)
        emit(f"  workers={w}: speedup x{row['speedup']:.2f} vs required "
             f"x{required:.2f} (host-calibrated: {cpus} cpu(s))")
        if row["speedup"] < required:
            emit(f"  FAIL: campaign speedup at {w} workers below the "
                 f"calibrated floor")
            ok = False
    # serial-vs-parallel equality is checked inside run_matrix (a single
    # fingerprint across all worker counts); against the committed
    # baseline the fingerprint is compared only on the interpreter minor
    # version it was recorded on: the pin claims nothing about others
    same_minor = (
        platform.python_version_tuple()[:2]
        == tuple(baseline.get("python", "0.0").split(".")[:2])
    )
    comparable = same_minor and section["mode"] == baseline.get("mode")
    if comparable:
        if section["fingerprint"] != baseline["fingerprint"]:
            emit(f"  FAIL: merged campaign fingerprint "
                 f"{section['fingerprint'][:16]}… != committed "
                 f"{baseline['fingerprint'][:16]}… (determinism or behavior "
                 f"change — re-record the campaign baseline if intended)")
            ok = False
        else:
            emit(f"  determinism: merged fingerprint matches the committed "
                 f"baseline ({section['fingerprint'][:16]}…)")
    else:
        emit(f"  (fingerprint-vs-baseline skipped: baseline python "
             f"{baseline.get('python')}/{baseline.get('mode')} vs this run "
             f"{section['python']}/{section['mode']})")
    emit("campaign check: " + ("OK" if ok else "REGRESSION DETECTED"))
    return ok


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="compact scenario shape at workers 1/2/4 (CI)")
    parser.add_argument("--full", action="store_true",
                        help="the 200-scenario sweep at workers 1/2/4/8")
    parser.add_argument("--record", action="store_true",
                        help="write the baseline")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--json", default=DEFAULT_OUTPUT)
    parser.add_argument("--out", help="write this run's merged section to "
                                      "PATH (CI artifact)")
    args = parser.parse_args(argv)

    smoke = not args.full
    worker_counts = SMOKE_WORKERS if smoke else FULL_WORKERS
    emit = print
    emit(f"bench_campaign: {'smoke' if smoke else 'full'} matrix, "
         f"workers {worker_counts}, {os.cpu_count() or 1} cpu(s)")
    section = run_matrix(smoke, worker_counts, emit=emit)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.record:
        store_bench_section(args.json, "campaign", section)
        emit(f"recorded campaign baseline -> {args.json}")
    if args.check:
        if not check(section, args.json, args.tolerance, emit=emit):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
