"""View-change recovery benchmark → ``BENCH_core.json`` ``viewchange``.

Measures how fast leadership recovers from a leader kill: the latency
from the fault *firing* (against whoever leads at that instant) to a
**quorum** of replicas adopting a strictly higher view, as judged by the
:class:`~repro.chaos.liveness.Liveness` judge. Two protocols:

* **Prime** inside the full Spire deployment (``ChaosEngine`` with a
  pinned single ``leader_kill`` schedule);
* **PBFT** on the flat baseline cluster (``run_pbft_chaos`` with the
  same pinned schedule shape).

Each seeded run contributes one kill→adoption sample; the p50/p99 over
the seed sweep is the committed number. The run doubles as a gate: any
violation (no quorum adoption within B per view change, ordering stalled,
where B is computed from the protocol's timers; a safety/exactly-once
breach) fails the benchmark, and — simulated
milliseconds being exact — so does a full sweep whose summaries differ
from the committed ``viewchange`` block.

Usage::

    python benchmarks/bench_viewchange.py                 # full sweep, compared
    python benchmarks/bench_viewchange.py --smoke         # quick look, no compare
    python benchmarks/bench_viewchange.py --record        # write baseline
    python benchmarks/bench_viewchange.py --out viewchange_run.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"),):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from common import load_bench, store_bench_section  # noqa: E402

from repro.chaos import (  # noqa: E402
    ChaosEngine,
    ChaosOptions,
    FaultAction,
    FaultSchedule,
    PbftChaosOptions,
    run_pbft_chaos,
)

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_core.json")

#: Prime scenario shape (compact deployment, same as the tier-1 smoke)
PRIME_SHAPE = dict(
    warmup_ms=800.0,
    chaos_ms=3000.0,
    settle_ms=2000.0,
    poll_interval_ms=250.0,
    proactive_recovery=(5000.0, 400.0),
    leader_faults=True,
)
#: one leader kill, resolved at fire time, long enough to force a view
PRIME_SCHEDULE = FaultSchedule((FaultAction("leader_kill", 1500.0, 2000.0),))
PBFT_SCHEDULE = FaultSchedule((FaultAction("leader_kill", 2000.0, 2500.0),))

FULL_SEEDS = 40
SMOKE_SEEDS = 12


def percentile(samples: list, p: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1)))
    return ordered[int(index)]


def summarize(samples: list) -> dict:
    return {
        "samples": len(samples),
        "p50_ms": round(percentile(samples, 50), 3),
        "p99_ms": round(percentile(samples, 99), 3),
        "max_ms": round(max(samples), 3) if samples else None,
        "mean_ms": round(sum(samples) / len(samples), 3) if samples else None,
    }


def run_prime(seeds: int, emit) -> tuple[dict, list]:
    samples, failures = [], []
    for seed in range(seeds):
        options = ChaosOptions(seed=seed, **PRIME_SHAPE)
        result = ChaosEngine(options, schedule=PRIME_SCHEDULE).run()
        samples.extend(result.stats["view_recovery_latencies_ms"])
        if result.violations:
            failures.append((seed, [str(v) for v in result.violations]))
    emit(f"  prime: {seeds} seeds, {len(samples)} kill->adoption samples, "
         f"{len(failures)} failing seeds")
    return summarize(samples), failures


def run_pbft(seeds: int, emit) -> tuple[dict, list]:
    samples, failures = [], []
    for seed in range(seeds):
        result = run_pbft_chaos(PbftChaosOptions(seed=seed),
                                schedule=PBFT_SCHEDULE)
        samples.extend(result.stats["view_recovery_latencies_ms"])
        if result.violations:
            failures.append((seed, [str(v) for v in result.violations]))
    emit(f"  pbft:  {seeds} seeds, {len(samples)} kill->adoption samples, "
         f"{len(failures)} failing seeds")
    return summarize(samples), failures


def matches_committed(section: dict, path: str, emit) -> bool:
    """Compare this run's summaries with the committed baseline."""
    committed = load_bench(path).get("viewchange", {})
    same = True
    for protocol in ("prime", "pbft"):
        if section[protocol] != committed.get(protocol):
            same = False
            emit(f"FAIL: {protocol} differs from the viewchange block of {path}:")
            emit(f"  committed: {json.dumps(committed.get(protocol), sort_keys=True)}")
            emit(f"  this run:  {json.dumps(section[protocol], sort_keys=True)}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"quick sweep ({SMOKE_SEEDS} seeds/protocol), "
                             "not compared with the baseline")
    parser.add_argument("--record", action="store_true",
                        help="merge results into BENCH_core.json")
    parser.add_argument("--json", default=DEFAULT_OUTPUT)
    parser.add_argument("--out", help="also write this run's raw JSON here")
    args = parser.parse_args(argv)

    def emit(line: str = "") -> None:
        print(line, flush=True)

    seeds = SMOKE_SEEDS if args.smoke else FULL_SEEDS
    started = perf_counter()
    emit(f"view-change recovery sweep ({seeds} seeds per protocol)...")
    prime, prime_failures = run_prime(seeds, emit)
    pbft, pbft_failures = run_pbft(seeds, emit)
    wall = perf_counter() - started

    section = {
        "mode": "smoke" if args.smoke else "full",
        "seeds_per_protocol": seeds,
        "prime": prime,
        "pbft": pbft,
        "wall_s": round(wall, 1),
    }
    emit(f"prime p50/p99: {prime['p50_ms']}/{prime['p99_ms']} ms   "
         f"pbft p50/p99: {pbft['p50_ms']}/{pbft['p99_ms']} ms   "
         f"({wall:.0f}s wall)")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
            handle.write("\n")
        emit(f"raw results -> {args.out}")
    if args.record:
        store_bench_section(args.json, "viewchange", section)
        emit(f"recorded viewchange baseline -> {args.json}")

    failures = prime_failures + pbft_failures
    if failures:
        emit(f"FAIL: monitor violations in {len(failures)} run(s):")
        for seed, violations in failures:
            emit(f"  seed {seed}: {violations}")
        return 1
    if not prime["samples"] or not pbft["samples"]:
        emit("FAIL: sweep produced no recovery samples (vacuous run)")
        return 1
    if not args.smoke and not args.record and not matches_committed(
        section, args.json, emit
    ):
        return 1
    emit("view-change recovery gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
