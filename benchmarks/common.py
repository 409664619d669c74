"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md
for paper-vs-measured results). Because ``pytest`` captures stdout, each
benchmark writes its table both to the real stdout (so it appears in
``pytest benchmarks/ --benchmark-only`` output) and to
``benchmarks/results/<name>.txt``: the one home of every simulated number
the docs quote. Host-timed numbers live only in ``BENCH_core.json``; the
seed-engine kernel that makes them comparable across hosts is here too.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter
from typing import Callable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_PERF_DIR = os.path.join(os.path.dirname(__file__), "perf")
if _PERF_DIR not in sys.path:
    sys.path.insert(0, _PERF_DIR)


def reporter(name: str) -> Callable[[str], None]:
    """Returns a print-like function writing to real stdout + results file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    open(path, "w").close()

    def emit(line: str = "") -> None:
        print(line, file=sys.__stdout__, flush=True)
        with open(path, "a") as handle:
            print(line, file=handle)

    return emit


def load_bench(path: str) -> dict:
    """The committed baseline file (``BENCH_core.json``), or ``{}``."""
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    return {}


def store_bench_section(path: str, name: str, section: dict) -> None:
    """Replace one top-level section of the baseline file, stamp the
    recording interpreter into ``meta`` and leave every other section as
    it was."""
    data = load_bench(path)
    data[name] = section
    data.setdefault("meta", {})["python"] = platform.python_version()
    data["meta"]["machine"] = platform.machine()
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _noop() -> None:
    pass


def _throughput_workload(sim) -> None:
    """Identical workload for the live and seed engines.

    Mirrors what a deployment does to the queue: a band of periodic
    timers (replica/hello/RTU cadences), a steady stream of one-shot
    timers of which half get cancelled (retransmission timers that the
    ack beats), and a deep backlog of far-future events so every push
    performs realistic heap comparisons.
    """
    for i in range(24):
        sim.call_every(0.5 + 0.25 * (i % 8), _noop, rng_name=f"perf/p{i}")
    for i in range(2_000):
        sim.schedule(1e6 + i, _noop)
    live = []

    def churn() -> None:
        if len(live) >= 40:
            for timer in live[::2]:
                timer.cancel()
            del live[:]
        live.append(sim.schedule(15.0, _noop))
        live.append(sim.schedule(25.0, _noop))

    sim.call_every(1.0, churn, rng_name="perf/churn")


def bench_event_throughput(events: int, engine: str = "live", repeats: int = 1) -> float:
    """Events/sec executing ``events`` events of the churn workload
    (best of ``repeats`` fresh simulators)."""
    from seed_impl import SeedSimulator

    from repro.simnet import Simulator

    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=1234) if engine == "live" else SeedSimulator(seed=1234)
        _throughput_workload(sim)
        started = perf_counter()
        sim.run(max_events=events)
        elapsed = perf_counter() - started
        best = max(best, events / elapsed)
    return best


def host_anchor(events: int = 80_000, repeats: int = 2) -> float:
    """Events/sec of the frozen seed-implementation engine on this host.

    Raw numbers do not transfer across machines, but ``seed_impl`` is the
    same code then and now: a shift between a recorded anchor and this
    one is the host's, not the repo's."""
    return round(bench_event_throughput(events, "seed", repeats), 1)


def host_scale(baseline: float, now: float, emit=print) -> float:
    """How much faster this host is than the one that recorded the
    ``baseline`` anchor; a committed rate times this is what the same
    code would measure here."""
    scale = now / baseline
    emit(f"  host speed vs baseline host: ×{scale:.3f} (seed-impl calibration)")
    return scale


def once(benchmark, fn):
    """Run a scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def write_scenario_report(name, deployment, title=None, extra=None):
    """Dump the run's full observability report next to the table.

    Writes ``results/<name>_report.json`` and ``.txt`` from the
    deployment's ``obs`` handle; returns the two paths, relative to the
    checkout so a table that quotes them reads the same anywhere.
    """
    from repro.analysis import ScenarioReport

    os.makedirs(RESULTS_DIR, exist_ok=True)
    report = ScenarioReport.from_deployment(
        deployment, title=title or name, extra=extra
    )
    paths = report.write(os.path.join(RESULTS_DIR, f"{name}_report"))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return tuple(os.path.relpath(path, root) for path in paths)
