"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md
for paper-vs-measured results). Because ``pytest`` captures stdout, each
benchmark writes its table both to the real stdout (so it appears in
``pytest benchmarks/ --benchmark-only`` output) and to
``benchmarks/results/<name>.txt`` for later inspection.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Callable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def reporter(name: str) -> Callable[[str], None]:
    """Returns a print-like function writing to real stdout + results file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    handle = open(path, "w")

    def emit(line: str = "") -> None:
        print(line, file=sys.__stdout__, flush=True)
        print(line, file=handle, flush=True)

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


def once(benchmark, fn):
    """Run a scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def write_scenario_report(name, deployment, title=None, extra=None):
    """Dump the run's full observability report next to the table.

    Writes ``results/<name>_report.json`` and ``.txt`` from the
    deployment's ``obs`` handle; returns the two paths.
    """
    from repro.analysis import ScenarioReport

    os.makedirs(RESULTS_DIR, exist_ok=True)
    report = ScenarioReport.from_deployment(
        deployment, title=title or name, extra=extra
    )
    return report.write(os.path.join(RESULTS_DIR, f"{name}_report"))
