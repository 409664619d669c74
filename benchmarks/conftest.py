"""Benchmark collection setup and result-table reporting.

Each benchmark writes its regenerated paper table to
``benchmarks/results/<name>.txt`` (pytest's fd-level capture swallows
stdout even via ``sys.__stdout__``). The terminal-summary hook below runs
*after* capture ends and replays every table into the real terminal
output, so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
records them.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

_SESSION_START = time.time()
_RESULTS_DIR = os.path.join(_HERE, "results")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not os.path.isdir(_RESULTS_DIR):
        return
    fresh = [
        name for name in sorted(os.listdir(_RESULTS_DIR))
        if name.endswith(".txt")
        and os.path.getmtime(os.path.join(_RESULTS_DIR, name)) >= _SESSION_START - 1
    ]
    if not fresh:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write("REGENERATED PAPER TABLES / FIGURES (also in benchmarks/results/)")
    write("=" * 78)
    for name in fresh:
        write("")
        write(f"### {name}")
        with open(os.path.join(_RESULTS_DIR, name)) as handle:
            for line in handle.read().splitlines():
                write(line)

def pytest_addoption(parser):
    parser.addoption(
        "--chaos", action="store_true", default=False,
        help="run the long opt-in chaos sweep benchmarks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--chaos"):
        return
    import pytest

    skip_chaos = pytest.mark.skip(reason="opt-in chaos sweep: pass --chaos")
    for item in items:
        if "chaos" in item.keywords:
            item.add_marker(skip_chaos)
