"""One measured round in a fresh interpreter (spawned by ``run.py``).

Prints one JSON object: host times, simulated-time statistics, counts,
the run's violations and — with ``--trace 1`` — the per-layer ledger.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--mutator", default=None)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program under test is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    mutator = None
    if args.mutator:
        module_name, _, function_name = args.mutator.partition(":")
        mutator = getattr(importlib.import_module(module_name), function_name)
    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
    result = workloads.run_round(
        args.workload, args.seed, quick=bool(args.quick),
        profiler=profiler, mutator=mutator,
    )
    if profiler is not None:
        import ledger as ledger_module

        ledger = ledger_module.Ledger(profiler, os.path.join(SRC, "repro"), HERE)
        result["ledger"] = {
            "busy_s": ledger.busy_s,
            "py_calls": ledger.py_calls,
            "total_s": ledger.total_s,
            "total_calls": ledger.total_calls,
            "unattributed_share": ledger.unattributed_share(),
            "boundary": ledger_module.boundary_counts(ledger),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
