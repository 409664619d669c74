"""The repo benchmark: five Spire workloads, measured from outside.

Two ways to call it.

**One workload** (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/e2e/run.py --workload wan_flood --seed 7 --seconds 15 --trace 0

measures fresh-interpreter rounds of that workload until ``--seconds``
have passed and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.

**All five** (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--sets K]
                                  [--check reference.json] [--out DIR] [--quick]

interleaves the workloads round-robin for ``R`` repeats, adds one traced
round each, and prints every metric by name with its unit.  ``--sets 2``
repeats the whole thing and prints how far the two sets drifted against
each bound; ``--check`` compares against recorded numbers.

Every round is a fresh child interpreter with ``PYTHONHASHSEED=0``, one
at a time.  Timing metrics are medians over rounds.  The exit status is
non-zero when any output is wrong: a chaos monitor fired, replicas
disagree, rounds of one seed differ in any simulated statistic, an update
was lost, the latency sample is too small for its percentile, or the
ledger cannot attribute 95 % of the time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import ledger as ledger_module
from calibrate import KERNEL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
CHILD = os.path.join(HERE, "child.py")

#: host-time metrics: medians over rounds; everything else in the
#: end-to-end list is simulated time and must be identical across rounds
HOST_METRICS = ("setup_s", "run_norm_s", "peak_rss_mib")
SIM_METRICS = ("update_latency_p50_ms", "update_latency_tail_ms", "updates_per_sim_s")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170
MAX_UNATTRIBUTED = 0.05
#: count metrics also reported per HMI-verified update
PER_UPDATE = (
    "simnet.events", "simnet.msgs_sent", "simnet.bytes_sent", "spines.forwarded",
    "crypto.provider.mac_calls", "crypto.encoding.encode_calls", "crypto.sha256_calls",
)


class ChildFailed(RuntimeError):
    """A round could not run at all (as opposed to running and being wrong)."""


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, trace: bool = False, quick: bool = False,
          mutator: Optional[str] = None) -> Dict[str, Any]:
    """Run one round in a fresh interpreter and return what it measured.
    ``setup_s`` runs from just before the spawn to the end of warm-up;
    it and ``run_norm_s`` are divided by the round's host-speed factor
    (see ``calibrate.py``)."""
    command = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--quick", str(int(quick)),
    ]
    if mutator:
        command += ["--mutator", mutator]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.time()
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload}: round exceeded {CHILD_TIMEOUT_S} s") from error
    if done.returncode != 0:
        raise ChildFailed(
            f"{workload}: round exited {done.returncode}\n{done.stderr.strip()}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    host = result["host"]
    # >1 on a slow host: both times are reported as on the reference host
    host["speed"] = statistics.mean(host["kernel_s"]) / KERNEL_REF_S
    host["setup_s"] = (host.pop("setup_done_at") - spawned_at) / host["speed"]
    host["run_norm_s"] = host["run_wall_s"] / host["speed"]
    return result


def rounds_for(workload: str, seed: int, seconds: float, quick: bool,
               mutator: Optional[str]) -> List[Dict[str, Any]]:
    """Untraced rounds until ``seconds`` have passed (at least MIN_ROUNDS)."""
    started = time.perf_counter()
    rounds: List[Dict[str, Any]] = []
    while len(rounds) < MIN_ROUNDS or (
        not quick and time.perf_counter() - started < seconds
    ):
        rounds.append(spawn(workload, seed, quick=quick, mutator=mutator))
    return rounds


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float]:
    """(first, third) quartile; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(rounds: List[Dict[str, Any]], violations: List[str]) -> Dict[str, float]:
    """Medians of the host-time metrics; the simulated ones from the first
    round, after checking every round of this seed agrees on them."""
    first = rounds[0]
    for index, other in enumerate(rounds[1:], start=2):
        if other["sim_fingerprint"] != first["sim_fingerprint"]:
            violations.append(f"round {index} differs from round 1 in simulated output")
    for result in rounds:
        violations.extend(result["violations"])
        if result["failed"]:
            violations.append(f"{result['failed']} of {result['attempted']} updates lost")
    metrics = {
        name: statistics.median(r["host"][name] for r in rounds)
        for name in HOST_METRICS
    }
    metrics.update({name: first["sim"][name] for name in SIM_METRICS})
    return metrics


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any],
              violations: List[str]) -> Dict[str, float]:
    """The ledger of one traced round, against its untraced twin."""
    if traced["sim_fingerprint"] != plain["sim_fingerprint"]:
        violations.append("tracing changed the simulated output")
    violations.extend(traced["violations"])
    book, counts, sim = traced["ledger"], traced["counts"], traced["sim"]
    total_s = book["total_s"] or 1.0
    metrics: Dict[str, float] = {}
    for layer in ledger_module.LAYERS:
        busy = book["busy_s"].get(layer, 0.0)
        metrics[f"{layer}.busy_s"] = busy
        metrics[f"{layer}.busy_share"] = busy / total_s
        metrics[f"{layer}.py_calls"] = book["py_calls"].get(layer, 0.0)
    updates = counts["hmi_status_seen"] or 1
    metrics.update({
        "harness.busy_share": book["busy_s"].get(ledger_module.HARNESS, 0.0) / total_s,
        "trace.unattributed_share": book["unattributed_share"],
        "trace.overhead_ratio": traced["host"]["run_norm_s"] / plain["host"]["run_norm_s"],
        "trace.py_calls": book["total_calls"],
        "trace.py_calls_per_update": book["total_calls"] / updates,
    })
    if book["unattributed_share"] > MAX_UNATTRIBUTED:
        violations.append(
            f"ledger left {book['unattributed_share']:.1%} of the time unattributed"
        )
    metrics.update(book["boundary"])
    for name in (
        "simnet.events", "simnet.msgs_sent", "simnet.bytes_sent", "spines.ingress",
        "spines.forwarded", "spines.dropped_dup", "spines.transit_ms_p50",
        "prime.view_changes", "core.deliveries_sent", "core.rejuvenations_completed",
        "scada.polls", "scada.commands_executed", "scada.devices_materialized",
        "obs.events_logged", "obs.events_dropped", "chaos.monitor_checks",
    ):
        metrics[name] = counts[name]
    forwarded = counts["spines.forwarded"]
    po_requests = metrics.pop("prime.po_request_handlings") / counts["replicas"]
    combines = metrics["crypto.threshold.combine_calls"]
    metrics.update({
        "spines.useful_forward_ratio": (
            1.0 - counts["spines.dropped_dup"] / forwarded if forwarded else 0.0
        ),
        "prime.po_requests": po_requests,
        "prime.updates_per_po_request": (
            counts["prime.executed"] / counts["replicas"] / po_requests
            if po_requests else 0.0
        ),
        "prime.msgs_sent": (
            metrics.pop("replication.transport_sends") - counts["core.deliveries_sent"]
        ),
        "core.updates_per_combine": (
            counts["endpoint_verified"] / combines if combines else 0.0
        ),
        "core.command_latency_p50_ms": sim["command_latency_p50_ms"],
        "core.service_gap_max_ms": sim["service_gap_max_ms"],
        "chaos.view_recovery_max_ms": sim["view_recovery_max_ms"],
        "process.live_objects": traced["host"]["live_objects"],
    })
    for name in PER_UPDATE:
        metrics[f"{name}_per_update"] = metrics[name] / updates
    return metrics


def with_units(metrics: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attach declared units; the computed and declared sets must match."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            "metrics computed and metrics declared in BENCHMARK.json differ: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    return {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }


# ----------------------------------------------------------------------
# One workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def run_one(args, contract: Dict[str, Any]) -> int:
    violations: List[str] = []
    if args.trace:
        plain = spawn(args.workload, args.seed, quick=args.quick, mutator=args.mutator)
        traced = spawn(args.workload, args.seed, trace=True, quick=args.quick,
                       mutator=args.mutator)
        metrics = with_units(per_layer(plain, traced, violations), contract["per_layer"])
        judged = traced
        if args.out:
            write_json(os.path.join(args.out, f"trace_{args.workload}.json"), traced)
    else:
        rounds = rounds_for(args.workload, args.seed, args.seconds, args.quick,
                            args.mutator)
        metrics = with_units(end_to_end(rounds, violations), contract["end_to_end"])
        judged = rounds[0]
        print(
            f"{args.workload}: {len(rounds)} rounds, p{judged['sim']['tail_percentile']:g} "
            f"tail over {judged['sim']['update_samples']} updates, "
            f"fingerprint {judged['sim_fingerprint'][:16]}, per round run_wall_s "
            f"{[round(r['host']['run_wall_s'], 3) for r in rounds]} host speed "
            f"{[round(r['host']['speed'], 3) for r in rounds]}",
            file=sys.stderr,
        )
    for violation in violations:
        print(f"VIOLATION {args.workload}: {violation}", file=sys.stderr)
    print(json.dumps({
        "correct": not violations,
        "attempted": max(1, judged["attempted"]),
        "failed": judged["failed"],
        "metrics": metrics,
    }))
    return 1 if violations else 0


# ----------------------------------------------------------------------
# All workloads: table, --sets, --check
# ----------------------------------------------------------------------
def run_set(names: List[str], seed: int, repeats: int, quick: bool,
            out: Optional[str]) -> Dict[str, Any]:
    """``repeats`` interleaved rounds of every workload plus one traced
    round each; returns per-workload summaries."""
    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"  round {repeat + 1}/{repeats} {name}", file=sys.stderr)
            rounds[name].append(spawn(name, seed, quick=quick))
    summary: Dict[str, Any] = {}
    for name in names:
        violations: List[str] = []
        first = rounds[name][0]
        cells = {}
        for metric, value in end_to_end(rounds[name], violations).items():
            if metric in HOST_METRICS:
                q1, q3 = quartiles([r["host"][metric] for r in rounds[name]])
                cells[metric] = {"median": value, "q1": q1, "q3": q3, "n": len(rounds[name])}
            else:  # exact under one seed: n is the latency sample behind it
                cells[metric] = {"median": value, "q1": value, "q3": value,
                                 "n": first["sim"]["update_samples"]}
        print(f"  traced round {name}", file=sys.stderr)
        traced = spawn(name, seed, trace=True, quick=quick)
        layers = per_layer(first, traced, violations)
        if out:
            write_json(os.path.join(out, f"trace_{name}.json"), traced)
        summary[name] = {
            "end_to_end": cells,
            "per_layer": layers,
            "tail_percentile": first["sim"]["tail_percentile"],
            "sim_fingerprint": first["sim_fingerprint"],
            "attempted": first["attempted"],
            "failed": first["failed"],
            "violations": violations,
        }
    return summary


def print_set(summary: Dict[str, Any], contract: Dict[str, Any]) -> None:
    units = {e["name"]: e["unit"] for e in contract["end_to_end"] + contract["per_layer"]}
    for name, row in summary.items():
        print(f"\n== {name}  (tail = p{row['tail_percentile']:g}, "
              f"{row['attempted']} updates attempted, {row['failed']} failed, "
              f"sim_fingerprint {row['sim_fingerprint'][:16]})")
        for metric, cell in row["end_to_end"].items():
            print(f"  {metric:<26} {cell['median']:>14.4f} {units.get(metric, '?'):<8} "
                  f"[q1 {cell['q1']:.4f}  q3 {cell['q3']:.4f}  n {cell['n']}]")
        print(f"  {'violations':<26} {len(row['violations']):>14d} count")
        for violation in row["violations"]:
            print(f"    VIOLATION {violation}")
        print("  layer                     busy_share     busy_s     py_calls")
        for layer in ledger_module.LAYERS:
            share = row["per_layer"][f"{layer}.busy_share"]
            if share >= 0.0005:
                print(f"  {layer:<24} {share:>10.1%} {row['per_layer'][f'{layer}.busy_s']:>10.3f} "
                      f"{row['per_layer'][f'{layer}.py_calls']:>12.0f}")
        for metric, value in row["per_layer"].items():
            layer, _, field = metric.rpartition(".")
            if layer not in ledger_module.LAYERS or field not in ("busy_s", "busy_share", "py_calls"):
                print(f"  {metric:<44} {value:>16.4f} {units.get(metric, '?')}")


def worse_by(entry: Dict[str, Any], new: float, old: float) -> float:
    """How much worse ``new`` is than ``old`` as a share of ``old``
    (negative = better), in the metric's own direction."""
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return change if entry["better"] == "lower" else -change


def compare(reference: Dict[str, Any], fresh: Dict[str, Any],
            contract: Dict[str, Any], title: str) -> int:
    """One row per (workload, end-to-end metric): ok / worse / unresolved."""
    print(f"\n{title}")
    print(f"  {'workload':<22}{'metric':<26}{'reference':>12}{'fresh':>12}"
          f"{'worse by':>10}{'bound':>8}  verdict")
    worse = 0
    for name, row in fresh.items():
        recorded = reference.get(name, {}).get("end_to_end", {})
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            if metric not in recorded:
                continue
            cell, old = row["end_to_end"][metric], recorded[metric]["median"]
            delta = worse_by(entry, cell["median"], old)
            spread = (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0
            if spread > entry["bound"]:
                verdict = "unresolved"
            elif delta > entry["bound"]:
                verdict, worse = "worse", worse + 1
            else:
                verdict = "ok"
            print(f"  {name:<22}{metric:<26}{old:>12.4f}{cell['median']:>12.4f}"
                  f"{delta:>+10.1%}{entry['bound']:>8.2f}  {verdict}")
        if row["sim_fingerprint"] != reference.get(name, {}).get("sim_fingerprint"):
            print(f"  {name:<22}sim_fingerprint differs: simulated behaviour changed")
    return worse


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args, contract: Dict[str, Any]) -> int:
    names = [entry["name"] for entry in contract["workloads"]]
    sets = []
    for index in range(args.sets):
        print(f"set {index + 1}/{args.sets}: seed {args.seed}, "
              f"{args.repeats} repeats x {len(names)} workloads", file=sys.stderr)
        sets.append(run_set(names, args.seed, args.repeats, args.quick, args.out))
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} repeats={args.repeats}")
    print_set(sets[-1], contract)
    bad = sum(len(row["violations"]) for one in sets for row in one.values())
    if len(sets) > 1:
        bad += compare(sets[0], sets[-1], contract,
                       "set 1 -> last set on the same code (drift against each bound)")
    if args.check:
        with open(args.check) as handle:
            reference = json.load(handle)["workloads"]
        bad += compare(reference, sets[-1], contract, f"recorded in {args.check} -> fresh")
    if args.out:
        write_json(os.path.join(args.out, "summary.json"), {
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "seed": args.seed, "repeats": args.repeats, "workloads": sets[-1],
        })
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="with --workload: keep starting rounds this long")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--check", metavar="REFERENCE_JSON")
    parser.add_argument("--out", metavar="DIR", help="write ledgers and a summary here")
    parser.add_argument("--quick", action="store_true", help="tiny horizons (tests)")
    parser.add_argument("--mutator", metavar="MODULE:FUNCTION",
                        help="test hook: weaken the chaos deployment before it runs")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.workload and args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        return run_one(args, contract) if args.workload else run_all(args, contract)
    except ChildFailed as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
