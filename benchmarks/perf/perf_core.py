"""Hot-path microbenchmarks for the simulation core → ``BENCH_core.json``.

Three measurements, matching the three hot paths the PR-5 overhaul
targets:

* **event throughput** — a pure ``repro.simnet`` engine workload (periodic
  timers + one-shot churn with cancellations over a deep heap), reported
  as events/sec;
* **crypto ops/sec** — the replication-layer signing pattern (sign once,
  verify three times, MAC + check, digest twice, all on the same frozen
  message object) over ``repro.crypto.FastCrypto``;
* **fig3-LAN end-to-end** — the LAN leg of the fig3 benchmark (6 replicas,
  5 RTUs @ 10 Hz, flooding overlay), reported as wall seconds and
  simulator events/sec.

The first two are also run against ``seed_impl`` — a frozen copy of the
pre-overhaul code — because raw numbers do not transfer across machines
but the live/seed *ratio* on one host does: ``vs_seed`` is the speedup
any checkout can reproduce. The CI regression gate (``--check``) uses the
seed engine's rate to normalize the committed baseline to the current
host before applying its tolerance.

Usage::

    python benchmarks/perf/perf_core.py                  # run + print
    python benchmarks/perf/perf_core.py --record         # write baseline
    python benchmarks/perf/perf_core.py --smoke --check  # CI gate vs BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for path in (os.path.join(_ROOT, "src"), _HERE, os.path.dirname(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from common import (  # noqa: E402
    bench_event_throughput,
    host_anchor,
    host_scale,
    load_bench,
    store_bench_section,
)
from seed_impl import SeedFastCrypto, seed_digest  # noqa: E402

from repro.core import SpireDeployment, SpireOptions  # noqa: E402
from repro.core.collector import DeliveryCollector  # noqa: E402
from repro.core.update import (  # noqa: E402
    BatchDeliveryShare,
    batch_record_for,
)
from repro.crypto import FastCrypto, RealCrypto  # noqa: E402
from repro.crypto.encoding import digest  # noqa: E402
from repro.prime.messages import ClientUpdate  # noqa: E402
from repro.spines import lan_topology  # noqa: E402

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_core.json")

#: workload sizes: (event-throughput events, crypto messages, fig3 run ms,
#: ordered-delivery updates)
FULL_SIZES = (400_000, 5_000, 12_000.0, 512)
SMOKE_SIZES = (80_000, 1_200, 2_500.0, 128)

#: delivery batch sizes swept by the ordered-delivery bench
BATCH_SIZES = (1, 4, 16, 64)

#: repeat each measurement and keep the best (max throughput / min wall);
#: single samples on a shared host routinely swing ±20%
FULL_REPEATS = 3
SMOKE_REPEATS = 2
#: interleaved rounds of the ordered-delivery sweep (each size keeps its best)
ORDERED_ROUNDS = 9


# ----------------------------------------------------------------------
# Crypto ops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PerfMessage:
    """Stand-in for a Prime protocol message (same shape/field count)."""

    kind: str
    sender: str
    seq: int
    view: int
    payload: tuple


def bench_crypto_ops(messages: int, provider_kind: str = "live", repeats: int = 1) -> float:
    """Crypto ops/sec over the replication-layer usage pattern
    (best of ``repeats``; fresh provider and message batch each pass)."""
    best = 0.0
    for _ in range(repeats):
        if provider_kind == "live":
            provider, digest_fn = FastCrypto(seed="perf"), digest
        else:
            provider, digest_fn = SeedFastCrypto(seed="perf"), seed_digest
        batch = [
            _PerfMessage("po-request", f"replica:{i % 6}", i, i % 3, ("op", i, float(i)))
            for i in range(messages)
        ]
        ops = 0
        started = perf_counter()
        for message in batch:
            signature = provider.sign("replica:1", message)
            for _ in range(3):
                provider.verify(signature, message)
            tag = provider.mac("replica:1", "replica:2", message)
            provider.check_mac("replica:1", "replica:2", message, tag)
            digest_fn(message)
            digest_fn(message)
            ops += 8
        elapsed = perf_counter() - started
        best = max(best, ops / elapsed)
    return best


# ----------------------------------------------------------------------
# fig3-LAN end to end
# ----------------------------------------------------------------------
def bench_fig3_lan(run_ms: float, repeats: int = 1) -> dict:
    """Build + run the fig3 LAN leg; wall seconds and events/sec.

    The deployment (identical every pass — same seed, same virtual
    trace) is run ``repeats`` times and the fastest pass is reported."""
    best = None
    for _ in range(repeats):
        started = perf_counter()
        options = SpireOptions.lan(
            num_substations=5, poll_interval_ms=100.0,
            placement={"lan0": 6}, overlay_mode="flooding", seed=31,
        )
        deployment = SpireDeployment(options, topology=lan_topology(1))
        deployment.start()
        build_s = perf_counter() - started
        run_started = perf_counter()
        deployment.run_for(run_ms)
        run_s = perf_counter() - run_started
        events = deployment.simulator.events_processed
        result = {
            "wall_s": round(build_s + run_s, 4),
            "run_wall_s": round(run_s, 4),
            "sim_ms": run_ms,
            "events": events,
            "events_per_sec": round(events / run_s, 1),
            "status_mean_ms": round(deployment.status_recorder.stats().mean, 4),
        }
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    return best


# ----------------------------------------------------------------------
# Ordered-delivery throughput (batch-amortized threshold crypto)
# ----------------------------------------------------------------------
def _ordered_rate(updates: int, batch_size: int) -> float:
    """One timed pass of ``updates`` through the delivery pipeline in
    batches of ``batch_size``; returns updates/sec."""
    group = "perf-masters"
    players, threshold = 6, 2  # the paper's f=1, k=1 fleet: f+1 shares
    crypto = RealCrypto(seed="perf-ordered")
    crypto.create_threshold_group(group, players, threshold)
    collector = DeliveryCollector(crypto, group)
    pending = [
        ClientUpdate("proxy:field", i + 1, ("reading", i, float(i)))
        for i in range(updates)
    ]
    delivered = 0
    started = perf_counter()
    for po_seq, base in enumerate(range(0, updates, batch_size), 1):
        chunk = pending[base:base + batch_size]
        executed = [
            (update, base + j + 1, None)
            for j, update in enumerate(chunk)
        ]
        batch, entries = batch_record_for("origin#0", po_seq, executed)
        for index in range(1, threshold + 1):
            share = crypto.threshold_sign_share(group, index, batch)
            delivered += len(
                collector.add_batch(
                    BatchDeliveryShare(f"replica:{index}", batch, share, entries)
                )
            )
    elapsed = perf_counter() - started
    if delivered != updates:
        raise RuntimeError(f"batch={batch_size}: delivered {delivered} of {updates}")
    return updates / elapsed


def bench_ordered_delivery(
    updates: int, batch_sizes=BATCH_SIZES, repeats: int = 1
) -> dict:
    """Ordered-updates/sec through the real delivery pipeline, swept over
    delivery batch sizes.

    Exercises the code endpoints actually run — ``batch_record_for`` on
    the replica side (``threshold`` share signatures per batch) and
    ``DeliveryCollector.add_batch`` on the endpoint side (robust combine +
    verify, Merkle proof checks) — over ``RealCrypto``, where RSA share
    signing and combining dominate exactly as in a production deployment.
    Batch size 1 (singleton batches) is the per-update baseline; larger
    sizes amortize one threshold signature across the whole batch, leaving
    only hash-cost Merkle proofs per update.

    Each size reports its best pass, and the amortization ratio is the
    best saturated pass over the best B=1 one. The passes are interleaved,
    one of every size per round, over ``ORDERED_ROUNDS`` rounds: a load
    spike on a shared host then costs one pass of each size, not all of
    one size's, and the best of nine few-millisecond saturated passes is
    seldom a contended one.
    """
    rounds = max(repeats, ORDERED_ROUNDS)
    best = {size: 0.0 for size in batch_sizes}
    for _ in range(rounds):
        for size in batch_sizes:
            best[size] = max(best[size], _ordered_rate(updates, size))
    sweep = {str(size): round(rate, 1) for size, rate in best.items()}
    baseline = sweep[str(batch_sizes[0])]
    saturation = max(batch_sizes, key=lambda b: sweep[str(b)])
    return {
        "updates": updates,
        "updates_per_sec": sweep,
        "saturation_batch": saturation,
        "speedup_at_saturation": round(sweep[str(saturation)] / baseline, 3),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(smoke: bool, emit=print) -> dict:
    events, messages, run_ms, ordered = SMOKE_SIZES if smoke else FULL_SIZES
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    emit(f"perf_core: {'smoke' if smoke else 'full'} sizes "
         f"(events={events}, crypto_msgs={messages}, fig3_ms={run_ms:g}, "
         f"ordered_updates={ordered}, best of {repeats})")
    results = {}
    results["event_throughput"] = round(
        bench_event_throughput(events, "live", repeats), 1
    )
    emit(f"  event throughput (live) : {results['event_throughput']:>12,.0f} events/s")
    results["seed_event_throughput"] = host_anchor(events, repeats)
    emit(f"  event throughput (seed) : {results['seed_event_throughput']:>12,.0f} events/s")
    results["crypto_ops"] = round(bench_crypto_ops(messages, "live", repeats), 1)
    emit(f"  crypto ops (live)       : {results['crypto_ops']:>12,.0f} ops/s")
    results["seed_crypto_ops"] = round(bench_crypto_ops(messages, "seed", repeats), 1)
    emit(f"  crypto ops (seed)       : {results['seed_crypto_ops']:>12,.0f} ops/s")
    results["fig3_lan"] = bench_fig3_lan(run_ms, repeats=repeats)
    emit(f"  fig3-LAN e2e            : {results['fig3_lan']['wall_s']:.2f} s wall "
         f"({results['fig3_lan']['events_per_sec']:,.0f} sim events/s)")
    results["ordered_delivery"] = bench_ordered_delivery(ordered, repeats=repeats)
    for size in BATCH_SIZES:
        rate = results["ordered_delivery"]["updates_per_sec"][str(size)]
        emit(f"  ordered delivery B={size:<3}  : {rate:>12,.0f} updates/s")
    emit(f"  batch amortization      : ×"
         f"{results['ordered_delivery']['speedup_at_saturation']} at "
         f"B={results['ordered_delivery']['saturation_batch']}")
    results["vs_seed"] = {
        "event_throughput": round(
            results["event_throughput"] / results["seed_event_throughput"], 3
        ),
        "crypto_ops": round(results["crypto_ops"] / results["seed_crypto_ops"], 3),
    }
    emit(f"  live/seed ratios        : events ×{results['vs_seed']['event_throughput']}"
         f", crypto ×{results['vs_seed']['crypto_ops']}")
    return results


def check(results: dict, smoke: bool, path: str, tolerance: float, emit=print) -> bool:
    """Regression gate: compare against the committed baseline.

    The committed numbers come from a different machine, so the baseline
    is first rescaled by the seed-implementation ratio (same frozen code
    then and now → any ratio shift is the host, not the repo). After
    normalization, event throughput may not drop, nor fig3 wall time
    rise, by more than ``tolerance``.
    """
    mode = "smoke" if smoke else "full"
    baseline = load_bench(path).get(mode, {})
    if "seed_event_throughput" not in baseline:
        # absent, or still nested under a phase key such as ``after``
        emit(f"ERROR: no committed {mode} baseline in {path}: "
             f"write one with --record")
        return False
    scale = host_scale(
        baseline["seed_event_throughput"], results["seed_event_throughput"], emit
    )
    ok = True
    expected_events = baseline["event_throughput"] * scale
    floor = expected_events * (1.0 - tolerance)
    emit(f"  event throughput: {results['event_throughput']:,.0f} vs "
         f"normalized baseline {expected_events:,.0f} (floor {floor:,.0f})")
    if results["event_throughput"] < floor:
        emit("  FAIL: event throughput regressed beyond tolerance")
        ok = False
    expected_wall = baseline["fig3_lan"]["wall_s"] / scale
    ceiling = expected_wall * (1.0 + tolerance)
    emit(f"  fig3-LAN wall: {results['fig3_lan']['wall_s']:.2f}s vs "
         f"normalized baseline {expected_wall:.2f}s (ceiling {ceiling:.2f}s)")
    if results["fig3_lan"]["wall_s"] > ceiling:
        emit("  FAIL: fig3-LAN wall time regressed beyond tolerance")
        ok = False
    base_ordered = baseline.get("ordered_delivery")
    if base_ordered is not None and "ordered_delivery" in results:
        ordered = results["ordered_delivery"]
        # The amortization *ratio* is host-independent (same RSA cost in
        # numerator and denominator), so it gates unscaled; the batched
        # absolute throughput gates against the host-normalized baseline.
        batch = str(base_ordered["saturation_batch"])
        expected_rate = base_ordered["updates_per_sec"][batch] * scale
        rate_floor = expected_rate * (1.0 - tolerance)
        got_rate = ordered["updates_per_sec"].get(batch, 0.0)
        emit(f"  ordered delivery (B={batch}): {got_rate:,.0f} updates/s vs "
             f"normalized baseline {expected_rate:,.0f} (floor {rate_floor:,.0f})")
        if got_rate < rate_floor:
            emit("  FAIL: batched ordered throughput regressed beyond tolerance")
            ok = False
        speedup_floor = base_ordered["speedup_at_saturation"] * (1.0 - tolerance)
        emit(f"  batch amortization: ×{ordered['speedup_at_saturation']} vs "
             f"baseline ×{base_ordered['speedup_at_saturation']} "
             f"(floor ×{speedup_floor:.2f})")
        if ordered["speedup_at_saturation"] < speedup_floor:
            emit("  FAIL: batch amortization ratio regressed beyond tolerance")
            ok = False
    emit("perf check: " + ("OK" if ok else "REGRESSION DETECTED"))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workloads (~10s total)")
    parser.add_argument("--record", action="store_true",
                        help="write results into the JSON as the baseline")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; "
                             "exit 1 on regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for --check")
    parser.add_argument("--json", default=DEFAULT_OUTPUT,
                        help=f"baseline JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--out",
                        help="also write this run's raw measurements to PATH "
                             "(CI artifact; the committed baseline is untouched)")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    results = measure(smoke=args.smoke)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({mode: results}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.record:
        store_bench_section(args.json, mode, results)
        print(f"recorded {mode} -> {args.json}")
    if args.check:
        if not check(results, args.smoke, args.json, args.tolerance):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
