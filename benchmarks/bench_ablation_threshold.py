"""A1 — Ablation: threshold signatures vs f+1 individual signatures at
the proxy (a design choice DESIGN.md calls out).

Spire threshold-signs ordered updates so endpoints verify one compact
signature. The alternative is shipping f+1 individual replica signatures
with every delivery. The bench compares the wire bytes and the proof an
endpoint must retain per delivered update, on real RSA threshold crypto
(correctness of the full path, not just the fast model). The CPU cost of
each scheme is host time: printed, never written to the table.
"""

import sys
import time

from repro.analysis import print_table
from repro.core import DeliveryRecord
from repro.crypto import RealCrypto

from common import once, reporter

DELIVERIES = 40
GROUP = "ablation"
F = 1
N = 6

#: rough wire sizes: a 512-bit RSA signature is 64 bytes + framing
SIG_BYTES = 80
SHARE_BYTES = 80


def record(seq):
    return DeliveryRecord("status", "proxy:x", seq, seq, ("reading", seq))


def run_threshold(crypto):
    started = time.perf_counter()
    verified = 0
    for seq in range(1, DELIVERIES + 1):
        rec = record(seq)
        shares = [
            crypto.threshold_sign_share(GROUP, index, rec)
            for index in range(1, F + 2)
        ]
        combined = crypto.threshold_combine(GROUP, rec, shares)
        assert combined is not None
        assert crypto.threshold_verify(combined, rec)
        verified += 1
    elapsed = time.perf_counter() - started
    # endpoint receives f+1 shares; forwards/stores ONE combined signature
    wire = (F + 1) * SHARE_BYTES
    stored = SIG_BYTES
    return elapsed / DELIVERIES * 1000.0, wire, stored, verified


def run_individual(crypto):
    started = time.perf_counter()
    verified = 0
    for seq in range(1, DELIVERIES + 1):
        rec = record(seq)
        signatures = [
            crypto.sign(f"replica:{i}", rec) for i in range(F + 1)
        ]
        assert all(crypto.verify(sig, rec) for sig in signatures)
        verified += 1
    elapsed = time.perf_counter() - started
    # endpoint receives, verifies, and must retain/forward f+1 signatures
    wire = (F + 1) * SIG_BYTES
    stored = (F + 1) * SIG_BYTES
    return elapsed / DELIVERIES * 1000.0, wire, stored, verified


def test_ablation_threshold_vs_individual(benchmark):
    emit = reporter("ablation_threshold")
    crypto = RealCrypto(seed="ablation", bits=512)
    crypto.create_threshold_group(GROUP, N, F + 1)

    def scenario():
        return run_threshold(crypto), run_individual(crypto)

    threshold_result, individual_result = once(benchmark, scenario)
    rows = [
        ["threshold RSA (Spire)", *threshold_result],
        [f"{F + 1} individual RSA sigs", *individual_result],
    ]
    emit(f"A1: delivery authentication, real 512-bit RSA, {DELIVERIES} "
         "deliveries, f=1")
    print_table(
        "threshold signatures vs individual signatures",
        ["scheme", "wire bytes", "bytes retained", "verified"],
        [[scheme, *counts] for scheme, _cpu_ms, *counts in rows],
        out=emit,
    )
    emit("property reproduced: both schemes put f+1 signature-sized "
         "messages on the wire, but what the endpoint retains/forwards "
         "(e.g. to auditors or downstream devices) is a single "
         "constant-size signature independent of f — the property Spire "
         "buys for its field devices.")
    for scheme, cpu_ms, *_ in rows:
        print(f"(host time, not recorded) {scheme}: {cpu_ms:.2f} cpu "
              "ms/delivery", file=sys.__stdout__, flush=True)
    assert threshold_result[3] == individual_result[3] == DELIVERIES
    assert threshold_result[2] < individual_result[2]  # constant-size proof
