"""The CI gates over ``BENCH_core.json``, driven as pure functions.

``perf_core.check`` and ``bench_fleet.check`` decide whether a measured
section regressed against the committed one; nothing else tests them, and
a gate that cannot fail is worse than none. Every case here is a
synthetic section: no simulation runs.
"""

import copy
import json
import os
import sys

import pytest

_BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
sys.path[:0] = [_BENCHMARKS, os.path.join(_BENCHMARKS, "perf")]
import bench_fleet  # noqa: E402
import common  # noqa: E402
import perf_core  # noqa: E402

PERF = {
    "event_throughput": 600_000.0,
    "seed_event_throughput": 200_000.0,
    "fig3_lan": {"wall_s": 1.0},
    "ordered_delivery": {
        "saturation_batch": 64,
        "speedup_at_saturation": 30.0,
        "updates_per_sec": {"1": 500.0, "64": 15_000.0},
    },
}

FLEET_ROW = {
    "readings_submitted": 3000,
    "run_wall_s": 2.0,
    "peak_rss_bytes": 90 * 2**20,
    "hmi_verified_updates": 3000,
    "hmi_released_records": 3003,
    "hmi_distinct_records": 3003,
}
FLEET = {
    "smoke_baseline": FLEET_ROW,
    "seed_event_throughput": 200_000.0,
    "smoke_rss_ceiling_bytes": 512 * 2**20,
}


def committed(tmp_path, **sections):
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(sections))
    return path


def changed(section, **fields):
    out = copy.deepcopy(section)
    out.update(fields)
    return out


def on_a_host_twice_as_fast(perf):
    out = copy.deepcopy(perf)
    for key in ("event_throughput", "seed_event_throughput"):
        out[key] *= 2
    out["fig3_lan"]["wall_s"] /= 2
    rates = out["ordered_delivery"]["updates_per_sec"]
    for batch in rates:
        rates[batch] *= 2
    return out


def test_host_scale_is_the_ratio_of_the_anchors():
    lines = []
    assert common.host_scale(200_000.0, 400_000.0, lines.append) == 2.0
    assert "×2.000" in lines[0]


@pytest.mark.parametrize("measured, verdict", [
    (PERF, True),
    # the same code on a faster host: every rate doubled with the anchor
    (on_a_host_twice_as_fast(PERF), True),
    # the anchor doubled and the code did not keep up: half the expected rate
    (changed(PERF, seed_event_throughput=400_000.0), False),
    (changed(PERF, event_throughput=300_000.0), False),
    (changed(PERF, fig3_lan={"wall_s": 2.0}), False),
    (changed(PERF, ordered_delivery=changed(
        PERF["ordered_delivery"], speedup_at_saturation=15.0)), False),
], ids=["same", "faster-host", "anchor-only", "half-throughput",
        "double-wall", "half-amortization"])
def test_perf_gate(tmp_path, measured, verdict):
    path = committed(tmp_path, smoke=PERF)
    assert perf_core.check(measured, True, path, 0.25, emit=lambda _: None) is verdict


def test_perf_gate_rejects_a_baseline_still_nested_under_phases(tmp_path):
    path = committed(tmp_path, smoke={"after": PERF, "before": PERF})
    lines = []
    assert not perf_core.check(PERF, True, path, 0.25, emit=lines.append)
    assert "--record" in lines[-1]


@pytest.mark.parametrize("row, calib, verdict", [
    (FLEET_ROW, 200_000.0, True),
    (changed(FLEET_ROW, run_wall_s=1.0), 400_000.0, True),
    (FLEET_ROW, 400_000.0, False),
    (changed(FLEET_ROW, run_wall_s=4.0), 200_000.0, False),
    (changed(FLEET_ROW, peak_rss_bytes=513 * 2**20), 200_000.0, False),
    (changed(FLEET_ROW, readings_submitted=3001), 200_000.0, False),
    (changed(FLEET_ROW, hmi_verified_updates=3001), 200_000.0, False),
    (changed(FLEET_ROW, hmi_released_records=3004), 200_000.0, False),
], ids=["same", "faster-host", "anchor-only", "half-throughput", "rss-ceiling",
        "other-readings", "verified-more-than-submitted", "released-twice"])
def test_fleet_gate(tmp_path, row, calib, verdict):
    path = committed(tmp_path, fleet=FLEET)
    assert bench_fleet.check(row, calib, path, 0.35, emit=lambda _: None) is verdict


def test_fleet_record_refuses_a_row_that_breaks_conservation(tmp_path):
    path = committed(tmp_path, fleet=FLEET)
    before = path.read_text()
    twice = changed(FLEET_ROW, hmi_released_records=3004)
    lines = []
    assert not bench_fleet.record(
        {"1000": FLEET_ROW, "5000": twice}, FLEET_ROW, None, 200_000.0, path,
        emit=lines.append,
    )
    assert path.read_text() == before
    assert "5000" in lines[0] and "3004" in lines[0]
    assert bench_fleet.record(
        {"1000": FLEET_ROW}, FLEET_ROW, None, 200_000.0, path,
        emit=lines.append,
    )
    assert json.loads(path.read_text())["fleet"]["sweep"] == {"1000": FLEET_ROW}
