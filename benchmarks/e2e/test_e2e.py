"""Tests of the benchmark itself (``pytest benchmarks/e2e -q``, < 60 s).

Everything runs with ``--quick`` horizons.  Not part of the tier-1 suite
(``pyproject.toml`` collects ``tests/`` only).
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import run  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(*arguments):
    """``run.py`` as the driver calls it; (exit status, last stdout line)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stderr


def test_contract_has_the_agreed_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert len(WORKLOADS) == 5
    names = WORKLOADS + [
        entry["name"] for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert len(CONTRACT["per_layer"]) <= 128
    setup = [e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < entry["bound"] <= 0.25 for entry in CONTRACT["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in CONTRACT["workloads"])


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced quick rounds of every workload, same seed."""
    return {
        name: [run.spawn(name, 5, trace=True, quick=True) for _ in range(2)]
        for name in WORKLOADS
    }


def test_every_declared_metric_is_printed_with_its_unit():
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        status, last, stderr = run_cli(
            "--workload", "lan_steady", "--seed", "5", "--seconds", "1",
            "--trace", trace, "--quick",
        )
        assert status == 0, stderr
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        expected = {entry["name"]: entry["unit"] for entry in CONTRACT[declared]}
        printed = {name: cell["unit"] for name, cell in last["metrics"].items()}
        assert printed == expected
        if declared == "end_to_end":
            assert all(cell["value"] > 0 for cell in last["metrics"].values())


def test_layer_shares_sum_to_one(traced_twice):
    for name, (first, _second) in traced_twice.items():
        metrics = run.per_layer(first, first, [])
        total = (
            sum(metrics[f"{layer}.busy_share"] for layer in ledger.LAYERS)
            + metrics["harness.busy_share"] + metrics["trace.unattributed_share"]
        )
        assert total == pytest.approx(1.0, abs=0.01), name
        assert metrics["trace.unattributed_share"] <= 0.05, name


def test_counts_and_simulated_metrics_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first["violations"] == [] and first["failed"] == 0, name
        assert first["sim"] == second["sim"], name
        assert first["counts"] == second["counts"], name
        assert first["sim_fingerprint"] == second["sim_fingerprint"], name
        if name == "chaos_leader_faults":
            # about one chaos round in ten makes ~200 more calls out of six
            # million with every simulated statistic identical (the program
            # iterates identity-hashed objects somewhere on the fault path)
            assert first["ledger"]["total_calls"] == pytest.approx(
                second["ledger"]["total_calls"], rel=1e-3
            )
            continue
        assert first["ledger"]["total_calls"] == second["ledger"]["total_calls"], name
        assert first["ledger"]["py_calls"] == second["ledger"]["py_calls"], name
        assert first["ledger"]["boundary"] == second["ledger"]["boundary"], name


def test_each_workload_exercises_its_layers(traced_twice):
    shares = {
        name: run.per_layer(pair[0], pair[0], []) for name, pair in traced_twice.items()
    }
    assert shares["lan_realcrypto"]["crypto.threshold.busy_share"] > 0.3
    assert shares["fleet_1k_batched"]["crypto.merkle.busy_share"] > 0.05
    assert shares["fleet_1k_batched"]["obs.busy_share"] < 0.01
    for name in WORKLOADS:
        merkle = shares[name]["crypto.merkle.root_calls"]
        assert (merkle > 0) == (name == "fleet_1k_batched"), name
    assert shares["wan_flood"]["spines.forwarded"] > 0
    assert shares["lan_steady"]["spines.forwarded"] == 0
    assert shares["chaos_leader_faults"]["chaos.monitor_checks"] > 0


def test_a_broken_run_exits_non_zero():
    status, last, stderr = run_cli(
        "--workload", "chaos_leader_faults", "--seed", "5", "--seconds", "1",
        "--trace", "0", "--quick", "--mutator", "mutants:weaken_proxy_gate",
    )
    assert status == 1
    assert last["correct"] is False
    assert "proxy-gate" in stderr


def test_it_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    lonely = tmp_path / "benchmarks" / "e2e"
    lonely.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md", ".json")):
            (lonely / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    done = subprocess.run(
        [sys.executable, str(lonely / "run.py"), "--workload", "lan_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _repro_names_used():
    """(module, name) pairs the benchmark's own files take from ``repro``:
    ``from repro.x import y`` and ``public("repro.x:Y.z")`` lookups."""
    used = set()
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py") or filename.startswith("test_"):
            continue
        with open(os.path.join(HERE, filename)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro") for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = re.fullmatch(r"(repro[\w.]*):(\w+)[\w.]*", node.value)
                if match:
                    used.add((match.group(1), match.group(2)))
    return used


def test_readme_lists_every_repro_name_the_benchmark_uses():
    with open(os.path.join(HERE, "README.md")) as handle:
        readme = handle.read()
    block = readme.split("<!-- repro-names -->")[1].split("<!-- /repro-names -->")[0]
    listed = set()
    for line in block.strip().splitlines():
        if ":" not in line or line.startswith("```"):
            continue
        module, _, names = line.partition(":")
        listed.update((module.strip(), name.strip()) for name in names.split(","))
    used = _repro_names_used()
    assert used == listed
    forbidden = {"repro.prime.transport"}
    assert not any(module in forbidden for module, _ in used)
    assert not any(name.startswith(("combine", "_")) for _, name in used)
