"""Architecture guards: keep the decomposition from regressing.

The PrimeNode monolith was decomposed into stage objects mounted on
``repro.replication`` (see DESIGN.md §8). These guards fail loudly if a
layer starts importing one that sits above it, or if protocol nodes stop
going through the shared runtime.
"""

import ast
import dataclasses
import inspect
import pathlib
import re
import subprocess

import pytest

import repro.pbft.node
import repro.prime.node
from repro.chaos import ChaosOptions, ChaosProfile
from repro.chaos.pbft import PbftChaosOptions
from repro.control import ControlOptions
from repro.core import BatchingOptions, SpireOptions
from repro.fleet.spec import FleetSpec, PollClass, RegionSpec, TrafficSpec
from repro.pbft.node import PbftConfig
from repro.prime.config import PrimeConfig
from repro.spines.monitor import LinkMonitorConfig

SRC = pathlib.Path(repro.prime.node.__file__).resolve().parents[2]


def _imports():
    """module name -> the ``repro`` modules its import statements name."""
    graph = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        targets = graph.setdefault(".".join(parts), set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                targets.add(module)
                # ``from . import x`` / ``from repro.prime import transport``
                targets.update(f"{module}.{alias.name}" for alias in node.names)
    return graph


def _layer(module: str) -> str:
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else ""


def _layers_imported_by(graph, layer: str) -> set:
    return {
        _layer(target)
        for module, targets in graph.items() if _layer(module) == layer
        for target in targets
    } - {"", layer}


def test_import_graph_keeps_its_layers():
    graph = _imports()
    # the shared runtime sits under both protocols, never on top of one
    assert not _layers_imported_by(graph, "replication") & {"prime", "pbft"}
    # the base layers import no other repro package
    for base in ("simnet", "crypto", "obs"):
        assert _layers_imported_by(graph, base) == set(), base
    # the re-export shim is gone and stays gone
    assert not any(
        target.startswith("repro.prime.transport")
        for targets in graph.values() for target in targets
    )
    assert "repro.prime.transport" not in graph


def test_both_nodes_mount_the_shared_runtime():
    for module in (repro.prime.node, repro.pbft.node):
        text = pathlib.Path(module.__file__).read_text()
        assert "ReplicationRuntime(" in text
        assert "Dispatcher(" in text


def test_protocol_packages_do_not_import_each_others_internals():
    # The shared substrate is repro.replication; prime must not reach
    # into pbft (pbft reuses prime's app/client-update helpers only).
    for path in (SRC / "repro" / "prime").glob("*.py"):
        assert "from ..pbft" not in path.read_text(), path


def test_agreement_and_view_change_are_written_once():
    # Vote recording and re-proposal derivation happen in the shared
    # core only; a protocol package that calls them has grown a twin.
    # (That the vote state is garbage-collected is tested by behaviour,
    # in test_replication_agreement.py.)
    shared = SRC / "repro" / "replication"
    for path in (SRC / "repro").rglob("*.py"):
        if shared in path.parents:
            continue
        text = path.read_text()
        for call in ("record_prepare(", "record_commit(", "derive_reproposals("):
            assert call not in text, (path, call)
    graph = _imports()
    for module in ("repro.pbft.node", "repro.prime.viewchange"):
        assert not any(
            target.endswith(".collect_valid_voters") for target in graph[module]
        ), module


def test_modbus_is_spoken_only_inside_scada():
    # One Modbus master (repro.scada.poller) and one server (RtuDevice):
    # a proxy that names a frame type or the codec has regrown a copy of
    # the polling state machine.
    scada = SRC / "repro" / "scada"
    names = (
        "ReadRequest", "ReadCoilsRequest", "WriteCoilRequest",
        "ReadResponse", "ReadCoilsResponse", "WriteCoilResponse",
        "encode_frame", "decode_frame", "RtuDevice.wrap",
    )
    for path in (SRC / "repro").rglob("*.py"):
        if scada in path.parents:
            continue
        text = path.read_text()
        for name in names:
            assert name not in text, (path, name)


def test_scada_sits_below_core():
    # the field layer hands back (binding, measurements, breakers) and
    # knows nothing of StatusReading, proxies or replicas
    assert _layers_imported_by(_imports(), "scada") <= {"simnet"}


def test_no_module_imports_networkx_or_numpy():
    # both are test-only references (tests/test_simnet_graph.py,
    # tests/test_obs_instruments.py); the runtime's graphs are
    # repro.simnet.graph
    named = {
        target.split(".")[0] for targets in _imports().values() for target in targets
    }
    assert not named & {"networkx", "numpy"}


_STDLIB_ONLY_RUN = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
from repro.chaos import ChaosEngine, ChaosOptions
from repro.core import SpireDeployment, SpireOptions
deployment = SpireDeployment(SpireOptions.lan(seed=1))
deployment.start()
deployment.run_for(2000)
assert deployment.hmis[0].collector.verified > 0
ChaosEngine(ChaosOptions(seed=101, chaos_ms=2000.0, settle_ms=1000.0)).run()
# the script itself, and multiprocessing's alias of it
loaded = {name.split(".")[0] for name in sys.modules} - {"__main__", "__mp_main__"}
print(*sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_the_runtime_runs_on_the_standard_library_alone():
    # ``-S`` leaves site-packages off sys.path: every module imports and a
    # deployment and a chaos run go through with nothing installed
    import sys

    run = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_ONLY_RUN, str(SRC)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["repro"]


def _string_constants(tree):
    """Every string literal of a module except docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant):
                docstrings.add(id(body[0].value))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def test_a_fault_kind_is_named_only_in_the_fault_table():
    # repro.chaos.faults holds one row per kind; a module that compares a
    # ``kind`` to a kind's name, spells a kind as a constant, or picks a
    # FailureInjector window per kind has regrown a ladder beside it.
    from repro.chaos.faults import FAULT_KINDS
    from repro.simnet import FailureInjector

    kinds = set(FAULT_KINDS)
    chaos = SRC / "repro" / "chaos"
    table = chaos / "faults.py"
    windows = {
        name for name, member in vars(FailureInjector).items()
        if callable(member) and not name.startswith("_")
    }
    assert {"window", "crash_window", "reorder_window", "dos_node"} <= windows

    def names_a_kind(node):
        elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(
            isinstance(e, ast.Constant) and e.value in kinds for e in elements
        )

    def is_kind(node):
        return (isinstance(node, ast.Name) and node.id == "kind") or \
            (isinstance(node, ast.Attribute) and node.attr == "kind")

    for path in (SRC / "repro").rglob("*.py"):
        if path == table:
            continue
        tree = ast.parse(path.read_text())
        if chaos in path.parents:
            for node in ast.walk(tree):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    assert not (any(map(is_kind, operands))
                                and any(map(names_a_kind, operands))), \
                        (path, node.lineno)
        if path.name in ("engine.py", "generator.py", "pbft.py") \
                and path.parent == chaos:
            spelled = {c.value for c in _string_constants(tree)} & kinds
            assert not spelled, (path, spelled)
            called = {
                node.func.attr for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            } & windows
            assert not called, (path, called)
    # and the three public constants are views of the table, not literals
    import repro.chaos as chaos_pkg
    from repro.chaos import faults
    assert chaos_pkg.FAULT_KINDS is faults.FAULT_KINDS == tuple(faults.FAULTS)
    assert chaos_pkg.OVERLAY_FAULT_KINDS is faults.OVERLAY_FAULT_KINDS
    assert chaos_pkg.LEADER_FAULT_KINDS is faults.LEADER_FAULT_KINDS


def _calls_by_scope(tree):
    """``(innermost enclosing scope, called name)`` for every call in a
    module; a scope is ``Class.method``, ``function`` or ``<module>``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            found.append((".".join(scope) or "<module>", name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_a_chaos_run_is_built_and_judged_in_one_place():
    # One runner over a ChaosSystem: a second function that injects a
    # schedule, constructs a monitor or the oracle or builds a ChaosResult
    # is a second harness; a Violation built outside ``_flag`` bypasses the
    # counter; a second ``*fingerprint*`` function is a second formula.
    # This states structurally what a grep for the removed names could
    # only list. Safety has one judge, the oracle, and liveness one, the
    # liveness judge; two monitors remain.
    import repro.chaos.monitors as monitors

    monitor_classes = {name for name in monitors.__all__ if name.endswith("Monitor")}
    assert len(monitor_classes) == 2, sorted(monitor_classes)
    monitor_classes |= {"Oracle", "Liveness", "Verdict"}
    scopes = {"inject": set(), "monitor": set(), "ChaosResult": set(), "Violation": set()}
    fingerprints = []
    for path in sorted((SRC / "repro" / "chaos").glob("*.py")):
        tree = ast.parse(path.read_text())
        fingerprints += [
            f"{path.stem}.{node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "fingerprint" in node.name
        ]
        for scope, name in _calls_by_scope(tree):
            key = "monitor" if name in monitor_classes else name
            if key in scopes:
                scopes[key].add(f"{path.stem}.{scope}")
    runner = {"engine.run_chaos"}
    assert scopes["inject"] == runner
    assert scopes["monitor"] == runner
    assert scopes["ChaosResult"] == runner
    assert scopes["Violation"] == {
        "monitors._BaseMonitor._flag", "monitors.Violation.from_dict",
    }
    assert len(fingerprints) == 1, fingerprints


def _settable_defaults(cls):
    """Constructor-settable names of ``cls`` that carry a default."""
    if dataclasses.is_dataclass(cls):
        return [
            f.name for f in dataclasses.fields(cls)
            if f.init and (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)
        ]
    return [
        p.name for p in inspect.signature(cls.__init__).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def _init_order(cls):
    """The names ``cls(...)`` binds positional arguments to, in order."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]
    return list(inspect.signature(cls.__init__).parameters)[1:]


def _names_set_under(roots, option_classes):
    """Every name the code under ``roots`` sets: call keywords (which
    covers ``dataclasses.replace`` and ``dict(name=...)``), string keys of
    dict literals, and the fields an option class's positional arguments
    bind to. Option classes' own bodies are skipped, and ``name=x.name``
    is a pass-through of a value chosen elsewhere, not a caller varying
    it."""
    order = {cls.__name__: _init_order(cls) for cls in option_classes}
    names = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in order:
            return
        if isinstance(node, ast.Call):
            names.update(
                k.arg for k in node.keywords
                if k.arg and not (isinstance(k.value, ast.Attribute)
                                  and k.value.attr == k.arg)
            )
            owner = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for name, arg in zip(order.get(owner, ()), node.args):
                if isinstance(arg, ast.Starred):
                    break
                names.add(name)
        elif isinstance(node, ast.Dict):
            names.update(
                k.value for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            visit(ast.parse(path.read_text()))
    return names


#: option names only tests set, each with the reason a test cannot do
#: without it; everything else a test wants to vary is a class constant
KEPT_FOR_TESTS = {
    "SpireOptions.checkpoint_interval_seqs":
        "tests shorten a deployment's run to a stable checkpoint",
    "PrimeConfig.checkpoint_interval_seqs":
        "tests shorten a bare Prime cluster's run to a stable checkpoint",
    "PbftConfig.checkpoint_interval":
        "tests shorten a PBFT cluster's run to a stable checkpoint",
    "PrimeConfig.tat_slack_ms":
        "the computed suspect-leader delay bound makes it an experiment variable",
    "ChaosProfile.min_actions":
        "schedule_profile passes 3 through for Prime and 1 for the PBFT baseline",
    "ChaosProfile.max_actions":
        "schedule_profile passes 8 through for Prime and 3 for the PBFT baseline",
}


def test_every_option_is_set_by_some_caller():
    # A knob exists only where a caller varies it. The callers are the
    # program, its benchmarks and its examples: a defaulted option only
    # tests set has one exercised value and belongs on its class as a
    # constant, unless KEPT_FOR_TESTS says why a test needs it.
    classes = (SpireOptions, ChaosOptions, ChaosProfile, PbftChaosOptions,
               PrimeConfig, PbftConfig, ControlOptions, BatchingOptions,
               LinkMonitorConfig, FleetSpec, PollClass, RegionSpec, TrafficSpec)
    repo = SRC.parent
    set_by_program = _names_set_under(
        (SRC / "repro", repo / "benchmarks", repo / "examples"), classes)
    set_by_tests = _names_set_under((repo / "tests",), classes)
    total = 0
    test_only = {}
    for cls in classes:
        for name in _settable_defaults(cls):
            total += 1
            if name not in set_by_program:
                test_only[f"{cls.__name__}.{name}"] = name in set_by_tests
    print(f"settable option-class names with a default: {total}")
    # a position sets a field too: the e2e fleet workload's TrafficSpec
    assert "rate_per_s" in set_by_program
    unset = sorted(set(test_only) - set(KEPT_FOR_TESTS))
    assert not unset, f"{len(unset)} options only tests set, or none: {unset}"
    stale = sorted(name for name in KEPT_FOR_TESTS if not test_only.get(name))
    assert not stale, f"KEPT_FOR_TESTS names a caller or no test sets: {stale}"
    assert total <= 65


def test_every_committed_table_has_one_reporter():
    # A simulated number has one home, ``benchmarks/results/<name>.txt``,
    # and one command that regenerates it: the bench holding the single
    # ``reporter("<name>")`` call. Host-timed output (``*_report.*``,
    # sweeps of wall time) is never tracked there.
    repo = SRC.parent
    listing = subprocess.run(
        ["git", "ls-files", "benchmarks/results"],
        cwd=repo, capture_output=True, text=True,
    )
    if listing.returncode != 0 or not listing.stdout:
        pytest.skip("not a git checkout")
    written = [
        node.args[0].value
        for path in sorted((repo / "benchmarks").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "reporter"
        and node.args and isinstance(node.args[0], ast.Constant)
    ]
    for tracked in listing.stdout.split():
        path = pathlib.PurePosixPath(tracked)
        assert path.suffix == ".txt", f"{tracked}: only tables are tracked"
        assert written.count(path.stem) == 1, (
            f"{tracked} is written by {written.count(path.stem)} "
            f"reporter() calls, expected exactly one"
        )


#: the host clocks of :mod:`time`
_HOST_CLOCKS = frozenset({"perf_counter", "monotonic", "process_time", "time"})


def _host_clock_reads(tree):
    """The innermost enclosing scope of every reference to a host clock:
    ``time.<clock>`` and any name a ``from time import`` binds to one."""
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names if alias.name in _HOST_CLOCKS
    }
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr in _HOST_CLOCKS
                and isinstance(node.value, ast.Name) and node.value.id == "time") \
                or (isinstance(node, ast.Name) and node.id in bound):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_host_time_is_read_only_beside_a_run():
    # Instruments hold simulated time and counts; host time is measured
    # from outside, by the benchmarks/e2e ledger. Inside the program it
    # is read only where a run reports its own wall time next to its
    # results: a deployment's run_for, the chaos runner and the
    # campaign runner.
    allowed = {("core/deployment.py", "SpireDeployment.run_for"),
               ("chaos/engine.py", "run_chaos")}
    reads = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC / "repro").as_posix()
        if relative == "parallel/runner.py":
            continue
        reads.update((relative, scope) for scope in _host_clock_reads(ast.parse(path.read_text())))
    assert reads <= allowed, sorted(reads - allowed)
    assert reads == allowed, "a sanctioned clock read moved; update this guard"


#: names of deleted twins and of code that had no reader; none may return
_REMOVED = re.compile(
    r"delivery_batching|digest_version|strict_view_adoption|vc_retransmit_ms"
    r"|view_change_hardening|resolve_obs|for_trace|combine_robust\(|class DeliveryShare"
    r"|def _deliver_executed|mac_batch|bisect_mismatches|class PbftPrepare|class PbftCommit"
    r"|class PbftPrepared|class PbftNewView|class OrderingSlot|def _validate_prepared"
    r"|IdentityMemo|_ENCODE_MEMO|encode_cache_stats|_PollState|proxy_of_substation"
    r"|def register_proxy\b|def _proxy_for|driver_mode|class SpanRecorder|wall_now_fn"
    r"|def sign_batch|def threshold_sign_share_batch|def _filter_window|def crash_at\b"
    r"|def recover_at\b|def dos_window|def merge_snapshot|class MergedImage"
    r"|wall_ms|print_hotspots|wall_clock_hotspots|EndpointTable|process_by_id"
    r"|class TimedCrypto|overlay_queue_limit|control_overrides|monitor_config"
    r"|class SafetyMonitor|first_execution_times"
    r"|class Gauge|class _NullGauge|def gauge\b|\.gauge\(|def bind_obs\b|_obs_events"
    r"|_obs_scheduled|_drop_counters|_status_counter|_deliveries_counter|_g_started"
    r"|ProactiveRecoveryScheduler|staticmethod\(coverage_cutoffs\)"
    r"|def register\(self, instrument"
    r"|class CountingCrypto|class Counter\b|def counter\b|\.counter\(|_SendCounters"
    r"|BoundedDelayMonitor|RerouteBoundMonitor|ViewRecoveryMonitor|_quiet_intervals"
    r"|sender_field_check|_dispatch_slow|_sender_matches_signer"
)


def test_removed_twins_stay_removed():
    # A deleted name that reappears anywhere under src/ has regrown a
    # twin; identity-keyed memos (``id(``) stay out of crypto, the
    # ``trace=`` knob stays out of the package, and so does the
    # prime.transport shim. The chaos judges read outputs: none of them
    # replaces a component's ``restore`` or ``_execute_command``.
    crypto, chaos = SRC / "repro" / "crypto", SRC / "repro" / "chaos"
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for line_no, line in enumerate(text.splitlines(), 1):
            found = _REMOVED.search(line)
            assert found is None, f"{path}:{line_no}: {found.group(0)}"
            if crypto in path.parents:
                assert re.search(r"\bid\(", line) is None, f"{path}:{line_no}"
            assert "trace=" not in line, f"{path}:{line_no}"
        if chaos in path.parents:
            for node in ast.walk(ast.parse(text)):
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                assert not any(
                    isinstance(target, ast.Attribute)
                    and target.attr in ("restore", "_execute_command")
                    for target in targets
                ), f"{path}:{node.lineno}"
    assert not (SRC / "repro" / "prime" / "transport.py").exists()


def _class_identity_tests(tree):
    """Lines that test a value's class by identity: ``x.__class__ is X``,
    ``type(x) is not X`` and the like."""

    def names_a_class(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__class__") or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type" and len(node.args) == 1
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ) and any(names_a_class(side) for side in [node.left, *node.comparators]):
            yield node.lineno


def test_message_shape_is_decided_only_by_the_generated_checks():
    # repro.crypto.schema compiles one check per message class from its
    # annotations; a protocol, overlay or endpoint module that tests a
    # field's class by hand has regrown a ladder beside it. (The
    # provider's signature-value checks sit in repro.crypto.)
    found = [
        f"{path.relative_to(SRC / 'repro').as_posix()}:{line}"
        for package in ("spines", "core", "prime", "pbft", "replication")
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for line in _class_identity_tests(ast.parse(path.read_text()))
    ]
    assert found == [], found


def test_the_message_entry_is_touched_only_by_crypto():
    # A message's entry holds its encoding, its digest and the signature
    # values a provider has checked; RealCrypto and FastCrypto accept a
    # value found there without arithmetic. So only the module that makes
    # the entry and the one that checks signatures may name it: no
    # protocol or attack module can plant a value in it.
    entry_names = {"_ENTRY", "_entry_for", "_enc"}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    naming = sorted({
        path.relative_to(SRC / "repro").as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if entry_names.intersection(names(ast.parse(path.read_text())))
    })
    assert naming == ["crypto/encoding.py", "crypto/provider.py"], naming


def test_obs_decides_what_is_read_not_which_code_runs():
    # A count is kept whether obs is on or off; ``obs.enabled`` is read
    # outside repro.obs only where a sample would cost work with nobody
    # to read it: the daemons' hop and transit histograms and the
    # overlay's ``sent_at`` stamp.
    def names_obs(node):
        return getattr(node, "attr", getattr(node, "id", None)) == "obs"

    reads = sorted(
        path.relative_to(SRC / "repro").as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if path.relative_to(SRC / "repro").parts[0] != "obs"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
        and names_obs(node.value)
    )
    assert reads == ["spines/daemon.py", "spines/overlay.py"], reads


@pytest.mark.parametrize("judge", ["oracle.py", "liveness.py"])
def test_the_oracle_shares_no_code_with_the_system(judge):
    # An output judge judges the system, so it must not run the system's
    # code: the standard library and the grid model's types only.
    import sys

    tree = ast.parse((SRC / "repro" / "chaos" / judge).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import reaches into repro"
            imported.add(node.module)
    outside = {
        name for name in imported
        if name.split(".")[0] not in sys.stdlib_module_names and name != "repro.scada.grid"
    }
    assert imported and not outside, sorted(outside)


def _first_key_evictions(tree):
    """Lines that evict a container's first key by iterating to it:
    ``del X[next(iter(X))]`` or ``X.pop(next(iter(X)))``."""

    def first_key_of(node):
        # the source of ``X`` when ``node`` is ``next(iter(X))``
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "next" and len(node.args) == 1):
            inner = node.args[0]
            if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                    and inner.func.id == "iter" and len(inner.args) == 1):
                return ast.unparse(inner.args[0])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and first_key_of(target.slice) == ast.unparse(target.value)):
                    yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop" and len(node.args) == 1
                and first_key_of(node.args[0]) == ast.unparse(node.func.value)):
            yield node.lineno


def test_no_table_evicts_by_scanning_to_its_first_key():
    # A dict keeps deleted slots until it resizes, and iteration walks
    # them: ``next(iter(d))`` after k FIFO evictions scans k slots, so an
    # eviction costs O(k) in a full table. A bounded FIFO table keeps its
    # keys oldest first in a deque (or pops an OrderedDict) instead.
    found = [
        f"{path.relative_to(SRC / 'repro').as_posix()}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for line in _first_key_evictions(ast.parse(path.read_text()))
    ]
    assert found == [], found
    assert list(_first_key_evictions(ast.parse(
        "del seen[next(iter(seen))]\noffered.pop(next(iter(offered)))"))) == [1, 2]
