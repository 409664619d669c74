"""Per-layer cost ledger, taken from outside the program.

The traced round runs the timed horizon under ``cProfile``; this module
turns the resulting ``pstats`` table into one row per layer.  A layer is
a package under ``src/repro/`` (crypto split by module).  Time spent in
the standard library and in builtins — ``hashlib``, ``heapq``,
``dict.get``, dataclass-generated ``__init__`` — is charged to the layer
that called it, through the caller graph ``pstats`` keeps, so a layer's
``busy_s`` is what the process spent *on behalf of* that layer.

``cProfile`` taxes every Python call and no native work, so shares lean
towards call-heavy layers; ``trace.overhead_ratio`` says by how much the
traced horizon was slower.  Call counts, unlike times, repeat exactly.
"""

from __future__ import annotations

import importlib
import os
import pstats
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: the layers the ledger reports, in report order
LAYERS = (
    "simnet", "spines", "crypto.encoding", "crypto.merkle", "crypto.provider",
    "crypto.threshold", "prime", "replication", "core", "scada", "fleet",
    "obs", "chaos",
)
_CRYPTO_MODULES = {
    "encoding.py": "crypto.encoding",
    "merkle.py": "crypto.merkle",
    "threshold.py": "crypto.threshold",
    "rsa.py": "crypto.threshold",
}
#: packages folded into a reported layer
_FOLDED = {"control": "chaos", "attacks": "chaos"}
HARNESS = "harness"
UNATTRIBUTED = "unattributed"

FuncKey = Tuple[str, int, str]


def layer_of_file(filename: str, package_root: str, harness_root: str) -> Optional[str]:
    """The layer owning ``filename``; None for code outside the program
    (standard library, builtins, generated code)."""
    if filename.startswith(package_root + os.sep):
        parts = filename[len(package_root) + 1:].split(os.sep)
        if parts[0] == "crypto":
            return _CRYPTO_MODULES.get(parts[-1], "crypto.provider")
        package = parts[0] if len(parts) > 1 else "core"
        return _FOLDED.get(package, package)
    if filename.startswith(harness_root + os.sep):
        return HARNESS
    return None


class Ledger:
    """Self time and call counts per layer from one ``cProfile`` run."""

    def __init__(self, profiler, package_root: str, harness_root: str) -> None:
        self.stats: Dict[FuncKey, tuple] = pstats.Stats(profiler).stats
        self._roots = (package_root, harness_root)
        #: memo of _owners_of, one per weighting (edge field 3 = cumulative
        #: time, for seconds; field 0 = call count, for calls — so that
        #: call counts depend on no measured time, and are summed as exact
        #: fractions because pstats' row order differs from run to run)
        self._owners: Dict[int, Dict[FuncKey, Dict[str, Any]]] = {0: {}, 3: {}}
        self.busy_s: Dict[str, float] = {}
        self.py_calls: Dict[str, float] = {}
        self.total_calls = 0
        for func, (_cc, ncalls, tottime, _ct, callers) in self.stats.items():
            self.total_calls += ncalls
            layer = self._layer(func)
            if layer is not None or not callers:
                owner = {layer or UNATTRIBUTED: 1}
                self._charge(self.busy_s, owner, tottime)
                self._charge(self.py_calls, owner, ncalls)
                continue
            # foreign code: each caller edge carries the self time and
            # the calls this function spent on that caller's behalf
            edge_time = sum(edge[2] for edge in callers.values())
            for caller, (edge_calls, _ec, edge_tt, _ect) in callers.items():
                share = tottime * edge_tt / edge_time if edge_time else 0.0
                self._charge(self.busy_s, self._owners_of(caller, 3), share)
                self._charge(self.py_calls, self._owners_of(caller, 0), edge_calls)
        self.py_calls = {layer: float(calls) for layer, calls in self.py_calls.items()}
        self.total_s = sum(self.busy_s.values())

    def _layer(self, func: FuncKey) -> Optional[str]:
        return layer_of_file(func[0], *self._roots)

    @staticmethod
    def _charge(book: Dict[str, Any], owners: Dict[str, Any], amount: float) -> None:
        for layer, fraction in owners.items():
            book[layer] = book.get(layer, 0) + amount * fraction

    def _owners_of(self, func: FuncKey, weigh_by: int) -> Dict[str, Any]:
        """Which layers ``func`` works for, as fractions summing to 1;
        its callers are weighted by field ``weigh_by`` of their edges."""
        layer = self._layer(func)
        if layer is not None:
            return {layer: 1}
        memo = self._owners[weigh_by]
        known = memo.get(func)
        if known is not None:
            return known
        # a cycle through foreign code resolves to "unattributed"
        memo[func] = {UNATTRIBUTED: 1}
        callers = self.stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[weigh_by] for edge in callers.values())
        owners: Dict[str, Any] = {}
        if total:
            for caller, edge in callers.items():
                weight = edge[weigh_by]
                part = Fraction(weight, total) if isinstance(weight, int) else weight / total
                for owner, fraction in self._owners_of(caller, weigh_by).items():
                    owners[owner] = owners.get(owner, 0) + fraction * part
        else:
            owners = {UNATTRIBUTED: 1}
        memo[func] = owners
        return owners

    # ------------------------------------------------------------------
    def unattributed_share(self) -> float:
        """Everything not charged to a reported layer or the harness."""
        named = sum(self.busy_s.get(layer, 0.0) for layer in LAYERS + (HARNESS,))
        return 1.0 - named / self.total_s if self.total_s else 1.0

    def ncalls(self, functions: Iterable[Any]) -> int:
        """Total calls of the given function objects (each counted once)."""
        keys = set()
        for function in functions:
            function = getattr(function, "__func__", function)
            code = getattr(function, "__code__", None)
            if code is not None:
                keys.add((code.co_filename, code.co_firstlineno, code.co_name))
        return sum(self.stats[key][1] for key in keys if key in self.stats)

    def builtin_calls(self, fragment: str) -> int:
        """Calls of builtins whose printed name contains ``fragment``."""
        return sum(
            row[1] for (filename, _line, name), row in self.stats.items()
            if filename == "~" and fragment in name
        )


def public(path: str) -> List[Any]:
    """Resolve ``"package.module:Name.attr"`` to ``[object]``, or ``[]``
    when a later change has removed it — a missing name counts as zero
    calls instead of breaking the benchmark."""
    module_name, _, attribute_path = path.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for attribute in attribute_path.split("."):
            target = getattr(target, attribute)
    except (ImportError, AttributeError):
        return []
    return [target]


def _provider_methods(*names: str) -> List[Any]:
    """The named methods as defined directly on the concrete providers
    (the ``TimedCrypto`` wrapper and inherited defaults are skipped so a
    call is counted once)."""
    providers = public("repro.crypto:FastCrypto") + public("repro.crypto:RealCrypto")
    return [
        vars(provider)[name]
        for provider in providers for name in names if name in vars(provider)
    ]


def boundary_counts(ledger: Ledger) -> Dict[str, float]:
    """Work counts at layer boundaries: calls of named public functions."""
    encode = ledger.ncalls(public("repro.crypto.encoding:encode"))
    lookups = ledger.ncalls(
        public("repro.crypto.encoding:encode_cached")
        + public("repro.crypto.encoding:digest")
    )
    transport_sends = ledger.ncalls(
        public("repro.replication:OverlayTransport.send")
        + public("repro.replication:DirectTransport.send")
    )
    return {
        "crypto.provider.mac_calls": ledger.ncalls(_provider_methods("mac", "mac_batch")),
        "crypto.provider.check_mac_calls": ledger.ncalls(
            _provider_methods("check_mac", "check_mac_batch")
        ),
        "crypto.provider.sign_calls": ledger.ncalls(_provider_methods("sign", "sign_batch")),
        "crypto.provider.verify_calls": ledger.ncalls(
            _provider_methods("verify", "verify_batch")
        ),
        "crypto.threshold.share_calls": ledger.ncalls(
            _provider_methods("threshold_sign_share", "threshold_sign_share_batch")
        ),
        "crypto.threshold.combine_calls": ledger.ncalls(
            _provider_methods("threshold_combine")
        ),
        "crypto.encoding.encode_calls": encode,
        "crypto.encoding.memo_hit_ratio": (
            max(0.0, 1.0 - encode / lookups) if lookups else 0.0
        ),
        "crypto.merkle.root_calls": ledger.ncalls(public("repro.crypto:merkle_root")),
        "crypto.merkle.proof_calls": ledger.ncalls(public("repro.crypto:merkle_proof")),
        "crypto.merkle.verify_proof_calls": ledger.ncalls(
            public("repro.crypto:verify_merkle_proof")
        ),
        "crypto.sha256_calls": ledger.builtin_calls("sha256"),
        "prime.po_request_handlings": ledger.ncalls(
            public("repro.prime.preorder:PreOrderStage.on_po_request")
        ),
        "replication.transport_sends": transport_sends,
    }
