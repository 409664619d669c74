"""Runner resolution and result normalization.

A *runner* executes one :class:`~repro.parallel.task.CampaignTask`
inside a worker process and returns something the pool can normalize
into a :class:`~repro.parallel.task.CampaignResult`. Builtin kinds cover
the two chaos harnesses; anything else is a ``"module:callable"`` import
path resolved in the worker (spawned children inherit ``sys.path``, so
paths registered by the parent — e.g. pytest's rootdir inserts — resolve
there too).

A runner callable takes ``(options, schedule)`` and returns either a
:class:`~repro.chaos.ChaosResult` (what both chaos harnesses return) or a
plain dict, which is stored verbatim as the result ``payload`` with
``ok``/``fingerprint``/``stats``/``violations``/``obs_snapshot`` keys
lifted out when present.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["BUILTIN_RUNNERS", "resolve_runner", "normalize_outcome"]


def _run_chaos(options: Any, schedule: Any) -> Any:
    from ..chaos.engine import ChaosEngine, ChaosOptions

    return ChaosEngine(options or ChaosOptions(), schedule).run()


def _run_pbft_chaos(options: Any, schedule: Any) -> Any:
    from ..chaos.pbft import run_pbft_chaos

    return run_pbft_chaos(options, schedule)


#: builtin campaign kinds; values are zero-import-cost factories so the
#: parent can validate a kind without paying for deployment imports.
BUILTIN_RUNNERS: Dict[str, Callable[[Any, Any], Any]] = {
    "chaos": _run_chaos,
    "pbft_chaos": _run_pbft_chaos,
}


def resolve_runner(kind: str) -> Callable[[Any, Any], Any]:
    """Resolve a runner kind to a callable.

    Builtin names win; otherwise ``kind`` must be a ``"module:callable"``
    path importable in the executing process.
    """
    builtin = BUILTIN_RUNNERS.get(kind)
    if builtin is not None:
        return builtin
    if ":" not in kind:
        raise ValueError(
            f"unknown runner kind {kind!r} (builtins: "
            f"{sorted(BUILTIN_RUNNERS)}; custom runners use 'module:callable')"
        )
    module_name, _, attr = kind.partition(":")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(
            f"runner {kind!r}: module {module_name!r} has no "
            f"attribute {attr!r}"
        ) from exc
    if not callable(fn):
        raise ValueError(f"runner {kind!r} is not callable")
    return fn


def normalize_outcome(
    outcome: Any,
) -> Tuple[bool, list, str, Dict[str, Any], Optional[Dict[str, Any]],
           Optional[Dict[str, Any]]]:
    """Flatten a runner's return value into CampaignResult fields.

    Returns ``(ok, violations, fingerprint, stats, obs_snapshot,
    payload)`` with violations rendered to dicts.
    """
    if isinstance(outcome, dict):
        payload = dict(outcome)
        ok = bool(payload.pop("ok", True))
        violations = payload.pop("violations", [])
        fingerprint = str(payload.pop("fingerprint", ""))
        stats = payload.pop("stats", {})
        obs_snapshot = payload.pop("obs_snapshot", None)
        return ok, list(violations), fingerprint, dict(stats), obs_snapshot, \
            payload or None

    return (
        outcome.ok,
        [violation.to_dict() for violation in outcome.violations],
        outcome.fingerprint,
        dict(outcome.stats),
        outcome.obs_snapshot,
        None,
    )
