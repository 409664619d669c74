"""Custom campaign runners used by ``test_parallel_campaign.py`` and
``test_chaos_tie_order.py``.

These live in a plain module (not a ``test_*`` file) so spawned workers
can import them by ``"campaign_runners:<name>"`` path — the tests dir is
on ``sys.path`` under pytest, and spawn children inherit the parent's
resolved ``sys.path``.
"""

from __future__ import annotations

import itertools
import os
import time


def tie_shuffled(permutation):
    """A :class:`Simulator` that orders events of equal ``(time,
    priority)`` by a draw from its own ``tie-order/<permutation>`` stream
    instead of by scheduling order. Keys stay unique — ``(draw,
    counter)`` — and no other stream is touched, so only the order of
    same-instant events moves."""
    from repro.simnet import Simulator

    class TieShuffledSimulator(Simulator):
        def __init__(self, seed=0):
            super().__init__(seed)
            draws = self.rng(f"tie-order/{permutation}")
            self._seq = ((draws.random(), n) for n in itertools.count())

    return TieShuffledSimulator


def tie_shuffled_chaos(options, schedule):
    """One chaos run of ``options["options"]`` (Prime for a
    ``ChaosOptions``, else the PBFT baseline) on a
    :func:`tie_shuffled` simulator, or on the engine's own when
    ``options["permutation"]`` is None."""
    import repro.chaos.pbft as pbft_harness
    import repro.core.deployment as spire_deployment
    from repro.chaos import ChaosEngine, ChaosOptions, run_pbft_chaos

    run_options, permutation = options["options"], options["permutation"]
    prime = isinstance(run_options, ChaosOptions)
    harness = spire_deployment if prime else pbft_harness
    engine_simulator = harness.Simulator
    if permutation is not None:
        harness.Simulator = tie_shuffled(permutation)
    try:
        if prime:
            return ChaosEngine(run_options, schedule).run()
        return run_pbft_chaos(run_options, schedule)
    finally:
        harness.Simulator = engine_simulator


def echo(options, schedule):
    """Deterministic payload derived from options; optional sleep.

    ``options`` is a plain dict: ``value`` keys the payload, ``delay_s``
    shuffles completion order under parallel execution, and the
    ``wall_runtime_s`` stat checks the host-key stripping path.
    """
    delay = options.get("delay_s", 0.0)
    if delay:
        time.sleep(delay)
    return {
        "ok": True,
        "fingerprint": f"echo-{options['value']}",
        "stats": {"value": options["value"], "wall_runtime_s": delay},
        "obs_snapshot": {
            "metrics": {"echo.calls": 1},
            "events": {"recorded": 2, "dropped": 0, "kinds": {"echo": 2}},
        },
    }


def crash(options, schedule):
    """Hard-kill the worker process (no Python-level cleanup)."""
    os._exit(23)


def hang(options, schedule):
    """Overrun any reasonable per-task deadline."""
    time.sleep(120.0)
    return {"ok": True}


def boom(options, schedule):
    raise ValueError("scripted runner failure")


def unpicklable(options, schedule):
    """Result payload that cannot cross the process boundary."""
    return {"ok": True, "closure": lambda: None}
