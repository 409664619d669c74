"""Deterministic discrete-event simulation substrate.

This package substitutes for the paper's physical testbed: a virtual-time
event loop (:class:`Simulator`), a point-to-point network model with
latency/jitter/loss/bandwidth and attack hooks (:class:`Network`), a process
abstraction with crash/recover semantics (:class:`Process`), and scenario
scripting (:class:`FailureInjector`). Structured event logging lives in
:mod:`repro.obs` (:class:`~repro.obs.EventLog`).
"""

from .engine import PeriodicTimer, SimulationError, Simulator, Timer
from .failures import CorruptedPayload, DosAttack, FailureInjector
from .network import LinkSpec, Network, NetworkStats
from .node import Process

__all__ = [
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
    "Timer",
    "CorruptedPayload",
    "DosAttack",
    "FailureInjector",
    "LinkSpec",
    "Network",
    "NetworkStats",
    "Process",
]
