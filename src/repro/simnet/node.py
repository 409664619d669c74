"""Process abstraction: anything with a name that sends/receives messages.

Every component of the reproduced system — Prime replicas, Spines overlay
daemons, RTU proxies, RTUs, HMIs, attacker processes — subclasses
:class:`Process`. The base class wires the process into the simulator and
the network and provides crash/recover semantics used by the proactive
recovery and failure-injection machinery.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import PeriodicTimer, Simulator, Timer
from .network import Network

__all__ = ["Process"]


class Process:
    """A named process attached to a simulator and network.

    Crash semantics: while down, a process receives no messages and its
    timers do not fire (timers check :attr:`is_up` via :meth:`set_timer`'s
    wrapper). Recovery calls :meth:`on_recover`, where subclasses rebuild
    volatile state (this is what proactive recovery exercises).
    """

    def __init__(self, name: str, simulator: Simulator, network: Network) -> None:
        self.name = name
        self.simulator = simulator
        self.network = network
        self.is_up = True
        self._incarnation = 0
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        """Send a message; silently refuses while crashed."""
        if not self.is_up:
            return False
        return self.network.send(self.name, dst, payload, size_bytes)

    def on_message(self, src: str, payload: Any) -> None:
        """Handle an incoming message; the network calls it only while this
        process is up. Subclasses override."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, action: Callable[..., None], *args: Any) -> Timer:
        """Schedule an action that only fires if this incarnation is up.

        A timer set before a crash never fires after recovery: recovery
        bumps the incarnation counter, modelling loss of volatile state.
        """
        incarnation = self._incarnation

        def guarded() -> None:
            if self.is_up and self._incarnation == incarnation:
                action(*args)

        return self.simulator.schedule(delay, guarded)

    def every(self, interval: float, action: Callable[..., None], jitter: float = 0.0) -> PeriodicTimer:
        """Periodic timer guarded by liveness/incarnation."""
        incarnation = self._incarnation

        def guarded() -> None:
            if self.is_up and self._incarnation == incarnation:
                action()

        return self.simulator.call_every(
            interval, guarded, jitter=jitter, rng_name=f"periodic/{self.name}"
        )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the process down; in-flight timers are invalidated."""
        if not self.is_up:
            return
        self.is_up = False
        self._incarnation += 1
        self.on_crash()

    def recover(self) -> None:
        """Bring the process back up with fresh volatile state."""
        if self.is_up:
            return
        self.is_up = True
        self._incarnation += 1
        self.on_recover()

    def on_crash(self) -> None:
        """Hook invoked when the process crashes. Subclasses override."""

    def on_recover(self) -> None:
        """Hook invoked when the process recovers. Subclasses override."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "up" if self.is_up else "down"
        return f"<{type(self).__name__} {self.name} ({status})>"
