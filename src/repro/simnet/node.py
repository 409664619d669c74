"""Process abstraction: anything with a name that sends/receives messages.

Every component of the reproduced system — Prime replicas, Spines overlay
daemons, RTU proxies, RTUs, HMIs, attacker processes — subclasses
:class:`Process`. The base class wires the process into the simulator and
the network and provides the crash/recover semantics used by the proactive
recovery and failure-injection machinery.
"""

from __future__ import annotations

from typing import Any, Callable, List

from .engine import PeriodicTimer, Simulator, Timer
from .network import Network

__all__ = ["Process"]


class _Incarnation:
    """One life of a process: its periodic timers, and the flag its
    one-shot timers read."""

    __slots__ = ("up", "periodic")

    def __init__(self) -> None:
        self.up = True
        self.periodic: List[PeriodicTimer] = []

    def run(self, action: Callable[..., None], *args: Any) -> None:
        if self.up:
            action(*args)


class Process:
    """A named process attached to a simulator and network.

    A process lives in incarnations. :meth:`crash` ends one: the process
    receives nothing, its periodic timers stop (their queued tick is
    retracted) and its one-shot timers never fire. :meth:`recover` begins
    the next from clean state: :meth:`_fresh_state` (which ``__init__``
    calls too) builds every attribute not named :attr:`durable`, a started
    process re-arms (:meth:`_arm`), and :meth:`on_recover` does the rest.
    """

    #: attributes that survive a crash; a subclass adds its own
    durable = frozenset({"name", "simulator", "network", "is_up", "incarnation", "_started"})

    def __init__(self, name: str, simulator: Simulator, network: Network) -> None:
        self.name = name
        self.simulator = simulator
        self.network = network
        self.is_up = True
        #: how many times this process has recovered
        self.incarnation = 0
        self._started = False
        self._life = _Incarnation()
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
        """One-shot timer of this incarnation: it never fires after a crash."""
        return self.simulator.schedule(delay, self._life.run, action, *args)

    def every(self, interval: float, action: Callable[..., None], jitter: float = 0.0) -> PeriodicTimer:
        """Periodic timer of this incarnation, stopped when it ends."""
        timer = self.simulator.call_every(
            interval, action, jitter=jitter, rng_name=f"periodic/{self.name}"
        )
        life = self._life
        if life.up:
            life.periodic.append(timer)
        else:
            timer.stop()
        return timer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the timers, now and in every later incarnation; call once
        wiring is complete."""
        self._started = True
        self._arm()

    def _arm(self) -> None:
        """Arm this incarnation's timers. Subclasses override."""

    def _fresh_state(self) -> None:
        """Build the volatile state. Subclasses override, calling super."""

    def crash(self) -> None:
        """Take the process down, ending its incarnation."""
        if not self.is_up:
            return
        self.is_up = False
        self._life.up = False
        for timer in self._life.periodic:
            timer.stop()
        self.on_crash()

    def recover(self) -> None:
        """Bring the process back up as a fresh incarnation."""
        if self.is_up:
            return
        self.is_up = True
        self.incarnation += 1
        self._life = _Incarnation()
        self._fresh_state()
        if self._started:
            self._arm()
        self.on_recover()

    def on_crash(self) -> None:
        """Hook invoked when the process crashes. Subclasses override."""

    def on_recover(self) -> None:
        """Hook invoked once a recovered process is rebuilt and re-armed.
        Subclasses override."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "up" if self.is_up else "down"
        return f"<{type(self).__name__} {self.name} ({status})>"
