"""Attacks inside the overlay network.

Spines is itself a distributed system; the paper's threat model includes
compromised overlay daemons (dropping or delaying traffic they route, or
lying to the control plane). These helpers install such behaviours on
daemons. A client flooding the overlay needs no helper: daemons forward
at no modelled cost, so a flood costs honest traffic nothing.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..spines.daemon import SpinesDaemon

__all__ = [
    "compromise_daemon_drop_all",
    "compromise_daemon_drop_fraction",
    "compromise_daemon_delay",
    "RouteFlapAttacker",
]


def compromise_daemon_drop_all(daemon: SpinesDaemon) -> Callable[[], None]:
    """The daemon silently drops everything it should route."""

    def behavior(data, default_action):
        pass  # never forward, never deliver

    daemon.set_behavior(behavior)
    return lambda: daemon.set_behavior(None)


def compromise_daemon_drop_fraction(
    daemon: SpinesDaemon, fraction: float, seed: str = "drop"
) -> Callable[[], None]:
    """The daemon drops a fraction of traffic (a stealthier attack)."""
    rng = daemon.simulator.rng(f"overlay-attack/{daemon.name}/{seed}")

    def behavior(data, default_action):
        if rng.random() >= fraction:
            default_action()

    daemon.set_behavior(behavior)
    return lambda: daemon.set_behavior(None)


def compromise_daemon_delay(
    daemon: SpinesDaemon, delay_ms: float
) -> Callable[[], None]:
    """The daemon delays everything it routes (gray-hole latency attack)."""

    def behavior(data, default_action):
        daemon.set_timer(delay_ms, default_action)

    daemon.set_behavior(behavior)
    return lambda: daemon.set_behavior(None)


class RouteFlapAttacker:
    """A compromised daemon that attacks the *control plane* by lying in
    its hellos: alternately suppressing them (so its neighbours declare
    the links dead) and resuming them (so the links come back), forcing
    the overlay to recompute routes on every toggle.

    The control plane's flap damping is the defence: after ``max_flaps``
    transitions inside the flap window the abused links are suppressed
    (held down) and the route churn stops. Hellos are link-authenticated,
    so only a daemon *compromise* mounts this attack — an external
    attacker cannot.
    """

    def __init__(
        self,
        daemon: SpinesDaemon,
        period_ms: float = 400.0,
    ) -> None:
        if daemon.monitor is None:
            raise ValueError(
                "RouteFlapAttacker needs a self-healing overlay "
                "(daemon has no link monitor)"
            )
        self.daemon = daemon
        self.period_ms = period_ms
        self.flips = 0
        self._suppressing = False
        self._stop: Optional[Callable[[], None]] = None

    def start(self) -> None:
        self._stop = self.daemon.simulator.call_every(
            self.period_ms, self._flip,
            rng_name=f"route-flap/{self.daemon.name}",
        ).stop

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None
        self.daemon.monitor.set_hello_mutator(None)

    def _flip(self) -> None:
        self.flips += 1
        self._suppressing = not self._suppressing
        if self._suppressing:
            self.daemon.monitor.set_hello_mutator(lambda neighbor, hello: None)
        else:
            self.daemon.monitor.set_hello_mutator(None)
