"""Attacks inside the overlay network.

Spines is itself a distributed system; the paper's threat model includes
compromised overlay daemons (dropping or delaying traffic they route) and
malicious clients flooding the overlay. These helpers install such
behaviours on daemons and provide a flooding attacker endpoint for the
fairness experiment.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..simnet import Network, Process, Simulator
from ..spines.daemon import SpinesDaemon
from ..spines.overlay import OverlayStack, SpinesOverlay

__all__ = [
    "compromise_daemon_drop_all",
    "compromise_daemon_drop_fraction",
    "compromise_daemon_delay",
    "FloodingAttacker",
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


class FloodingAttacker(Process):
    """A compromised overlay client that floods traffic toward a victim,
    trying to exhaust daemon forwarding capacity. With per-source fairness
    enabled its traffic is confined to its own queue; with fairness off it
    head-of-line-blocks honest sources."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        overlay: SpinesOverlay,
        site: str,
        victim_endpoint: str,
        rate_per_ms: float = 2.0,
    ) -> None:
        super().__init__(name, simulator, network)
        self.stack: OverlayStack = overlay.attach(self, site)
        self.victim_endpoint = victim_endpoint
        self.rate_per_ms = rate_per_ms
        self.sent = 0
        self._stop: Optional[Callable[[], None]] = None

    def start(self) -> None:
        interval = 1.0 / self.rate_per_ms
        self._stop = self.every(interval, self._spam).stop

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _spam(self) -> None:
        self.sent += 1
        self.stack.send(
            self.victim_endpoint, ("flood", self.sent), size_bytes=1024
        )


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
