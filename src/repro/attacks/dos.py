"""Network denial-of-service attack drivers.

The paper's network attacker floods replicas' links — most effectively the
current Prime leader's — to slow ordering. :class:`LeaderChaser` models
the adaptive version: it observes which replica currently leads (an
attacker on the network path can infer this from traffic patterns) and
re-targets the DoS after each view change.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..simnet import Network, Simulator

__all__ = ["LeaderChaser"]


class LeaderChaser:
    """Adaptive DoS: keeps the current leader's links degraded.

    ``leader_fn`` returns the current leader name (benchmarks pass the
    deployment's :meth:`current_leader`). Every ``retarget_interval_ms``
    the attack moves if the leadership moved. The chase is rate-limited by
    the interval, which models the attacker's detection lag — the window
    in which Prime delivers at normal latency after each view change.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        leader_fn: Callable[[], str],
        peers_fn: Callable[[str], List[str]],
        extra_delay_ms: float,
        extra_loss: float,
        retarget_interval_ms: float,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.leader_fn = leader_fn
        self.peers_fn = peers_fn
        self.extra_delay_ms = extra_delay_ms
        self.extra_loss = extra_loss
        self.retarget_interval_ms = retarget_interval_ms
        self._restores: List[Callable[[], None]] = []
        self._current_target: Optional[str] = None
        self._stop: Optional[Callable[[], None]] = None
        self.retargets = 0

    def start(self) -> None:
        self._retarget()
        self._stop = self.simulator.call_every(
            self.retarget_interval_ms, self._retarget, rng_name="leader-chaser"
        ).stop

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None
        self._release()
        self._current_target = None

    def _release(self) -> None:
        for restore in self._restores:
            restore()
        self._restores.clear()

    def _retarget(self) -> None:
        leader = self.leader_fn()
        if leader == self._current_target:
            return
        self._release()
        self._current_target = leader
        self.retargets += 1
        for peer in self.peers_fn(leader):
            self._restores.append(
                self.network.degrade_link(
                    leader, peer,
                    extra_delay_ms=self.extra_delay_ms,
                    extra_loss=self.extra_loss,
                )
            )
