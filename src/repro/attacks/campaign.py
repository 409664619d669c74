"""Red-team intrusion campaign (the paper's resiliency exercise).

The paper reports a multi-day red-team experiment: attackers with full
knowledge first compromised a traditional SCADA configuration and took
control of the process, then spent the remainder of the exercise failing
to break Spire. We reproduce the *measured outcome* with a scripted
campaign:

* **Against traditional SCADA** — the attacker compromises the (single
  point of failure) master host at ``breach_time``; from then on it holds
  the shared field credential and opens breakers at will. Damage shows up
  as shed load in the grid model.
* **Against Spire** — the attacker works through the replica set: for
  each replica it crafts an exploit against that replica's current
  software variant (diversity model), needs ``dwell_ms`` to weaponize it,
  and on success installs Byzantine behaviour. Proactive recovery
  re-randomizes variants, invalidating exploits in flight and evicting
  the attacker from rejuvenated replicas. The campaign respects no
  ``f``-bound by itself — the *system* has to keep the attacker below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..core.deployment import SpireDeployment
from ..core.update import BreakerCommand, DeliveryRecord
from ..obs import COMP_CAMPAIGN, EV_COMPROMISED, EV_EVICTED
from ..baselines.traditional import TraditionalDeployment
from .byzantine import make_delivery_forger, make_share_corruptor

__all__ = ["CampaignResult", "SpireCampaign", "TraditionalCampaign"]


@dataclass
class CampaignResult:
    """What the campaign did, over time.

    Whether anything it did reached the field is not the campaign's to
    say: :class:`repro.chaos.Oracle` judges every breaker write. What it
    held when is in the obs log (``EV_COMPROMISED``/``EV_EVICTED``).
    """

    #: (time_ms, served_load_mw) samples
    served_load: List[Tuple[float, float]] = field(default_factory=list)
    #: when each exploit attempt was launched
    attempted: List[float] = field(default_factory=list)
    #: when each exploit that landed was launched
    landed: List[float] = field(default_factory=list)
    exploits_invalidated: int = 0

    def min_served_fraction(
        self, total_mw: float, start: float = 0.0, end: float = math.inf,
    ) -> float:
        """The least served load sampled in ``[start, end)``, as a fraction."""
        loads = [load for at, load in self.served_load if start <= at < end]
        if not loads or total_mw <= 0:
            return 0.0
        return min(loads) / total_mw


class TraditionalCampaign:
    """Compromise the single master; operate the grid maliciously."""

    #: served-load sampling period of the result curve
    sample_interval_ms = 1000.0

    def __init__(
        self,
        deployment: TraditionalDeployment,
        breach_time_ms: float = 5000.0,
        sabotage_interval_ms: float = 1000.0,
    ) -> None:
        self.deployment = deployment
        self.breach_time_ms = breach_time_ms
        self.sabotage_interval_ms = sabotage_interval_ms
        self.result = CampaignResult()
        self._breakers: List[Tuple[str, str]] = [
            (substation, breaker_id)
            for substation in sorted(deployment.grid.substations)
            for breaker_id in sorted(deployment.grid.substations[substation].breakers)
        ]
        self._sabotage_index = 0

    def start(self) -> None:
        sim = self.deployment.simulator
        sim.call_every(self.sample_interval_ms, self._sample, rng_name="campaign-sample")
        sim.schedule_at(self.breach_time_ms, self._breach)

    def _sample(self) -> None:
        sim = self.deployment.simulator
        grid = self.deployment.grid
        self.result.served_load.append((sim.now, grid.served_load_mw()))

    def _breach(self) -> None:
        now = self.deployment.simulator.now
        self.result.attempted.append(now)
        self.result.landed.append(now)
        self.deployment.primary.compromise()
        self.deployment.simulator.call_every(
            self.sabotage_interval_ms, self._sabotage, rng_name="campaign-sabotage"
        )

    def _sabotage(self) -> None:
        """The attacker, holding the master's credential, opens breakers."""
        if not self._breakers:
            return
        substation, breaker_id = self._breakers[
            self._sabotage_index % len(self._breakers)
        ]
        self._sabotage_index += 1
        self.deployment.primary.issue_command(substation, breaker_id, close=False)


class SpireCampaign:
    """Work through Spire's replicas under diversity + proactive recovery."""

    #: same sampling period as :class:`TraditionalCampaign`, so the two
    #: served-load curves line up point for point
    sample_interval_ms = TraditionalCampaign.sample_interval_ms

    def __init__(
        self,
        deployment: SpireDeployment,
        first_attempt_ms: float = 5000.0,
        dwell_ms: float = 20_000.0,
        attempt_interval_ms: float = 10_000.0,
    ) -> None:
        self.deployment = deployment
        self.first_attempt_ms = first_attempt_ms
        self.dwell_ms = dwell_ms
        self.attempt_interval_ms = attempt_interval_ms
        self.result = CampaignResult()
        self.compromised: Dict[str, List[Callable[[], None]]] = {}
        self._next_target = 0
        # heal on rejuvenation: recovery evicts the attacker
        previous_hook = deployment.recovery_scheduler.on_rejuvenate \
            if deployment.recovery_scheduler is not None else None

        def rejuvenated(replica) -> None:
            if previous_hook is not None:
                previous_hook(replica)
            self._heal(replica.name)

        if deployment.recovery_scheduler is not None:
            deployment.recovery_scheduler.on_rejuvenate = rejuvenated

    # ------------------------------------------------------------------
    def start(self) -> None:
        sim = self.deployment.simulator
        sim.call_every(self.sample_interval_ms, self._sample, rng_name="spire-campaign-sample")
        sim.schedule_at(self.first_attempt_ms, self._attempt_next)

    def _sample(self) -> None:
        sim = self.deployment.simulator
        grid = self.deployment.grid
        self.result.served_load.append((sim.now, grid.served_load_mw()))

    # ------------------------------------------------------------------
    def _attempt_next(self) -> None:
        deployment = self.deployment
        replicas = deployment.replicas
        target = replicas[self._next_target % len(replicas)]
        self._next_target += 1
        diversity = deployment.diversity
        exploit = diversity.exploit_for(target.name)
        launched = deployment.simulator.now
        self.result.attempted.append(launched)

        def weaponized() -> None:
            # the exploit lands only if the variant did not change during
            # the dwell (i.e. the replica was not proactively recovered)
            if diversity.is_vulnerable(target.name, exploit) and target.is_up:
                self._compromise(target, launched)
            else:
                self.result.exploits_invalidated += 1

        deployment.simulator.schedule(self.dwell_ms, weaponized)
        deployment.simulator.schedule(self.attempt_interval_ms, self._attempt_next)

    def _compromise(self, replica, launched: float) -> None:
        if replica.name in self.compromised:
            return
        self.result.landed.append(launched)
        self.compromised[replica.name] = self.intrude(replica)
        self.deployment.obs.event(
            COMP_CAMPAIGN, EV_COMPROMISED, replica=replica.name
        )

    def intrude(self, replica) -> List[Callable[[], None]]:
        """Install the attacker on ``replica``; returns what uninstalls it.

        It corrupts the replica's threshold shares and forges a delivery
        record opening a breaker nobody ordered.
        """
        substations = sorted(self.deployment.grid.substations)

        def fake_record() -> DeliveryRecord:
            substation = substations[0]
            breakers = sorted(
                self.deployment.grid.substations[substation].breakers
            )
            return DeliveryRecord(
                kind="command",
                client="hmi:0",
                client_seq=10_000_000 + len(self.result.landed),
                order_index=10_000_000,
                payload=BreakerCommand(
                    substation=substation,
                    breaker_id=breakers[0],
                    close=False,
                    issued_by="attacker",
                ),
            )

        return [
            make_share_corruptor(replica),
            make_delivery_forger(replica, fake_record),
        ]

    def _heal(self, replica_name: str) -> None:
        uninstalls = self.compromised.pop(replica_name, None)
        if uninstalls is not None:
            for uninstall in uninstalls:
                uninstall()
            self.deployment.obs.event(
                COMP_CAMPAIGN, EV_EVICTED, replica=replica_name
            )
