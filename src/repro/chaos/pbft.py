"""PBFT-baseline chaos harness: leader faults against a flat cluster.

The Spire chaos engine exercises Prime inside the full deployment; this
harness builds the other :class:`~repro.chaos.faults.ChaosSystem` — the
PBFT baseline as ``n`` replicas on one switched network, a periodic
traffic source submitting through whichever replica is up — and hands it
to the same runner (:func:`~repro.chaos.engine.run_chaos`), so
leader-failure recovery is judged by the same liveness judge in *both*
protocols, against a B computed here from the cluster's timers. The flat
cluster has no endpoints, recovery strategy or overlay: it runs leader
faults only, judged on safety and liveness.
The schedule is drawn by the shared generator restricted to the leader
kinds, each resolving its target (the *current* leader) at fire time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..crypto import FastCrypto
from ..obs import EV_PBFT_NEW_VIEW, Observability
from ..pbft import PbftConfig, PbftNode
from ..prime import LoggingApp, sign_client_update
from ..simnet import LinkSpec, Network, Simulator
from .engine import ChaosResult, run_chaos, schedule_profile
from .faults import LEADER_FAULT_KINDS, LEADER_PROFILE_KINDS, ChaosSystem
from .generator import generate_schedule
from .schedule import FaultSchedule

__all__ = ["PbftChaosOptions", "run_pbft_chaos"]


@dataclass(frozen=True)
class PbftChaosOptions:
    """One PBFT leader-fault chaos run."""

    seed: int = 1
    warmup_ms: float = 1000.0
    chaos_ms: float = 5000.0
    settle_ms: float = 4000.0

    # --- the cluster and its traffic: one shape, never varied ---
    n: ClassVar[int] = 6
    f: ClassVar[int] = 1
    #: traffic source period; every request arms the request timeout on
    #: every replica, which is what drives the baseline's view changes
    request_interval_ms: ClassVar[float] = 150.0
    request_timeout_ms: ClassVar[float] = 800.0
    checkpoint_interval: ClassVar[int] = 16
    min_actions: ClassVar[int] = 1
    max_actions: ClassVar[int] = 3
    profile_kinds: ClassVar[Tuple[str, ...]] = LEADER_PROFILE_KINDS

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.chaos_ms + self.settle_ms

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _majority_view(nodes: List[PbftNode]) -> int:
    views = [node.view for node in nodes if node.is_up]
    return max(set(views), key=views.count) if views else 0


def run_pbft_chaos(
    options: Optional[PbftChaosOptions] = None,
    schedule: Optional[FaultSchedule] = None,
) -> ChaosResult:
    opts = options or PbftChaosOptions()
    stray = sorted({a.kind for a in schedule or () if a.kind not in LEADER_FAULT_KINDS})
    if stray:
        raise ValueError(f"the PBFT harness runs leader faults only, not {stray}")
    simulator = Simulator(seed=opts.seed)
    network = Network(simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1))
    crypto = FastCrypto(seed=f"pbft-chaos/{opts.seed}")
    obs = Observability(now_fn=lambda: simulator.now)
    names = tuple(f"replica:{i}" for i in range(opts.n))
    config = PbftConfig(
        names,
        num_faults=opts.f,
        request_timeout_ms=opts.request_timeout_ms,
        checkpoint_interval=opts.checkpoint_interval,
    )
    nodes = [
        PbftNode(name, simulator, network, config, crypto, LoggingApp(),
                 obs=obs)
        for name in names
    ]
    if schedule is None:
        schedule = generate_schedule(opts.seed, names, profile=schedule_profile(opts))

    # --- traffic source ----------------------------------------------
    state = {"seq": 0, "submitted": 0}

    def submit_tick() -> None:
        state["seq"] += 1
        update = sign_client_update(
            crypto, "client:chaos", state["seq"], ("op", state["seq"]),
        )
        # Rotate the ingress replica; skip ahead past crashed ones.
        for offset in range(opts.n):
            node = nodes[(state["seq"] + offset) % opts.n]
            if node.is_up:
                if node.submit(update):
                    state["submitted"] += 1
                return

    def start() -> None:
        simulator.call_every(
            opts.request_interval_ms, submit_tick,
            jitter=5.0, rng_name="pbft-chaos/client",
        )
        for node in nodes:
            node.start()

    return run_chaos(ChaosSystem(
        simulator=simulator,
        network=network,
        obs=obs,
        replicas=nodes,
        quorum=config.quorum,
        tolerated=opts.f,
        new_view_event=EV_PBFT_NEW_VIEW,
        start=start,
        stats=lambda: {
            "submitted": state["submitted"],
            "executed": {node.name: node.executed_counter for node in nodes},
            "views": [node.view for node in nodes],
            "stable_seqs": [node.stable_seq for node in nodes],
        },
        current_leader=lambda: config.leader_of_view(_majority_view(nodes)),
        current_view=lambda: _majority_view(nodes),
        # flat cluster: a replica's connectivity surface is every other replica
        access_peers=lambda name: [peer for peer in names if peer != name],
        # a request waits out the timeout, found at the next check, and the
        # next request arrives within one interval
        liveness_bound_ms=(
            opts.request_timeout_ms + PbftConfig.check_interval_ms + opts.request_interval_ms),
    ), opts, schedule)
