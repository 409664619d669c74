"""Prime protocol parameters.

Prime (Amir, Coan, Kirsch, Lane: "Prime: Byzantine Replication Under
Attack") is the replication engine under Spire. It provides *bounded
delay*: even a correct-looking but malicious leader cannot delay ordering
beyond a bound derived from actual network round-trip times, because
replicas monitor the leader's turnaround time (TAT) and replace it.

The constants here are expressed in virtual milliseconds. Two presets are
provided matching the paper's two environments (LAN testbed, wide-area
deployment).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Tuple

__all__ = ["PrimeConfig", "lan_prime_config", "wan_prime_config"]


@dataclass(frozen=True)
class PrimeConfig:
    """Static configuration shared by all replicas of one Prime instance."""

    replicas: Tuple[str, ...]
    num_faults: int = 1          # f: maximum simultaneous intrusions
    num_recovering: int = 1      # k: replicas that may be down for rejuvenation

    # --- timers (virtual ms) -------------------------------------------
    batch_interval_ms: float = 2.0        # client updates -> PO-Request batching
    summary_interval_ms: float = 10.0     # PO-summary broadcast period
    pre_prepare_interval_ms: float = 20.0 # leader proposal period
    tat_check_interval_ms: float = 25.0   # suspect-leader evaluation period
    recon_interval_ms: float = 40.0       # reconciliation/retransmission period
    # --- suspect-leader parameters --------------------------------------
    tat_latency_factor: float = 3.0       # K_lat: multiplier on achievable TAT
    tat_slack_ms: float = 15.0            # additive slack against jitter
    tat_floor_ms: float = 40.0            # never suspect below this TAT
    # --- batching / flow control ----------------------------------------
    batch_max_updates: int = 64           # max client updates per PO-Request
    # --- checkpointing ---------------------------------------------------
    checkpoint_interval_seqs: int = 50    # global seqs between checkpoints

    # --- constants: equal in both presets, varied by no experiment -------
    ping_interval_ms: ClassVar[float] = 200.0        # RTT measurement period
    view_change_timeout_ms: ClassVar[float] = 800.0  # expect NewView within this after VC
    recon_window: ClassVar[int] = 32       # max updates resent per peer per round
    rtt_ewma_alpha: ClassVar[float] = 0.2  # smoothing for RTT estimates

    def __post_init__(self) -> None:
        needed = 3 * self.num_faults + 2 * self.num_recovering + 1
        if len(self.replicas) < needed:
            raise ValueError(
                f"{len(self.replicas)} replicas cannot tolerate "
                f"f={self.num_faults}, k={self.num_recovering}; "
                f"need n >= 3f+2k+1 = {needed}"
            )
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError("replica names must be unique")

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of replicas."""
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        """Ordering/pre-ordering quorum: 2f + k + 1."""
        return 2 * self.num_faults + self.num_recovering + 1

    @property
    def signing_threshold(self) -> int:
        """Threshold-signature shares needed at proxies: f + 1.

        Any f+1 shares include at least one correct replica, and correct
        replicas only sign updates they executed through the agreed order.
        """
        return self.num_faults + 1

    def leader_of_view(self, view: int) -> str:
        """Rotating leader assignment."""
        return self.replicas[view % self.n]

    def index_of(self, replica: str) -> int:
        return self.replicas.index(replica)

    def with_replicas(self, replicas: Tuple[str, ...]) -> "PrimeConfig":
        return replace(self, replicas=tuple(replicas))


def lan_prime_config(replicas: Tuple[str, ...], f: int = 1, k: int = 1) -> PrimeConfig:
    """Aggressive timers for a sub-millisecond LAN."""
    return PrimeConfig(
        replicas=tuple(replicas),
        num_faults=f,
        num_recovering=k,
        batch_interval_ms=1.0,
        summary_interval_ms=5.0,
        pre_prepare_interval_ms=10.0,
        tat_check_interval_ms=15.0,
        tat_floor_ms=25.0,
        recon_interval_ms=25.0,
    )


def wan_prime_config(replicas: Tuple[str, ...], f: int = 1, k: int = 1) -> PrimeConfig:
    """Timers for a wide-area deployment with ~5-25 ms one-way links."""
    return PrimeConfig(
        replicas=tuple(replicas),
        num_faults=f,
        num_recovering=k,
    )
