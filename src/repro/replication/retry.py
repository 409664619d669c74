"""Bounded-backoff retry primitives shared by every resend path.

All retransmission in the reproduction — Prime state transfer, the
agreement's head-of-line repair, client/proxy/HMI update resubmission —
flows through one policy type so the backoff guarantees (bounded rate,
deterministic jitter, never giving up) hold uniformly across protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "RetrySchedule"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for resend paths.

    Replaces fixed-interval retries: the delay for attempt ``i`` grows as
    ``base_ms * factor**i`` up to ``max_ms``, with a multiplicative jitter
    in ``[1, 1 + jitter_frac)`` drawn from the caller's RNG stream (so
    simulated retries stay deterministic per seed). After ``max_attempts``
    the delay stays pinned at the cap — retries never stop entirely,
    because a replica that gives up on state transfer is lost forever, but
    their rate is bounded so a partitioned replica cannot flood the
    network on rejoin.
    """

    base_ms: float = 100.0
    factor: float = 2.0
    max_ms: float = 4000.0
    max_attempts: int = 8
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.base_ms <= 0 or self.factor < 1.0 or self.max_ms < self.base_ms:
            raise ValueError("invalid retry policy parameters")

    def delay_ms(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        exponent = min(attempt, self.max_attempts)
        delay = min(self.max_ms, self.base_ms * self.factor ** exponent)
        if rng is not None and self.jitter_frac > 0.0:
            delay *= 1.0 + self.jitter_frac * rng.random()
        return delay

    def capped(self, attempt: int) -> bool:
        """True once the backoff has reached its bounded ceiling."""
        return attempt >= self.max_attempts


class RetrySchedule:
    """A :class:`RetryPolicy` plus its attempt counter for one retry loop.

    Owns the ``attempts`` bookkeeping that every caller of ``delay_ms``
    otherwise re-implements: ``next_delay_ms()`` returns the delay for the
    current attempt and advances the counter; ``reset()`` rewinds after
    success so the next failure starts from the base delay again.
    """

    def __init__(
        self, policy: RetryPolicy, rng: Optional[random.Random] = None
    ) -> None:
        self.policy = policy
        self.rng = rng
        self.attempts = 0

    def next_delay_ms(self) -> float:
        delay = self.policy.delay_ms(self.attempts, self.rng)
        self.attempts += 1
        return delay

    def reset(self) -> None:
        self.attempts = 0

    @property
    def capped(self) -> bool:
        return self.policy.capped(self.attempts)
