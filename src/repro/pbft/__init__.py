"""PBFT-style baseline: classical leader-based BFT with static timeouts.

Used by the benchmarks as the comparison point for Prime's bounded-delay
property (see DESIGN.md experiment F5/F9).
"""

from .messages import ForwardedUpdate, PbftPrePrepare, PbftViewChange
from .node import PbftConfig, PbftNode

__all__ = [
    "ForwardedUpdate",
    "PbftPrePrepare",
    "PbftViewChange",
    "PbftConfig",
    "PbftNode",
]
