"""Wire messages for the PBFT-style baseline protocol.

Only what is the baseline's own: votes, prepared certificates and the
NewView are the shared classes of :mod:`repro.replication.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..prime.messages import ClientUpdate
from ..replication.messages import PreparedEntry, SignedMessage

__all__ = [
    "PbftPrePrepare",
    "PbftCheckpoint",
    "PbftViewChange",
    "PbftFetch",
    "PbftOrderProof",
    "ForwardedUpdate",
]


@dataclass(frozen=True)
class ForwardedUpdate:
    """A replica forwards a client update to the current leader."""

    sender: str
    update: ClientUpdate


@dataclass(frozen=True)
class PbftPrePrepare:
    leader: str
    view: int
    seq: int
    batch: Tuple[ClientUpdate, ...]


@dataclass(frozen=True)
class PbftCheckpoint:
    """Vote that the sender's state after executing ``seq`` has ``digest``."""

    sender: str
    seq: int
    digest: str


@dataclass(frozen=True)
class PbftViewChange:
    sender: str
    new_view: int
    last_executed: int
    prepared: Tuple[PreparedEntry, ...]


@dataclass(frozen=True)
class PbftFetch:
    """A lagging replica asks peers for ordered slots from ``from_seq``."""

    sender: str
    from_seq: int


@dataclass(frozen=True)
class PbftOrderProof:
    """Commit-certified slot served to a laggard: the pre-prepare plus a
    quorum of commits is transferable proof of the ordering decision, so
    the receiver can install it regardless of what view it is in."""

    sender: str
    seq: int
    pre_prepare: SignedMessage
    proof: Tuple[SignedMessage, ...]          # SignedMessage[Commit] x quorum
    #: the server's own execution frontier (last_executed) at serve time;
    #: tells the requester how far the catch-up loop still has to pull
    frontier: int = 0

