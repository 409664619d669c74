"""Wire messages for the PBFT-style baseline protocol.

Only what is the baseline's own: votes, prepared certificates, the
NewView and the slot fetch pair are the shared classes of
:mod:`repro.replication.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..prime.messages import ClientUpdate
from ..replication.messages import PreparedEntry

__all__ = [
    "PbftPrePrepare",
    "PbftCheckpoint",
    "PbftViewChange",
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
