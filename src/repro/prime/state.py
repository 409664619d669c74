"""Per-replica protocol state containers for Prime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..replication.quorum import QuorumTracker
from .messages import SignedMessage

__all__ = ["OriginState"]


@dataclass
class OriginState:
    """Pre-ordering state this replica keeps for one origin stream.

    An *origin stream* is one replica incarnation's sequence of PoRequests,
    keyed ``replica#epoch`` — a recovering replica starts a fresh stream so
    it can never equivocate against its own pre-recovery messages.
    """

    origin: str
    #: po_seq -> signed PoRequest (first valid one received wins)
    requests: Dict[int, SignedMessage] = field(default_factory=dict)
    #: po_seq -> content digest of the stored request
    digests: Dict[int, str] = field(default_factory=dict)
    #: po_seq -> digest -> sender -> signed PoAck
    acks: QuorumTracker = field(default_factory=QuorumTracker)
    #: certificates: po_seq -> (winning digest, ack tuple) once quorum reached
    certs: Dict[int, Tuple[str, Tuple[SignedMessage, ...]]] = field(default_factory=dict)
    #: po_seq -> simulated time this replica completed the certificate
    certified_at: Dict[int, float] = field(default_factory=dict)
    #: highest po_seq such that certs exist for every seq <= it
    certified_upto: int = 0
    #: highest po_seq executed through the global order (agreed, monotone)
    executed_upto: int = 0

    def has_cert(self, po_seq: int) -> bool:
        return po_seq <= self.certified_upto or po_seq in self.certs

    def add_cert(
        self, po_seq: int, cert: Tuple[str, Tuple[SignedMessage, ...]], now: float
    ) -> bool:
        """Store a certificate; True if the contiguous frontier moved."""
        self.certs[po_seq] = cert
        self.certified_at[po_seq] = now
        return self.advance_certified()

    def advance_certified(self) -> bool:
        """Advance the contiguous certified frontier; True if it moved."""
        moved = False
        while (self.certified_upto + 1) in self.certs:
            self.certified_upto += 1
            moved = True
        return moved

    def garbage_collect(self, below: int) -> None:
        """Drop request/ack/cert data at or below ``below`` (checkpointed)."""
        self.acks.drop_upto(below)
        for table in (self.requests, self.digests, self.certs, self.certified_at):
            for seq in [s for s in table if s <= below]:
                del table[seq]

