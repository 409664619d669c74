"""Protocol-agnostic wire messages shared by every replication protocol.

:class:`SignedMessage` is the authenticated-link envelope from the paper:
receivers drop any message whose signature does not verify against the
claimed sender, confining Byzantine replicas to lying in *their own*
messages. Both Prime and the PBFT baseline wrap every protocol message in
it, and both vote, certify and change views with the same four messages
(:class:`Prepare`, :class:`Commit`, :class:`PreparedEntry`,
:class:`NewView`); only the pre-prepare and the ViewChange differ per
protocol. The canonical encoding (:mod:`repro.crypto.encoding`) keys
dataclasses by class *name*, so the classes living here are
wire-compatible with ``repro.prime.messages`` (which re-exports them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Generic, Tuple, TypeVar

from ..crypto.provider import Signature

__all__ = ["SignedMessage", "Prepare", "Commit", "PreparedEntry", "NewView"]

P = TypeVar("P")


@dataclass(frozen=True)
class SignedMessage(Generic[P]):
    """Envelope: ``payload`` signed by ``signature.signer``.

    The signature is over the payload's own encoding; where the envelope
    itself is encoded — inside a proposal matrix or a certificate, under
    an overlay datagram — the payload stands as its digest. A field that
    holds one kind says which: ``SignedMessage[PoAck]``."""

    encoded_by_digest: ClassVar[Tuple[str, ...]] = ("payload",)

    payload: P
    signature: Signature


@dataclass(frozen=True)
class Prepare:
    sender: str
    view: int
    seq: int
    digest: str


@dataclass(frozen=True)
class Commit:
    sender: str
    view: int
    seq: int
    digest: str


@dataclass(frozen=True)
class PreparedEntry:
    """A prepared-but-possibly-unordered proposal carried in a ViewChange.

    ``proof`` holds the prepare certificate: signed Prepare/Commit messages
    from a quorum of replicas (the pre-prepare counts as the leader's
    prepare). Without it, a Byzantine replica colluding with a Byzantine
    future leader could fabricate a high-view entry and override a
    committed proposal.
    """

    seq: int
    view: int
    digest: str
    pre_prepare: SignedMessage                 # signed pre-prepare of ``view``
    proof: Tuple[SignedMessage, ...] = ()      # SignedMessage[Prepare|Commit]


@dataclass(frozen=True)
class NewView:
    """New leader's certificate: q ViewChanges plus re-proposals."""

    leader: str
    view: int
    view_changes: Tuple[SignedMessage, ...]   # signed ViewChanges for ``view``
    pre_prepares: Tuple[SignedMessage, ...]   # signed pre-prepares in seq order
