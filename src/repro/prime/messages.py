"""Prime wire messages.

All protocol messages are frozen dataclasses, canonically encodable by
:mod:`repro.crypto.encoding`, and travel wrapped in :class:`SignedMessage`.
Receivers drop any message whose signature does not verify against the
claimed sender, which is what confines Byzantine replicas to lying in
*their own* messages (the paper's authenticated-link assumption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..crypto.encoding import EncodingError, derived, digest
from ..crypto.provider import CryptoProvider, Signature
from ..replication.messages import (
    Commit,
    NewView,
    Prepare,
    PreparedEntry,
    SignedMessage,
)

__all__ = [
    "ClientUpdate",
    "PoRequest",
    "PoAck",
    "PoSummary",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Suspect",
    "ViewChange",
    "NewView",
    "PreparedEntry",
    "CheckpointMsg",
    "Ping",
    "Pong",
    "ReconRequest",
    "ReconReply",
    "OrderedRequest",
    "OrderedReply",
    "StateRequest",
    "StateReply",
    "SignedMessage",
    "client_update_body",
    "sign_client_update",
    "verify_client_update",
    "verify_client_updates_batch",
]


@dataclass(frozen=True)
class ClientUpdate:
    """An update submitted by a SCADA client (proxy or HMI).

    ``client_seq`` provides at-most-once execution per client.
    """

    client: str
    client_seq: int
    payload: Any
    signature: Optional[Signature] = None


@dataclass(frozen=True)
class PoRequest:
    """Pre-order request: ``origin`` binds a batch of client updates to its
    local pre-order sequence number ``po_seq``."""

    origin: str
    po_seq: int
    updates: Tuple[ClientUpdate, ...]


@dataclass(frozen=True)
class PoAck:
    """Acknowledgement that ``sender`` holds PoRequest (origin, po_seq)
    with content digest ``digest``."""

    sender: str
    origin: str
    po_seq: int
    digest: str


@dataclass(frozen=True)
class PoSummary:
    """Cumulative pre-order vector of ``sender``.

    ``vector`` maps (as a sorted tuple of pairs) each origin to the highest
    po_seq such that the sender holds pre-order certificates for *all*
    seqs up to it. ``summary_seq`` orders a sender's summaries and is what
    turnaround-time measurement is keyed on. ``stable_seq`` piggybacks the
    sender's stable checkpoint so lagging replicas can notice they have
    fallen behind the garbage-collection horizon.
    """

    sender: str
    summary_seq: int
    vector: Tuple[Tuple[str, int], ...]
    stable_seq: int = 0
    #: increments on every recovery; freshness is (epoch, summary_seq) so a
    #: rejuvenated replica's restarted counter is not mistaken for stale
    epoch: int = 0


@dataclass(frozen=True)
class PrePrepare:
    """Leader proposal binding global sequence ``seq`` (in ``view``) to a
    proof matrix of signed PO-summaries (one per replica, possibly absent)."""

    leader: str
    view: int
    seq: int
    matrix: Tuple[SignedMessage, ...]  # SignedMessage[PoSummary], distinct senders


@dataclass(frozen=True)
class Suspect:
    """Accusation that the leader of ``view`` violates its TAT bound."""

    sender: str
    view: int
    reason: str


@dataclass(frozen=True)
class ViewChange:
    sender: str
    new_view: int
    checkpoint_seq: int
    #: q signed CheckpointMsg proving checkpoint_seq is stable (empty for 0)
    checkpoint_proof: Tuple[SignedMessage[CheckpointMsg], ...]
    prepared: Tuple[PreparedEntry, ...]


@dataclass(frozen=True)
class CheckpointMsg:
    sender: str
    seq: int
    state_digest: str


@dataclass(frozen=True)
class Ping:
    sender: str
    nonce: int
    sent_at: float


@dataclass(frozen=True)
class Pong:
    sender: str
    nonce: int
    sent_at: float


@dataclass(frozen=True)
class ReconRequest:
    """Ask a peer for pre-order data it claims and we lack."""

    sender: str
    origin: str
    from_seq: int
    to_seq: int


@dataclass(frozen=True)
class ReconReply:
    """Certified pre-order data: the request plus its q acknowledgements."""

    sender: str
    request: SignedMessage[PoRequest]
    acks: Tuple[SignedMessage[PoAck], ...]   # x quorum


@dataclass(frozen=True)
class OrderedRequest:
    """Ask a peer for the ordered proposal at global ``seq``."""

    sender: str
    seq: int


@dataclass(frozen=True)
class OrderedReply:
    """An ordered proposal plus its commit certificate."""

    sender: str
    seq: int
    pre_prepare: SignedMessage[PrePrepare]
    commits: Tuple[SignedMessage[Commit], ...]  # x quorum


@dataclass(frozen=True)
class StateRequest:
    """A recovering replica asks for a verifiable checkpoint."""

    sender: str


@dataclass(frozen=True)
class StateReply:
    """Stable checkpoint: snapshot + q signed checkpoint messages."""

    sender: str
    checkpoint_seq: int
    snapshot: Any
    proof: Tuple[SignedMessage[CheckpointMsg], ...]  # x quorum
    view: int


# ----------------------------------------------------------------------
# Client-update signing helpers (used by proxies/HMIs and both protocols)
# ----------------------------------------------------------------------

def client_update_body(client: str, client_seq: int, payload: Any) -> Tuple:
    """The signed portion of a client update."""
    return ("client-update", client, client_seq, digest(payload))


class _SignedBody(tuple):
    """A body kept on the update it belongs to. As a tuple subclass it
    encodes as the tuple it is and can hold an entry of its own, so the
    one signature and the verifications at every replica share one
    encoding (and, under ``FastCrypto``, one tag)."""


def _derive_body(update: ClientUpdate) -> _SignedBody:
    return _SignedBody(
        client_update_body(update.client, update.client_seq, update.payload)
    )


def sign_client_update(
    crypto: CryptoProvider, client: str, client_seq: int, payload: Any
) -> ClientUpdate:
    """Create a signed client update (used by proxies/HMIs)."""
    body = _SignedBody(client_update_body(client, client_seq, payload))
    update = ClientUpdate(client, client_seq, payload, crypto.sign(client, body))
    derived(update, lambda _: body)  # what was signed is what replicas verify
    return update


def verify_client_update(crypto: CryptoProvider, update: ClientUpdate) -> bool:
    if update.signature is None:
        return False
    if update.signature.signer != update.client:
        return False
    try:
        body = derived(update, _derive_body)
    except EncodingError:  # a payload no encoder accepts was never signed
        return False
    return crypto.verify(update.signature, body)


def verify_client_updates_batch(
    crypto: CryptoProvider, updates: Tuple[ClientUpdate, ...]
) -> Tuple[bool, ...]:
    """Batch-verify client-update signatures via ``crypto.verify_batch``.

    Updates with a missing or mis-attributed signature are rejected
    up-front without entering the batch; the rest verify in one provider
    call. Semantics match :func:`verify_client_update` element-wise.
    """
    verdicts = [False] * len(updates)
    positions = []
    signatures = []
    bodies = []
    for i, update in enumerate(updates):
        if update.signature is None or update.signature.signer != update.client:
            continue
        try:
            bodies.append(derived(update, _derive_body))
        except EncodingError:
            continue
        positions.append(i)
        signatures.append(update.signature)
    if positions:
        for i, ok in zip(positions, crypto.verify_batch(signatures, bodies)):
            verdicts[i] = ok
    return tuple(verdicts)
