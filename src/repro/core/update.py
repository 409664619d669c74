"""Payload and wire types of the Spire application layer.

Data flow (paper architecture):

* RTU proxies poll field devices over Modbus and package readings as
  :class:`StatusReading` payloads inside signed ``ClientUpdate``s, which
  they submit to a SCADA-master replica, a poll round's updates in one
  :class:`UpdateSubmission`.
* HMIs submit :class:`BreakerCommand` payloads the same way.
* Every replica that executes a certified pre-order request produces one
  :class:`BatchDeliveryRecord` over the :class:`DeliveryRecord` of each
  update in it and sends its threshold-signature share
  (:class:`BatchDeliveryShare`) to the interested endpoints; an endpoint
  that collects ``f + 1`` matching shares combines them into one compact
  threshold signature and acts on the records whose Merkle proofs check
  out — so a proxy never operates a breaker, and an HMI never updates its
  display, on the say-so of fewer than one correct replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Sequence, Tuple

from ..crypto.encoding import derived, digest
from ..crypto.merkle import merkle_tree
from ..crypto.provider import ThresholdShare, ThresholdSignature
from ..prime.messages import ClientUpdate, PoRequest

__all__ = [
    "StatusReading",
    "BreakerCommand",
    "DeliveryRecord",
    "BatchDeliveryRecord",
    "BatchEntry",
    "BatchDeliveryShare",
    "UpdateSubmission",
    "record_for",
    "batch_record_for",
    "batch_of_request",
    "batch_of_records",
]


@dataclass(frozen=True)
class StatusReading:
    """One polled snapshot of a substation's telemetry and breakers."""

    substation: str
    poll_seq: int
    polled_at: float
    measurements: Tuple[Tuple[str, float], ...]  # sorted (name, value)
    breakers: Tuple[Tuple[str, bool], ...]       # sorted (breaker_id, closed)

    def measurement(self, name: str) -> Optional[float]:
        for key, value in self.measurements:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class BreakerCommand:
    """An operator (or automation) request to operate a breaker."""

    substation: str
    breaker_id: str
    close: bool
    issued_by: str
    reason: str = ""


@dataclass(frozen=True)
class DeliveryRecord:
    """The agreed fact that an update executed at a global position.

    It binds the update identity and content to its execution order, so
    endpoints can safely deduplicate and order deliveries. Its digest is
    one leaf of the threshold-signed :class:`BatchDeliveryRecord`.
    """

    kind: str                 # "status" | "command"
    client: str
    client_seq: int
    order_index: int
    payload: Any              # the executed StatusReading / BreakerCommand

    def key(self) -> Tuple[str, str, int]:
        return (self.kind, self.client, self.client_seq)


@dataclass(frozen=True)
class BatchDeliveryRecord:
    """The agreed fact that one ordered *batch* of updates executed.

    The batch unit is the executed-update set of one certified pre-order
    request ``(origin, po_seq)`` — identical at every correct replica by
    agreement — summarised by the Merkle root over the per-update
    :class:`DeliveryRecord` digests. This is what gets threshold-signed:
    one signature covers the whole batch, and each update is pinned to
    the root by its inclusion proof.
    """

    origin: str               # pre-order stream ("replica#epoch")
    po_seq: int               # pre-order sequence within the stream
    merkle_root: str          # root over the entries' record digests
    count: int                # leaves in the tree (executed updates)
    first_order_index: int    # global order index of the first entry

    def key(self) -> Tuple[str, str, int]:
        return ("batch", self.origin, self.po_seq)


@dataclass(frozen=True)
class BatchEntry:
    """One update of a batch: its record plus the Merkle inclusion proof
    tying the record to the batch's signed root. An entry is walked by
    the first share that encodes it and carries those bytes from then
    on: every later share of any replica to any target appends them."""

    keeps_nested_encoding: ClassVar[bool] = True

    index: int                        # leaf position in the batch
    record: DeliveryRecord
    proof: Tuple[str, ...]            # sibling digests, bottom-up


@dataclass(frozen=True)
class BatchDeliveryShare:
    """One replica's threshold share over a batch record, carrying only
    the entries the target endpoint cares about (never the whole batch
    unless the endpoint subscribes to everything)."""

    sender: str
    record: BatchDeliveryRecord       # what ``share`` signs
    share: ThresholdShare
    entries: Tuple[BatchEntry, ...]


@dataclass(frozen=True)
class UpdateSubmission:
    """Endpoint -> replica: please order these client updates. Each one
    keeps its own signature and ``(client, client_seq)`` identity, and
    each costs 400 B on the wire."""

    updates: Tuple[ClientUpdate, ...]


def record_for(update: ClientUpdate, order_index: int) -> DeliveryRecord:
    """Build the canonical delivery record for an executed update."""
    kind = "command" if isinstance(update.payload, BreakerCommand) else "status"
    return DeliveryRecord(
        kind=kind,
        client=update.client,
        client_seq=update.client_seq,
        order_index=order_index,
        payload=update.payload,
    )


def batch_record_for(
    origin: str,
    po_seq: int,
    executed: Any,  # sequence of (ClientUpdate, order_index, result)
) -> Tuple[BatchDeliveryRecord, Tuple[BatchEntry, ...]]:
    """Build the batch record + proof-carrying entries for one executed
    pre-order request. Deterministic in the executed sequence, so every
    correct replica derives the identical root and signs the same thing."""
    return batch_of_records(
        origin, po_seq, [record_for(update, idx) for update, idx, _ in executed]
    )


def batch_of_request(
    request: PoRequest, executed: Any
) -> Tuple[BatchDeliveryRecord, Tuple[BatchEntry, ...]]:
    """:func:`batch_record_for` of one executed pre-order request, built
    by the first replica that executes it and kept on the request object
    every replica holds. It is a function of agreed facts only, so a
    later replica reuses it when — and only when — it executed the same
    update objects at the same order indices; any other sequence builds
    a batch of its own, which nobody else sees."""
    sequence, batch = derived(request, lambda request: (
        [(update, index) for update, index, _ in executed],
        batch_record_for(request.origin, request.po_seq, executed),
    ))
    if len(sequence) == len(executed) and all(
        kept[0] is mine[0] and kept[1] == mine[1]
        for kept, mine in zip(sequence, executed)
    ):
        return batch
    return batch_record_for(request.origin, request.po_seq, executed)


def batch_of_records(
    origin: str, po_seq: int, records: Sequence[DeliveryRecord]
) -> Tuple[BatchDeliveryRecord, Tuple[BatchEntry, ...]]:
    """The batch record over ``records`` plus one proof-carrying entry per
    record (a single record makes a one-leaf tree)."""
    root, proofs = merkle_tree([digest(record) for record in records])
    batch = BatchDeliveryRecord(
        origin=origin,
        po_seq=po_seq,
        merkle_root=root,
        count=len(records),
        first_order_index=records[0].order_index,
    )
    entries = tuple(
        BatchEntry(index=i, record=record, proof=proof)
        for i, (record, proof) in enumerate(zip(records, proofs))
    )
    return batch, entries
