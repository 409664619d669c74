"""Threshold-share collection at endpoints (proxies and HMIs).

An endpoint receives :class:`BatchDeliveryShare` messages from individual
replicas. It may act on a delivery record only once it can produce — and
verify — a combined threshold signature from ``threshold`` distinct shares.
Corrupted shares from compromised replicas are tolerated by robust
combining; duplicate records (delivered again after retries or view
changes) are deduplicated by record key.

The unit of threshold signing is a :class:`BatchDeliveryRecord` — one
signature covers a whole ordered batch via its Merkle root.
:meth:`DeliveryCollector.add` is the threshold gate over that record, and
:meth:`DeliveryCollector.add_batch` releases the individual records a
share carries after checking each entry's inclusion proof against the
signed root. A combined batch signature is cached, so entries arriving later
(e.g. a command-target proxy receiving only its slice) verify against the
cache without re-combining.

Share bookkeeping rides on the replication runtime's
:class:`~repro.replication.quorum.ThresholdShareTracker`: one share per
sender per content variant, so neither duplicates nor a Byzantine
replica's alternate-root shares can fake reaching the threshold.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..crypto.encoding import EncodingError, digest
from ..crypto.merkle import verify_merkle_proof
from ..crypto.provider import CryptoProvider, ThresholdSignature
from ..crypto.schema import check_for, is_a
from ..replication import ThresholdShareTracker
from .update import BatchDeliveryRecord, BatchDeliveryShare, BatchEntry, DeliveryRecord

_SHARE_SHAPE = check_for(BatchDeliveryShare)

__all__ = ["DeliveryCollector"]


class DeliveryCollector:
    """Collects shares and yields verified, deduplicated records."""

    #: released-record keys remembered for dedup; past this the oldest
    #: is forgotten
    max_pending = 10_000

    def __init__(
        self,
        crypto: CryptoProvider,
        group: str,
    ) -> None:
        self.crypto = crypto
        self.group = group
        #: record/batch key -> content variant -> sender -> incoming share
        self._tracker = ThresholdShareTracker()
        #: released record keys, and the same keys oldest first
        self._done: Dict[Tuple, None] = {}
        self._done_order: Deque[Tuple] = deque()
        #: batch key -> (batch record, combined signature), for entries
        #: that arrive after the batch signature was first combined
        self._batch_signatures: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._batch_signature_cap = 2000
        self.verified = 0
        self.rejected_shares = 0
        self.rejected_entries = 0

    def admit(self, share: BatchDeliveryShare) -> Optional[BatchDeliveryShare]:
        """The shape check at an endpoint's ingress, before the gate (or a
        monitor around it) reads a field: a Byzantine replica with a valid key
        may put any object anywhere. Returns ``share`` without its ill-shaped
        entries (``rejected_entries``), or None (``rejected_shares``)."""
        if _SHARE_SHAPE(share):
            return share
        entries = share.entries
        if is_a(entries, Tuple[Any, ...]):
            kept = tuple(entry for entry in entries if is_a(entry, BatchEntry))
            trimmed = dataclasses.replace(share, entries=kept)
            if _SHARE_SHAPE(trimmed):
                self.rejected_entries += len(entries) - len(kept)
                return trimmed
        self.rejected_shares += 1
        return None

    def add(
        self, share: BatchDeliveryShare
    ) -> Optional[Tuple[BatchDeliveryRecord, ThresholdSignature]]:
        """The ``f+1`` gate: track one replica's share over its batch record.

        Returns ``(record, combined signature)`` once ``threshold`` distinct
        senders' shares over the identical record combine and verify, else
        None. The shares stay tracked until :meth:`add_batch` has released
        the entries they carry.
        """
        batch = share.record
        key = batch.key()
        self._tracker.add(key, batch, share.sender, share)
        _, threshold = self.crypto.threshold_parameters(self.group)
        if not self._tracker.ready(key, batch, threshold):
            return None
        signature = self._combine(batch, self._tracker.shares(key, batch))
        return None if signature is None else (batch, signature)

    def add_batch(
        self, share: BatchDeliveryShare
    ) -> List[Tuple[DeliveryRecord, ThresholdSignature]]:
        """Add one batch share; returns every record newly released by it.

        A record is released once (a) a combined threshold signature over
        its batch exists — freshly combined by :meth:`add` or cached from
        an earlier share — and (b) its Merkle inclusion proof checks out
        against the signed root. Entries failing (b) are dropped
        individually (``rejected_entries``); they cannot poison their
        batch-mates, nor another sender's entry for the same index.
        """
        batch = share.record
        key = batch.key()
        cached = self._batch_signatures.get(key)
        if cached is not None and cached[0] == batch:
            signature = cached[1]
            candidates = share.entries
        else:
            signed = self.add(share)
            if signed is None:
                return []
            signature = signed[1]
            # release every entry seen so far for this batch, from any
            # sender whose share we tracked (proofs pin them to the root)
            candidates = sorted(
                (
                    entry
                    for tracked in self._tracker.shares(key, batch)
                    for entry in tracked.entries
                ),
                key=lambda entry: entry.index,
            )
            self._tracker.drop(key)
            self._batch_signatures[key] = (batch, signature)
            while len(self._batch_signatures) > self._batch_signature_cap:
                self._batch_signatures.popitem(last=False)
        released = []
        for entry in candidates:
            record_key = entry.record.key()
            if record_key in self._done:
                continue
            try:
                leaf = digest(entry.record)
            except EncodingError:
                leaf = None  # no encoder accepts its payload: no leaf, no proof
            if not verify_merkle_proof(
                leaf,
                entry.index,
                batch.count,
                entry.proof,
                batch.merkle_root,
            ):
                self.rejected_entries += 1
                continue
            self._mark_done(record_key)
            self.verified += 1
            released.append((entry.record, signature))
        return released

    # ------------------------------------------------------------------
    def _combine(self, message, shares) -> Optional[ThresholdSignature]:
        """Robust-combine tracked shares over ``message``; None keeps the
        shares pending so more honest ones can still succeed later."""
        signature = self.crypto.threshold_combine(
            self.group, message, [s.share for s in shares]
        )
        if signature is None:
            # some shares were corrupt; wait for more honest ones
            self.rejected_shares += 1
            return None
        if not self.crypto.threshold_verify(signature, message):
            self.rejected_shares += 1
            return None
        return signature

    def _mark_done(self, key: Tuple) -> None:
        self._done[key] = None
        order = self._done_order
        order.append(key)
        if len(order) > self.max_pending:
            del self._done[order.popleft()]  # FIFO: the oldest release

    @property
    def pending_records(self) -> int:
        return len(self._tracker)
