"""The Spire replica: Prime node + SCADA master + threshold signing.

A :class:`SpireReplica` extends :class:`~repro.prime.node.PrimeNode` with
the application-layer duties of a Spire SCADA master replica:

* accept :class:`UpdateSubmission` messages from proxies/HMIs over the
  overlay and inject their updates into Prime, in order;
* after each certified pre-order request executes through the agreed
  order, produce one threshold-signature share over the Merkle root of
  its updates' :class:`DeliveryRecord` digests and send every interested
  endpoint (the originating clients, all HMIs, and — for breaker commands
  — the proxy that fronts the target substation) the proof-carrying
  entries it wants.

A compromised replica can refuse to do any of this, or send garbage
shares; with threshold ``f + 1`` and robust combining at the endpoints,
``f`` such replicas can neither forge a delivery nor block one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set

from ..crypto.provider import CryptoProvider
from ..crypto.schema import check_for
from ..prime.app import ReplicatedApplication
from ..prime.config import PrimeConfig
from ..prime.messages import PoRequest, verify_client_update
from ..prime.node import PrimeNode
from ..replication import Transport
from ..simnet import Network, Simulator
from .master import ScadaMasterApp
from .update import (
    BatchDeliveryShare,
    BreakerCommand,
    UpdateSubmission,
    batch_of_request,
)

__all__ = ["SpireReplica", "THRESHOLD_GROUP"]

#: name of the threshold-signature group shared by the master replicas
THRESHOLD_GROUP = "spire-masters"

_SUBMISSION_SHAPE = check_for(UpdateSubmission)


def _no_proxy(substation: str) -> None:
    """The resolver of a replica no deployment has wired."""


class SpireReplica(PrimeNode):
    """One SCADA-master replica."""

    #: the one threshold group every master replica holds a share of
    threshold_group = THRESHOLD_GROUP
    #: how many executed updates the share cache re-answers
    recent_share_cap = 5000

    durable = PrimeNode.durable | {
        "share_index", "subscribers", "proxy_resolver", "deliveries_sent", "share_corruptor",
        "batches_sent"}

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        config: PrimeConfig,
        crypto: CryptoProvider,
        app: Optional[ReplicatedApplication] = None,
        transport: Optional[Transport] = None,
        obs=None,
    ) -> None:
        super().__init__(
            name, simulator, network, config,
            crypto, app or ScadaMasterApp(), transport=transport, obs=obs,
        )
        self.share_index = config.index_of(name) + 1
        #: endpoints that receive every delivery (HMIs, historians)
        self.subscribers: List[str] = []
        #: substation -> name of the proxy endpoint fronting it (or None);
        #: the deployment wiring sets it, breaker commands are routed by it
        self.proxy_resolver = _no_proxy
        self.deliveries_sent = 0
        self.obs.read("replica.deliveries_sent", lambda: self.deliveries_sent)
        #: attack hook: transform our threshold share before sending
        #: (models a compromised replica emitting garbage shares)
        self.share_corruptor = None
        self.batches_sent = 0
        # one threshold share per executed pre-order request, covering
        # the Merkle root of its records
        self.batch_execution_listeners.append(self._deliver_batch)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_subscriber(self, endpoint: str) -> None:
        if endpoint not in self.subscribers:
            self.subscribers.append(endpoint)

    def _fresh_state(self) -> None:
        super()._fresh_state()
        #: bounded cache of what a recent share is built from — ``(batch
        #: record, threshold share, the client's entry)`` — to re-answer
        #: client retries of updates that already executed (their first
        #: delivery may be lost); few are ever asked for. Volatile: it never
        #: serves a share the last incarnation made, perhaps while compromised.
        self._recent_shares: "OrderedDict[tuple, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # Incoming submissions
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        unwrapped = self.transport.unwrap(payload)
        inner = unwrapped[1] if unwrapped is not None else payload
        # a compromised client may submit anything: only a well-typed
        # submission, every update in it, reaches signature verification
        # and the dedup tables; one ill-typed update drops it whole
        if _SUBMISSION_SHAPE(inner):
            answered = set()
            for update in inner.updates:
                if self.submit(update):
                    continue
                # A signed retry of an already-executed update: re-send our
                # share, once, so a client whose first delivery was lost
                # can still act. Only a cache hit pays for the verify.
                key = (update.client, update.client_seq)
                cached = self._recent_shares.get(key)
                if cached is None or key in answered:
                    continue
                if verify_client_update(self.crypto, update):
                    answered.add(key)
                    batch, share, entry = cached
                    self.transport.send(
                        update.client,
                        BatchDeliveryShare(self.name, batch, share, (entry,)),
                        size_bytes=350,
                    )
            return
        # already unwrapped above — hand the inner payload straight to the
        # runtime instead of re-unwrapping via super().on_message
        self.runtime.receive_unwrapped(inner)

    # ------------------------------------------------------------------
    # Outgoing deliveries
    # ------------------------------------------------------------------
    def _deliver_batch(self, request: PoRequest, executed: List) -> None:
        """Deliver one executed pre-order batch: a single threshold share
        over the batch's Merkle root, with each target receiving only the
        proof-carrying entries it subscribes to."""
        batch, entries = batch_of_request(request, executed)
        share = self.crypto.threshold_sign_share(
            self.threshold_group, self.share_index, batch
        )
        if self.share_corruptor is not None:
            share = self.share_corruptor(share)
        # per-endpoint entry selection: subscribers see everything, each
        # client its own updates, and the proxy fronting a substation any
        # breaker command addressed to it
        wanted: Dict[str, Set[int]] = {}
        everything = set(range(len(entries)))
        for subscriber in self.subscribers:
            wanted.setdefault(subscriber, set()).update(everything)
        for i, (update, _order_index, _result) in enumerate(executed):
            wanted.setdefault(update.client, set()).add(i)
            if isinstance(update.payload, BreakerCommand):
                proxy = self.proxy_resolver(update.payload.substation)
                if proxy is not None:
                    wanted.setdefault(proxy, set()).add(i)
            # retry cache: re-answer a client resubmission with just its
            # own slice of the batch
            self._recent_shares[(update.client, update.client_seq)] = (
                batch, share, entries[i],
            )
        while len(self._recent_shares) > self.recent_share_cap:
            self._recent_shares.popitem(last=False)
        self.batches_sent += 1
        for target, indices in wanted.items():
            if target == self.name or not indices:
                continue
            selected = tuple(entries[i] for i in sorted(indices))
            delivery = BatchDeliveryShare(self.name, batch, share, selected)
            self.deliveries_sent += 1
            # one share + root regardless of batch size, plus the proofs:
            # ~200 B fixed + ~150 B per entry (record + log-size proof)
            self.transport.send(
                target, delivery, size_bytes=200 + 150 * len(selected)
            )
