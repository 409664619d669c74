"""Byzantine replica behaviours.

These installers turn a healthy replica into a compromised one, modelling
the intrusions of the paper's threat model. They work by wrapping the
node's send/propose paths — the compromised code still cannot forge other
principals' signatures (the crypto provider only signs for the identity
the caller controls), which is exactly the paper's assumption.

All installers return an ``uninstall`` function (the red-team campaign
uses it when a compromised replica is proactively recovered).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..crypto.provider import ThresholdShare
from ..pbft.messages import PbftPrePrepare
from ..prime.messages import PrePrepare, Suspect
from ..prime.node import PrimeNode

__all__ = [
    "make_silent",
    "make_slow_proposer",
    "make_equivocating_leader",
    "make_seq_skipping_leader",
    "make_share_corruptor",
    "make_suspect_spammer",
    "make_delivery_forger",
]

Uninstall = Callable[[], None]


def make_silent(node: Any) -> Uninstall:
    """The replica stops sending anything (fail-stop-like intrusion)."""
    original_broadcast = node._broadcast
    original_send_to = getattr(node, "_send_to", None)
    original_on_message = node.on_message

    def muted_broadcast(payload, include_self=True):
        return node.sign_message(payload)

    def muted_send_to(peer, payload):
        return None

    def muted_on_message(src, payload):
        return None

    node._broadcast = muted_broadcast
    if original_send_to is not None:
        node._send_to = muted_send_to
    node.on_message = muted_on_message

    def uninstall() -> None:
        node._broadcast = original_broadcast
        if original_send_to is not None:
            node._send_to = original_send_to
        node.on_message = original_on_message

    return uninstall


def make_slow_proposer(node: Any, delay_ms: float) -> Uninstall:
    """The leader delays its proposals by ``delay_ms`` but behaves
    correctly otherwise — the canonical performance attack on leader-based
    BFT. Prime's TAT monitoring replaces such a leader; a static-timeout
    baseline tolerates it indefinitely as long as ``delay_ms`` stays below
    the timeout."""
    original_broadcast = node._broadcast
    original_transport_send = node.transport.send
    original_transport_multicast = node.transport.multicast

    def delayed_broadcast(payload, include_self=True):
        if isinstance(payload, (PrePrepare, PbftPrePrepare)):
            signed = node.sign_message(payload)
            if include_self:
                node._dispatch(signed)

            def later() -> None:
                if not node.is_up:
                    return
                for peer in node.config.replicas:
                    if peer != node.name:
                        original_transport_send(peer, signed, size_bytes=400)

            node.simulator.schedule(delay_ms, later)
            return signed
        return original_broadcast(payload, include_self)

    def delayed_transport_send(dst, payload, size_bytes=256):
        # retransmission paths hand signed pre-prepares straight to the
        # transport; a malicious slow leader delays those too
        inner = getattr(payload, "payload", None)
        if isinstance(inner, (PrePrepare, PbftPrePrepare)) and (
            getattr(inner, "leader", None) == node.name
        ):
            node.simulator.schedule(
                delay_ms,
                lambda: original_transport_send(dst, payload, size_bytes)
                if node.is_up else None,
            )
            return True
        return original_transport_send(dst, payload, size_bytes)

    def delayed_transport_multicast(dsts, payload, size_bytes=256):
        # ``runtime.resend`` multicasts; an overlay transport would map
        # that straight onto the stack, past the delayed ``send``
        for dst in dsts:
            delayed_transport_send(dst, payload, size_bytes)

    node._broadcast = delayed_broadcast
    node.transport.send = delayed_transport_send
    node.transport.multicast = delayed_transport_multicast

    def uninstall() -> None:
        node._broadcast = original_broadcast
        node.transport.send = original_transport_send
        node.transport.multicast = original_transport_multicast

    return uninstall


def make_equivocating_leader(node: PrimeNode) -> Uninstall:
    """When leading, send different proposals to different halves of the
    replica set (a safety attack; quorum intersection defeats it)."""
    original_propose = node._propose_tick

    def equivocate() -> None:
        if not node.is_leader or node.in_view_change or node.awaiting_state:
            return
        summaries = [
            node._latest_summaries[s] for s in sorted(node._latest_summaries)
        ]
        if not summaries:
            return
        matrix_a = tuple(summaries)
        matrix_b = tuple(summaries[:-1])  # drop one row: different digest
        seq = node._next_seq
        node._next_seq += 1
        pp_a = node.sign_message(PrePrepare(node.name, node.view, seq, matrix_a))
        pp_b = node.sign_message(PrePrepare(node.name, node.view, seq, matrix_b))
        peers = [p for p in node.config.replicas if p != node.name]
        half = len(peers) // 2
        for peer in peers[:half]:
            node.transport.send(peer, pp_a, size_bytes=400)
        for peer in peers[half:]:
            node.transport.send(peer, pp_b, size_bytes=400)
        node._dispatch(pp_a)

    node._propose_tick = equivocate

    def uninstall() -> None:
        node._propose_tick = original_propose

    return uninstall


def make_seq_skipping_leader(node: PrimeNode, at_ms: float) -> Uninstall:
    """At ``at_ms``, if leading, skip one sequence number, once. Every
    later proposal is ordered, but none executes past the hole, and each
    still includes every summary, so no turnaround-time sample grows."""

    def skip() -> None:
        if node.is_leader:
            node._next_seq += 1

    return node.simulator.schedule(at_ms - node.simulator.now, skip).cancel


def make_share_corruptor(replica: Any) -> Uninstall:
    """The replica emits garbage threshold shares (trying to block or
    pollute endpoint-side combining)."""

    def corrupt(share: ThresholdShare) -> ThresholdShare:
        return ThresholdShare(share.group, share.index, "corrupted")

    replica.share_corruptor = corrupt

    def uninstall() -> None:
        replica.share_corruptor = None

    return uninstall


def make_suspect_spammer(node: PrimeNode) -> Uninstall:
    """Broadcast baseless leader accusations every tick. Fewer than a
    quorum of suspects never forces a view change."""
    return node.every(
        node.config.tat_check_interval_ms,
        lambda: node._broadcast(Suspect(node.name, node.view, "spam")),
    ).stop


def make_delivery_forger(
    replica: Any, fake_record_factory: Callable[[], Any], interval_ms: float = 200.0
) -> Uninstall:
    """Send threshold shares for records that were never ordered (trying to
    trick proxies into operating breakers), each as a one-entry batch with
    a valid Merkle proof. With threshold f+1 and only f compromised
    replicas, the forged batch can never be combined."""
    from ..core.update import BatchDeliveryShare, BreakerCommand, batch_of_records

    def forge() -> None:
        record = fake_record_factory()
        # keyed by the record, so colluding forgers sign the same batch
        batch, entries = batch_of_records("forged", record.client_seq, [record])
        share = replica.crypto.threshold_sign_share(
            replica.threshold_group, replica.share_index, batch
        )
        delivery = BatchDeliveryShare(replica.name, batch, share, entries)
        # routed like a genuine record: every subscriber, then the proxy
        # fronting the substation a breaker command names
        targets = list(replica.subscribers)
        if isinstance(record.payload, BreakerCommand):
            proxy = replica.proxy_resolver(record.payload.substation)
            if proxy is not None:
                targets.append(proxy)
        for target in targets:
            replica.transport.send(target, delivery, size_bytes=350)

    return replica.every(interval_ms, forge).stop
