"""Overlay wire messages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Tuple

__all__ = [
    "OverlayData",
    "OverlayIngress",
    "OverlayForward",
    "OverlayDeliver",
    "OverlayHello",
]


# The four data-path wrappers below are created for every application
# message crossing the overlay, which puts their constructors on the
# simulation hot path. They are treated as immutable after construction
# but are deliberately *not* ``frozen=True``: a frozen dataclass pays an
# ``object.__setattr__`` call per field on construction, several times
# the cost of a plain attribute store. ``slots=True`` keeps the three
# envelopes compact and attribute access fast; OverlayData is the object
# every link MAC digests, so it has an instance dict for the entry the
# crypto layer leaves on it (its encoding and digest, see
# ``repro.crypto.encoding``). OverlayHello stays frozen — it is
# control-plane rate, not data rate.


@dataclass
class OverlayData:
    """An end-to-end overlay datagram.

    ``origin``/``dests`` are endpoint (not daemon) names; ``seq`` is a
    per-origin sequence number used for flood deduplication. ``dests`` is
    the destination *set*: a unicast names one endpoint, a multicast
    names every destination and is still one datagram on every overlay —
    one ingress, one dedup key, one link MAC per hop (the MAC covers
    every header field, ``dests`` included, and the digest of
    ``payload``), one delivery per named endpoint. Ingress drops an
    empty set.
    """

    encoded_by_digest: ClassVar[Tuple[str, ...]] = ("payload",)

    origin: str
    dests: Tuple[str, ...]
    seq: int
    payload: Any
    size_bytes: int = 256
    #: virtual send time at the origin endpoint (for end-to-end overlay
    #: latency profiling; 0.0 when the sender is not instrumented)
    sent_at: float = 0.0


@dataclass(slots=True)
class OverlayIngress:
    """Endpoint -> home daemon: please route this datagram."""

    data: OverlayData


@dataclass(slots=True)
class OverlayForward:
    """Daemon -> neighbor daemon, authenticated by a per-link MAC."""

    data: OverlayData
    sender: str
    mac: bytes
    #: virtual time this hop's transmission started (per-hop latency
    #: profiling). Not covered by the link MAC — the MAC authenticates
    #: ``data`` only, as in the seed — so tampering cannot forge payloads.
    sent_at: float = 0.0


@dataclass(slots=True)
class OverlayDeliver:
    """Destination daemon -> attached endpoint."""

    data: OverlayData


@dataclass(frozen=True)
class OverlayHello:
    """Daemon -> neighbor daemon keepalive probe (link monitoring).

    Sent on every advertised link when the self-healing control plane is
    enabled. ``sent_at`` lets the receiver estimate one-way link latency;
    the MAC covers ``(sender, seq, sent_at)`` so an external attacker can
    neither forge liveness nor replay a stale latency claim as fresh.
    """

    sender: str
    seq: int
    sent_at: float
    mac: bytes = b""
