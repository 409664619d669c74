"""Transport abstraction: how replicas reach each other and their clients.

In the paper, all Spire traffic — replica-to-replica Prime messages and
replica-to-proxy update delivery — flows over the Spines overlay. Tests
and LAN scenarios can instead use the raw simulated network. Both are
hidden behind the :class:`Transport` interface (``send`` / ``multicast`` /
``unwrap``), which is the bottom layer of the replication runtime:
everything a protocol node sends
(:class:`~repro.replication.runtime.ReplicationRuntime`) ends up in one of
these. Fan-out belongs here, not to a per-peer loop above: a transport
that can reach a whole destination set with one datagram (a flooding
overlay) does.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..obs import NULL_OBS
from ..simnet import Process
from ..spines.overlay import OverlayStack

__all__ = ["Transport", "DirectTransport", "OverlayTransport"]


class Transport:
    """Minimal send/unwrap interface used by protocol nodes."""

    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        raise NotImplementedError

    def multicast(self, dsts: Sequence[str], payload: Any,
                  size_bytes: int = 256) -> None:
        """Send one payload to every destination; the default is a
        :meth:`send` per destination."""
        for dst in dsts:
            self.send(dst, payload, size_bytes=size_bytes)

    def unwrap(self, message: Any) -> Optional[Tuple[str, Any]]:
        """Extract (source, payload) from an incoming raw message, or None
        if the message does not belong to this transport."""
        raise NotImplementedError


class _SendCounters:
    """Shared observability wiring for transports.

    Counters are resolved once at construction; when observability is
    disabled (or no ``obs`` is given) sends pay only a None test.
    """

    _sent = None
    _sent_bytes = None

    def _bind_obs(self, obs, prefix: str) -> None:
        obs = obs if obs is not None else NULL_OBS
        if obs.enabled:
            self._sent = obs.counter(f"{prefix}.sent")
            self._sent_bytes = obs.counter(f"{prefix}.sent_bytes")

    def _count_send(self, size_bytes: int) -> None:
        sent = self._sent
        if sent is not None:
            sent.value += 1
            self._sent_bytes.value += size_bytes


class DirectTransport(_SendCounters, Transport):
    """Point-to-point delivery over the raw simulated network."""

    def __init__(self, process: Process, obs=None) -> None:
        self._process = process
        self._bind_obs(obs, "prime.transport.direct")

    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        sent = self._sent
        if sent is not None:
            sent.value += 1
            self._sent_bytes.value += size_bytes
        return self._process.send(dst, payload, size_bytes)

    def unwrap(self, message: Any) -> Optional[Tuple[str, Any]]:
        return None  # raw network messages arrive with src already split out


class OverlayTransport(_SendCounters, Transport):
    """Delivery via a Spines overlay stack."""

    def __init__(self, stack: OverlayStack, obs=None) -> None:
        self._stack = stack
        self._bind_obs(obs, "prime.transport.overlay")

    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        sent = self._sent
        if sent is not None:
            sent.value += 1
            self._sent_bytes.value += size_bytes
        return self._stack.send(dst, payload, size_bytes=size_bytes)

    def multicast(self, dsts: Sequence[str], payload: Any,
                  size_bytes: int = 256) -> None:
        # counted per destination, like the sends this replaces, so the
        # counters compare across overlay modes
        sent = self._sent
        if sent is not None:
            sent.value += len(dsts)
            self._sent_bytes.value += size_bytes * len(dsts)
        self._stack.multicast(dsts, payload, size_bytes=size_bytes)

    def unwrap(self, message: Any) -> Optional[Tuple[str, Any]]:
        return OverlayStack.unwrap(message)
