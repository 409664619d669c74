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


def _read_sends(transport: Transport, obs, prefix: str) -> None:
    """Let ``obs`` read the send counts ``transport`` keeps."""
    obs = obs if obs is not None else NULL_OBS
    obs.read(f"{prefix}.sent", lambda: transport.sent)
    obs.read(f"{prefix}.sent_bytes", lambda: transport.sent_bytes)


class DirectTransport(Transport):
    """Point-to-point delivery over the raw simulated network."""

    def __init__(self, process: Process, obs=None) -> None:
        self._process = process
        self.sent = self.sent_bytes = 0
        _read_sends(self, obs, "prime.transport.direct")

    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        self.sent += 1
        self.sent_bytes += size_bytes
        return self._process.send(dst, payload, size_bytes)

    def unwrap(self, message: Any) -> Optional[Tuple[str, Any]]:
        return None  # raw network messages arrive with src already split out


class OverlayTransport(Transport):
    """Delivery via a Spines overlay stack."""

    def __init__(self, stack: OverlayStack, obs=None) -> None:
        self._stack = stack
        self.sent = self.sent_bytes = 0
        _read_sends(self, obs, "prime.transport.overlay")

    def send(self, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        self.sent += 1
        self.sent_bytes += size_bytes
        return self._stack.send(dst, payload, size_bytes=size_bytes)

    def multicast(self, dsts: Sequence[str], payload: Any,
                  size_bytes: int = 256) -> None:
        # counted per destination, like the sends this replaces, so the
        # counts compare across overlay modes
        sends = len(dsts)
        self.sent += sends
        self.sent_bytes += size_bytes * sends
        self._stack.multicast(dsts, payload, size_bytes=size_bytes)

    def unwrap(self, message: Any) -> Optional[Tuple[str, Any]]:
        return OverlayStack.unwrap(message)
