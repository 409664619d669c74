"""The replication runtime: signing, sending and receiving for one replica.

:class:`ReplicationRuntime` is the layer a protocol node mounts its
stages on. It owns the envelope discipline (sign on the way out, verify
on the way in), the fan-out over the replica membership, the loopback
rule (does a self-addressed message dispatch locally or get dropped?),
and the per-kind send count — everything that used to be copy-pasted
between ``PrimeNode`` and ``PbftNode``.

The transport is read through the owning process on every send
(``process.transport``), never captured: deployments install an
:class:`~repro.replication.transport.OverlayTransport` *after*
construction, and attack installers wrap ``node.transport.send`` /
``.multicast`` at runtime — both must take effect immediately.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from ..crypto.provider import CryptoProvider
from ..obs import Observability
from .dispatch import Dispatcher, KindCounts
from .messages import SignedMessage
from .transport import Transport

__all__ = ["ReplicationRuntime"]


class ReplicationRuntime:
    """Protocol-agnostic send/receive machinery for one replica process.

    ``replicas_fn`` returns the current membership (consulted per
    operation, so a swapped config takes effect immediately);
    ``size_of`` models wire size per payload; ``loopback_dispatch``
    selects the self-send rule: Prime drops self-addressed point-to-point
    messages before signing, the PBFT baseline signs and dispatches them
    locally.
    """

    def __init__(
        self,
        process: Any,
        crypto: CryptoProvider,
        replicas_fn: Callable[[], Tuple[str, ...]],
        dispatcher: Dispatcher,
        size_of: Callable[[Any], int],
        obs: Optional[Observability] = None,
        metric_prefix: str = "replication",
        loopback_dispatch: bool = False,
    ) -> None:
        self._process = process
        self.crypto = crypto
        self.replicas_fn = replicas_fn
        self.dispatcher = dispatcher
        self.size_of = size_of
        self.loopback_dispatch = loopback_dispatch
        #: sends per payload class, one per destination
        self.sent = KindCounts(obs, f"{metric_prefix}.send")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._process.name

    @property
    def transport(self) -> Transport:
        return self._process.transport

    # ------------------------------------------------------------------
    # Envelope discipline
    # ------------------------------------------------------------------
    def sign(self, payload: Any) -> SignedMessage:
        return SignedMessage(payload, self.crypto.sign(self.name, payload))

    def verify(self, signed: SignedMessage) -> bool:
        return self.crypto.verify(signed.signature, signed.payload)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any, include_self: bool = True) -> SignedMessage:
        """Sign once, multicast to every peer, optionally dispatch locally.

        Local dispatch goes through the *process's* ``_dispatch`` so
        instrumentation-time wrappers (attack installers) intercept it
        exactly as they intercept network-delivered messages.
        """
        signed = self.sign(payload)
        self._fan_out(signed, self.replicas_fn(), self.size_of(payload))
        if include_self:
            self._process._dispatch(signed)
        return signed

    def send_to(self, peer: str, payload: Any) -> None:
        """Point-to-point send, applying this protocol's loopback rule."""
        if peer == self.name:
            if self.loopback_dispatch:
                self._process._dispatch(self.sign(payload))
            return
        self.transport.send(peer, self.sign(payload), size_bytes=self.size_of(payload))
        self.sent[payload.__class__] += 1

    def resend(
        self,
        signed: SignedMessage,
        peers: Optional[Iterable[str]] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Retransmit an already-signed message (no re-sign, no loopback)."""
        self._fan_out(
            signed,
            peers if peers is not None else self.replicas_fn(),
            size_bytes if size_bytes is not None else self.size_of(signed.payload),
        )

    def _fan_out(self, signed: SignedMessage, peers: Iterable[str], size: int) -> None:
        """Hand the transport one multicast for every peer but ourselves."""
        name = self.name
        dsts = [peer for peer in peers if peer != name]
        if dsts:
            self.transport.multicast(dsts, signed, size_bytes=size)
            self.sent[signed.payload.__class__] += len(dsts)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, payload: Any) -> None:
        """The body of ``Process.on_message``: unwrap the transport
        envelope, drop anything whose signature does not verify, and
        dispatch the rest."""
        unwrapped = self._process.transport.unwrap(payload)
        if unwrapped is not None:
            payload = unwrapped[1]
        if isinstance(payload, SignedMessage):
            if not self.crypto.verify(payload.signature, payload.payload):
                return
            self._process._dispatch(payload)

    def receive_unwrapped(self, payload: Any) -> None:
        """Like :meth:`receive` for a payload already stripped of its
        transport envelope — callers that had to unwrap for their own
        routing (e.g. the SCADA replica's submission path) avoid a second
        unwrap per message."""
        if isinstance(payload, SignedMessage):
            if not self.crypto.verify(payload.signature, payload.payload):
                return
            self._process._dispatch(payload)
