"""Message dispatch: handler registration plus a per-kind message count.

Replaces the hand-rolled ``if/elif`` (or per-call dict) dispatch that each
protocol node used to carry. A node registers one handler per payload
type; :meth:`Dispatcher.dispatch` authenticates the claimed sender,
routes, and counts the message in :attr:`Dispatcher.counts`, whether or
not observability is on. ``obs`` reads each kind's count as
``{prefix}.msgs.{Kind}`` from its first routed message on.

The sender check runs *before* the handler: a message whose claimed
sender field does not match the envelope signer (or names a non-member)
is dropped without ever reaching protocol code — the "Byzantine replicas
can only lie in their own messages" rule enforced in one place.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..obs import NULL_OBS, Observability
from .messages import SignedMessage

__all__ = ["Dispatcher", "KindCounts", "sender_field_check"]

#: Validates a payload's claimed sender against the envelope signer.
SenderCheck = Callable[[Any, str], bool]

#: A registered handler: ``handler(signed, payload)``.
Handler = Callable[[SignedMessage, Any], None]


class KindCounts(dict):
    """Payload class -> count. ``counts[kind] += n`` is the whole
    hot-path cost; the first count of a kind lets ``obs`` read it as
    ``{prefix}.{Kind}`` (so look a count up with ``.get``: indexing a
    kind never counted registers it)."""

    def __init__(self, obs: Optional[Observability], prefix: str) -> None:
        super().__init__()
        self._obs = obs if obs is not None else NULL_OBS
        self._prefix = prefix

    def __missing__(self, kind: type) -> int:
        self._obs.read(f"{self._prefix}.{kind.__name__}", lambda: self.get(kind, 0))
        return 0


def sender_field_check(field: str, membership_fn: Callable[[], Any]) -> SenderCheck:
    """The standard check: ``payload.<field>`` must equal the envelope
    signer and be a current member. ``membership_fn`` is consulted per
    message so a reconfigured membership takes effect immediately."""

    def check(payload: Any, signer: str) -> bool:
        claimed = getattr(payload, field)
        return claimed == signer and claimed in membership_fn()

    return check


class Dispatcher:
    """Typed message router for one replica.

    ``metric_prefix`` namespaces the per-kind readings (``prime``,
    ``pbft``, ...); keep it stable — the names appear in scenario
    reports.
    """

    def __init__(
        self, obs: Optional[Observability] = None, metric_prefix: str = "replication"
    ) -> None:
        #: routed messages per payload class
        self.counts = KindCounts(obs, f"{metric_prefix}.msgs")
        self._handlers: Dict[type, Handler] = {}
        self._sender_checks: Dict[type, SenderCheck] = {}
        # per-kind (check, handler) route entries, resolved lazily (once
        # per kind) so the dispatch hot path does a single dict lookup per
        # message; invalidated by register() when a handler is rebound
        self._route: Dict[type, Any] = {}

    def register(
        self,
        kind: type,
        handler: Handler,
        sender_check: Optional[SenderCheck] = None,
    ) -> None:
        """Bind ``handler`` for payload type ``kind`` (replacing any
        previous binding — recovery re-registers against fresh stages)."""
        self._handlers[kind] = handler
        if sender_check is not None:
            self._sender_checks[kind] = sender_check
        else:
            self._sender_checks.pop(kind, None)
        self._route.pop(kind, None)

    def _dispatch_slow(self, signed: SignedMessage, payload: Any) -> None:
        """First message of a kind: authenticate, route, then cache the
        route entry. A kind is counted once a message of it actually
        reaches its handler."""
        kind = payload.__class__
        check = self._sender_checks.get(kind)
        if check is not None and not check(payload, signed.signature.signer):
            return
        handler = self._handlers.get(kind)
        if handler is None:
            return
        self._route[kind] = (check, handler)
        self.counts[kind] += 1
        handler(signed, payload)

    def dispatch(self, signed: SignedMessage) -> None:
        """Authenticate, route and count one verified envelope."""
        payload = signed.payload
        kind = payload.__class__
        entry = self._route.get(kind)
        if entry is None:
            self._dispatch_slow(signed, payload)
            return
        check, handler = entry
        if check is not None and not check(payload, signed.signature.signer):
            return
        self.counts[kind] += 1
        handler(signed, payload)
