"""Message dispatch: one route per payload type plus a per-kind count.

A node registers one handler per payload type; :meth:`Dispatcher.dispatch`
checks a verified envelope, routes it and counts it in
:attr:`Dispatcher.counts`, whether or not observability is on (``obs``
reads ``{prefix}.msgs.{Kind}`` from a kind's first routed message on).
The check runs *before* the handler: the kind's shape check, generated
from its annotations (:mod:`repro.crypto.schema`), and for a kind with a
sender field the rule that the field names the envelope signer, a member
— "Byzantine replicas can only lie in their own messages", in one place.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..crypto.schema import check_for
from ..obs import NULL_OBS, Observability
from .messages import SignedMessage

__all__ = ["Dispatcher", "KindCounts"]


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


class Dispatcher:
    """Typed message router for one replica. ``members()`` is the current
    membership, read per message; ``metric_prefix`` (``prime``, ``pbft``)
    namespaces the per-kind readings that scenario reports name."""

    def __init__(
        self,
        members: Callable[[], Tuple[str, ...]],
        obs: Optional[Observability] = None,
        metric_prefix: str = "replication",
    ) -> None:
        #: routed messages per payload class
        self.counts = KindCounts(obs, f"{metric_prefix}.msgs")
        self._members = members
        #: payload class -> (check, extra rule or None, handler(signed, payload))
        self._routes: Dict[type, Tuple[Callable[..., bool], Any, Callable]] = {}

    def register(
        self,
        kind: type,
        handler: Callable[[SignedMessage, Any], None],
        sender: Optional[str] = None,
        rule: Optional[Callable[[Any, str], bool]] = None,
    ) -> None:
        """Route ``kind`` to ``handler``, replacing any previous binding.
        ``sender`` names the field that must be the envelope signer, and
        ``rule(payload, signer)`` is one more test to pass."""
        self._routes[kind] = (check_for(kind, sender), rule, handler)

    def dispatch(self, signed: SignedMessage) -> None:
        """Check, route and count one verified envelope."""
        payload = signed.payload
        route = self._routes.get(payload.__class__)
        if route is None:
            return
        check, rule, handler = route
        signer = signed.signature.signer
        if check(payload, signer, self._members) and (rule is None or rule(payload, signer)):
            self.counts[payload.__class__] += 1
            handler(signed, payload)
