"""Replicated-application interface executed on top of Prime.

The Spire SCADA master (``repro.core.master``) implements this interface;
the simple apps here are used by protocol tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..crypto.encoding import digest
from .messages import ClientUpdate

__all__ = ["ReplicatedApplication", "KeyValueApp", "LoggingApp"]


class ReplicatedApplication:
    """State machine interface; all methods must be deterministic."""

    def execute(self, update: ClientUpdate, order_index: int) -> Any:
        """Apply one agreed update; ``order_index`` is its global position."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Return a canonical-encodable snapshot of the full state."""
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        """Replace state with a snapshot produced by :meth:`snapshot`."""
        raise NotImplementedError

    def state_digest(self) -> str:
        """Digest of current state (used in checkpoints)."""
        return digest(self.snapshot())


class KeyValueApp(ReplicatedApplication):
    """A tiny key-value store: payloads are ("set", key, value) / ("get", key)."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}

    def execute(self, update: ClientUpdate, order_index: int) -> Any:
        payload = update.payload
        if not isinstance(payload, tuple) or not payload:
            return ("error", "malformed")
        op = payload[0]
        if op == "set" and len(payload) == 3:
            self.data[payload[1]] = payload[2]
            return ("ok", payload[1])
        if op == "get" and len(payload) == 2:
            return ("value", self.data.get(payload[1]))
        return ("error", "unknown-op")

    def snapshot(self) -> Any:
        return dict(self.data)

    def restore(self, snapshot: Any) -> None:
        self.data = dict(snapshot)


class LoggingApp(ReplicatedApplication):
    """Records the exact execution order; the log is the whole state, so
    the chaos oracle compares it with its replay of the total order."""

    def __init__(self) -> None:
        self.log: List[Tuple[int, str, int, Any]] = []

    def execute(self, update: ClientUpdate, order_index: int) -> Any:
        entry = (order_index, update.client, update.client_seq, update.payload)
        self.log.append(entry)
        return entry

    def snapshot(self) -> Any:
        return tuple(self.log)

    def restore(self, snapshot: Any) -> None:
        self.log = [tuple(entry) for entry in snapshot]
