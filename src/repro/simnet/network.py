"""Simulated message-passing network.

Models point-to-point links between named processes with per-link latency,
jitter, loss, and bandwidth, plus the failure hooks the attack models need
(partitions, per-link degradation, message filters).

The network is *unauthenticated and unreliable* by design — exactly the
substrate the paper assumes. Authentication is layered on top by
``repro.crypto`` and the Spines link protocol; reliability is layered on by
the protocols themselves (Prime retransmits, Spines floods).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, TYPE_CHECKING

from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Process

__all__ = ["LinkSpec", "Network", "NetworkStats"]

#: A message filter receives (src, dst, payload) and returns either the
#: payload (possibly replaced), or None to drop the message.
MessageFilter = Callable[[str, str, Any], Optional[Any]]


@dataclass
class LinkSpec:
    """Static properties of a directed link.

    latency_ms:     one-way propagation delay.
    jitter_ms:      uniform extra delay in [0, jitter_ms).
    loss:           independent drop probability in [0, 1].
    bandwidth_mbps: serialization rate; 0 means infinite.
    """

    latency_ms: float = 1.0
    jitter_ms: float = 0.0
    loss: float = 0.0
    bandwidth_mbps: float = 0.0

    def copy(self) -> "LinkSpec":
        return LinkSpec(self.latency_ms, self.jitter_ms, self.loss, self.bandwidth_mbps)


class _LinkState:
    """Dynamic, attack-modifiable state of a directed link.

    The derived fields (``base_delay_ms``, ``loss``, ``fast``) are
    recomputed by :meth:`refresh` whenever the spec or the attack state
    changes, so :meth:`Network.send` decides the clean-LAN fast path —
    fixed delay, no loss/jitter/bandwidth draws — with one attribute
    test instead of re-deriving it per message.
    """

    __slots__ = (
        "spec", "extra_delay_ms", "extra_loss", "blocked", "queue_free_at",
        "base_delay_ms", "loss", "fast",
    )

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        self.extra_delay_ms = 0.0
        self.extra_loss = 0.0
        self.blocked = False
        self.queue_free_at = 0.0  # next time the serialization "wire" is free
        self.refresh()

    def refresh(self) -> None:
        spec = self.spec
        # same expressions send() used to evaluate per message — keep the
        # float arithmetic identical so delivery times stay bit-identical
        self.base_delay_ms = spec.latency_ms + self.extra_delay_ms
        self.loss = min(1.0, spec.loss + self.extra_loss)
        self.fast = (
            not self.blocked
            and self.loss == 0.0
            and spec.jitter_ms == 0.0
            and spec.bandwidth_mbps == 0.0
        )


@dataclass(slots=True)
class NetworkStats:
    """Counters kept by the network for reporting."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_filter: int = 0
    dropped_down: int = 0
    bytes_sent: int = 0


class Network:
    """Registry of processes plus the link model between them.

    Links default to ``default_link`` and can be specialized per directed
    pair with :meth:`set_link`. Site-aware helpers let deployment code set
    LAN latencies within a site and WAN latencies between sites.
    """

    def __init__(self, simulator: Simulator, default_link: Optional[LinkSpec] = None) -> None:
        self.simulator = simulator
        self.default_link = default_link or LinkSpec()
        # registration-ordered name view (failure injectors sample from
        # it, so iteration order is part of the determinism contract)
        self._processes: Dict[str, "Process"] = {}
        # src name -> dst name -> state; a link may be described before
        # either end is registered
        self._links: Dict[str, Dict[str, _LinkState]] = {}
        # src name -> dst name -> (link state, destination process): what
        # send() needs per message, resolved on first use. Nothing ever
        # invalidates a hop — link states are mutated in place and
        # processes never deregister — and a miss is not kept, so a
        # destination registered after a dropped send is found.
        self._hops: Dict[str, Dict[str, Tuple[_LinkState, "Process"]]] = {}
        self._partitions: list[Tuple[frozenset, frozenset]] = []
        self._filters: list[MessageFilter] = []
        self.stats = NetworkStats()
        # one shared stream (draw order is part of the determinism
        # contract); the bound method skips two attribute lookups per draw
        self._rng = simulator.rng("network")
        self._rng_random = self._rng.random

    # ------------------------------------------------------------------
    # Registration and topology
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        """Register a process under its name."""
        if process.name in self._processes:
            raise ValueError(f"duplicate process name: {process.name}")
        self._processes[process.name] = process

    def process(self, name: str) -> "Process":
        return self._processes[name]

    @property
    def process_names(self) -> Iterable[str]:
        return self._processes.keys()

    def _link(self, src: str, dst: str) -> _LinkState:
        by_src = self._links.setdefault(src, {})
        state = by_src.get(dst)
        if state is None:
            state = by_src[dst] = _LinkState(self.default_link.copy())
        return state

    def set_link(self, src: str, dst: str, spec: LinkSpec, symmetric: bool = True) -> None:
        """Set the static link spec between two processes."""
        state = self._link(src, dst)
        state.spec = spec.copy()
        state.refresh()
        if symmetric:
            state = self._link(dst, src)
            state.spec = spec.copy()
            state.refresh()

    # ------------------------------------------------------------------
    # Failure / attack hooks
    # ------------------------------------------------------------------
    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> Callable[[], None]:
        """Cut all links between two groups; returns a heal function."""
        entry = (frozenset(group_a), frozenset(group_b))
        self._partitions.append(entry)

        def heal() -> None:
            if entry in self._partitions:
                self._partitions.remove(entry)

        return heal

    def degrade_link(
        self,
        src: str,
        dst: str,
        extra_delay_ms: float = 0.0,
        extra_loss: float = 0.0,
        symmetric: bool = True,
    ) -> Callable[[], None]:
        """Add delay/loss to a link (a targeted DoS); returns a restore fn."""
        states = [self._link(src, dst)]
        if symmetric:
            states.append(self._link(dst, src))
        for state in states:
            state.extra_delay_ms += extra_delay_ms
            state.extra_loss = min(1.0, state.extra_loss + extra_loss)
            state.refresh()

        def restore() -> None:
            for state in states:
                state.extra_delay_ms = max(0.0, state.extra_delay_ms - extra_delay_ms)
                state.extra_loss = max(0.0, state.extra_loss - extra_loss)
                state.refresh()

        return restore

    def block_link(self, src: str, dst: str, symmetric: bool = True) -> Callable[[], None]:
        """Completely block a link; returns an unblock function."""
        states = [self._link(src, dst)]
        if symmetric:
            states.append(self._link(dst, src))
        for state in states:
            state.blocked = True
            state.refresh()

        def unblock() -> None:
            for state in states:
                state.blocked = False
                state.refresh()

        return unblock

    def add_filter(self, fn: MessageFilter) -> Callable[[], None]:
        """Install a message filter (attack hook); returns a remove fn."""
        self._filters.append(fn)

        def remove() -> None:
            if fn in self._filters:
                self._filters.remove(fn)

        return remove

    def _partitioned(self, src: str, dst: str) -> bool:
        for group_a, group_b in self._partitions:
            if (src in group_a and dst in group_b) or (src in group_b and dst in group_a):
                return True
        return False

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 256) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (it may still be
        lost); False if it was dropped immediately (partition, filter,
        blocked link, or destination unknown).
        """
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        try:
            link, process = self._hops[src][dst]
        except KeyError:
            process = self._processes.get(dst)
            if process is None:
                stats.dropped_down += 1
                return False
            link = self._link(src, dst)
            self._hops.setdefault(src, {})[dst] = (link, process)
        if self._partitions and self._partitioned(src, dst):
            stats.dropped_partition += 1
            return False
        if self._filters:
            for fn in self._filters:
                payload = fn(src, dst, payload)
                if payload is None:
                    stats.dropped_filter += 1
                    return False
        if link.fast:
            # clean link: fixed delay, no loss/jitter/bandwidth draws
            self.simulator.post(link.base_delay_ms, self._deliver, src, process, payload)
            return True
        if link.blocked:
            stats.dropped_partition += 1
            return False
        loss = link.loss
        if loss > 0.0 and self._rng_random() < loss:
            stats.dropped_loss += 1
            return False
        delay = link.base_delay_ms
        spec = link.spec
        if spec.jitter_ms > 0.0:
            delay += self._rng_random() * spec.jitter_ms
        if spec.bandwidth_mbps > 0.0:
            serialize_ms = (size_bytes * 8) / (spec.bandwidth_mbps * 1000.0)
            start = max(self.simulator.now, link.queue_free_at)
            link.queue_free_at = start + serialize_ms
            delay += (start - self.simulator.now) + serialize_ms
        self.simulator.post(delay, self._deliver, src, process, payload)
        return True

    def inject(self, src: str, dst: str, payload: Any, delay_ms: float = 0.0) -> None:
        """Schedule a delivery directly, bypassing filters, loss and links.

        This is the fault-injection escape hatch: message-level fault
        primitives (duplicate, reorder, delay-spike) intercept a message in
        a filter and re-introduce copies of it through here, without the
        re-introduced copy being filtered again (which would recurse).
        """
        self.simulator.post(delay_ms, self._deliver_named, src, dst, payload)

    def _deliver_named(self, src: str, dst: str, payload: Any) -> None:
        """Name-resolving delivery used by :meth:`inject` only: the
        destination may not be registered when the injection is scheduled,
        so resolution is deferred to delivery time."""
        process = self._processes.get(dst)
        if process is None:
            self.stats.dropped_down += 1
            return
        self._deliver(src, process, payload)

    def _deliver(self, src: str, process: "Process", payload: Any) -> None:
        # processes are never deregistered, so send() resolves the
        # destination once and the scheduled delivery holds the process
        # itself — no per-message name lookup on the delivery side
        if not process.is_up:
            self.stats.dropped_down += 1
            return
        self.stats.delivered += 1
        process.on_message(src, payload)

    def broadcast(self, src: str, dsts: Iterable[str], payload: Any, size_bytes: int = 256) -> int:
        """Send ``payload`` to every destination; returns count put on wire."""
        return sum(1 for dst in dsts if self.send(src, dst, payload, size_bytes))
