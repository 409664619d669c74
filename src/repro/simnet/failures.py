"""Failure and attack injection scheduled against the virtual clock.

This module provides the scenario-scripting layer the benchmarks use: crash
a node at t=X, partition a site between t=X and t=Y, run a DoS against a
replica's links for a window, etc. All injections are expressed against
virtual time, which is what makes the attack benchmarks deterministic.

Every injection is a *window* — something done at ``start_ms`` and undone
at ``start_ms + duration_ms`` — and :meth:`FailureInjector.window` is the
one place that shape is written; each public method says only what its
fault does and how to undo it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .engine import Simulator
from .network import Network

__all__ = ["FailureInjector", "DosAttack", "CorruptedPayload"]

#: what a window's ``apply`` returns: (subject for the log, undo)
Opened = Tuple[str, Callable[[], None]]


@dataclass(frozen=True)
class CorruptedPayload:
    """Stand-in for a payload mangled on the wire.

    No protocol component recognizes this type, so a fully-corrupted
    message is discarded at the receiver's parsing layer — the same fate a
    mangled frame meets in a real deployment. When the corrupted message is
    a signed wrapper, only its inner payload is replaced, so the receiver
    instead exercises its signature-verification rejection path.
    """

    original_type: str
    nonce: int


@dataclass
class DosAttack:
    """Description of a denial-of-service attack on a target's links.

    The paper's network-level attacker floods the links of chosen replicas
    (most effectively the current Prime leader). We model the effect on
    the victim: every link touching ``target`` gains ``extra_delay_ms``
    and ``extra_loss`` for the duration of the attack.
    """

    target: str
    start_ms: float
    duration_ms: float
    extra_delay_ms: float = 300.0
    extra_loss: float = 0.2

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


class FailureInjector:
    """Schedules crashes, partitions, and DoS windows on the virtual clock."""

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self.simulator = simulator
        self.network = network
        self._log: List[str] = []

    @property
    def log(self) -> List[str]:
        """Human-readable record of every injected event (for reports)."""
        return list(self._log)

    def _note(self, text: str) -> None:
        self._log.append(f"[t={self.simulator.now:10.1f}ms] {text}")

    def window(
        self, label: str, start_ms: float, duration_ms: float,
        apply: Callable[[], Opened], verbs: Tuple[str, str] = ("start", "stop"),
    ) -> None:
        """The window primitive every method below is one call of.

        ``apply()`` runs at ``start_ms``, injects the fault and returns
        ``(subject, undo)``; ``undo()`` runs at ``start_ms + duration_ms``.
        Both are noted in the log as ``"<label> <verb> <subject>"`` — the
        subject is known only once ``apply`` has run, so a window may pick
        its victim at *fire* time.
        """
        opened: List[Opened] = []

        def start() -> None:
            opened.append(apply())
            self._note(" ".join(filter(None, (label, verbs[0], opened[0][0]))))

        def stop() -> None:
            subject, undo = opened.pop()
            undo()
            self._note(" ".join(filter(None, (label, verbs[1], subject))))

        self.simulator.schedule_at(start_ms, start)
        self.simulator.schedule_at(start_ms + duration_ms, stop)

    # ------------------------------------------------------------------
    # Crashes and partitions
    # ------------------------------------------------------------------
    def crash_window(self, node_name: str, start_ms: float, duration_ms: float) -> None:
        """Crash a node for a bounded window, then recover it."""
        self.crash_resolved_window(lambda: node_name, start_ms, duration_ms, label="")

    def crash_resolved_window(
        self,
        resolve: Callable[[], str],
        start_ms: float,
        duration_ms: float,
        label: str = "CRASH-RESOLVED",
    ) -> None:
        """Crash whichever node ``resolve()`` names when the window opens.

        The target is chosen at *fire* time, not schedule time — this is
        what a ``leader_kill`` needs: the adversary observes who holds the
        leader role at the instant of attack and kills that process.
        """
        def apply() -> Opened:
            target = resolve()
            self.network.process(target).crash()
            return target, lambda: self.network.process(target).recover()

        self.window(label, start_ms, duration_ms, apply, ("CRASH", "RECOVER"))

    def partition_window(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        start_ms: float,
        duration_ms: float,
    ) -> None:
        """Cut connectivity between two groups for a window (site outage)."""
        groups = (list(group_a), list(group_b))
        self.partition_resolved_window(lambda: groups, start_ms, duration_ms, label="")

    def partition_resolved_window(
        self,
        resolve_groups: Callable[[], tuple],
        start_ms: float,
        duration_ms: float,
        label: str = "PARTITION-RESOLVED",
    ) -> None:
        """Partition the two groups ``resolve_groups()`` returns at fire time.

        Fire-time resolution mirrors :meth:`crash_resolved_window`: a
        ``leader_partition`` isolates whoever is leader *when the attack
        lands*, not whoever was leader when the schedule was drawn.
        """
        def apply() -> Opened:
            group_a, group_b = (list(group) for group in resolve_groups())
            return f"{group_a} | {group_b}", self.network.partition(group_a, group_b)

        self.window(label, start_ms, duration_ms, apply, ("PARTITION", "HEAL"))

    # ------------------------------------------------------------------
    # Link faults: DoS, gray failures, link kill
    # ------------------------------------------------------------------
    def _degrade_window(
        self, label: str, src: str, peers: Optional[Iterable[str]],
        start_ms: float, duration_ms: float, symmetric: bool = True, **extra: float,
    ) -> None:
        """Degrade the links from ``src`` to each peer for a window.

        ``peers`` defaults to every other registered process; narrowing it
        keeps large scenarios cheap.
        """
        peer_list = list(peers) if peers is not None else [
            name for name in self.network.process_names if name != src
        ]

        def apply() -> Opened:
            restores = [
                self.network.degrade_link(src, peer, symmetric=symmetric, **extra)
                for peer in peer_list
            ]

            def undo() -> None:
                for restore in restores:
                    restore()

            arrow = "<->" if symmetric else "->"
            return f"{src}{arrow}{','.join(peer_list)} {extra}", undo

        self.window(label, start_ms, duration_ms, apply)

    def dos_node(self, attack: DosAttack, peers: Optional[Iterable[str]] = None) -> None:
        """Degrade every link between the target and its peers for a window."""
        self._degrade_window(
            "DOS", attack.target, peers, attack.start_ms, attack.duration_ms,
            extra_delay_ms=attack.extra_delay_ms, extra_loss=attack.extra_loss,
        )

    def slow_node(
        self,
        node_name: str,
        start_ms: float,
        duration_ms: float,
        extra_delay_ms: float = 50.0,
        peers: Optional[Iterable[str]] = None,
    ) -> None:
        """A node that is up but sluggish: all its outbound links slow down
        (asymmetric — replies still arrive promptly, the classic gray
        failure that defeats naive crash detectors)."""
        self._degrade_window(
            "SLOW-NODE", node_name, peers, start_ms, duration_ms,
            symmetric=False, extra_delay_ms=extra_delay_ms,
        )

    def asym_link_window(
        self,
        src: str,
        dst: str,
        start_ms: float,
        duration_ms: float,
        extra_delay_ms: float = 100.0,
        extra_loss: float = 0.0,
    ) -> None:
        """Degrade one direction of one link (asymmetric gray failure)."""
        self._degrade_window(
            "ASYM-LINK", src, [dst], start_ms, duration_ms, symmetric=False,
            extra_delay_ms=extra_delay_ms, extra_loss=extra_loss,
        )

    def dos_link_window(
        self,
        src: str,
        dst: str,
        start_ms: float,
        duration_ms: float,
        extra_delay_ms: float = 300.0,
        extra_loss: float = 0.2,
    ) -> None:
        """Degrade a single (bidirectional) link for a window."""
        self._degrade_window(
            "DOS-LINK", src, [dst], start_ms, duration_ms,
            extra_delay_ms=extra_delay_ms, extra_loss=extra_loss,
        )

    def block_link_window(
        self,
        a: str,
        b: str,
        start_ms: float,
        duration_ms: float,
    ) -> None:
        """Sever one (bidirectional) link for a window — a clean link kill,
        as opposed to :meth:`dos_link_window`'s degradation. The overlay's
        self-healing control plane should detect this and reroute."""
        self.window(
            "LINK-KILL", start_ms, duration_ms,
            lambda: (f"{a}<->{b}", self.network.block_link(a, b)),
        )

    # ------------------------------------------------------------------
    # Message-level faults
    # ------------------------------------------------------------------
    def _message_window(
        self, label: str, targets: Optional[Iterable[str]], start_ms: float,
        duration_ms: float, probability: float, rng_name: str,
        hit: Callable[[Any, str, str, Any], Optional[Any]],
    ) -> None:
        """Install a network filter for a window.

        The filter matches messages whose source or destination is in
        ``targets`` (every message when ``targets`` is None); each match
        is, with ``probability``, replaced by ``hit(rng, src, dst,
        payload)`` — None swallows it. All randomness comes from the named
        simulator stream, so fault decisions are reproducible from
        (seed, schedule).
        """
        scope = frozenset(targets) if targets is not None else None
        rng = self.simulator.rng(rng_name)

        def fn(src: str, dst: str, payload: Any) -> Optional[Any]:
            if (scope is None or src in scope or dst in scope) \
                    and rng.random() < probability:
                return hit(rng, src, dst, payload)
            return payload

        subject = f"p={probability} on {sorted(scope) if scope else 'all'}"
        self.window(
            label, start_ms, duration_ms,
            lambda: (subject, self.network.add_filter(fn)),
        )

    def drop_messages(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        probability: float = 0.3,
        rng_name: str = "faults/drop",
    ) -> None:
        """Drop each matching message independently with ``probability``."""
        self._message_window(
            "DROP", targets, start_ms, duration_ms, probability, rng_name,
            lambda rng, src, dst, payload: None,
        )

    def duplicate_messages(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        probability: float = 0.3,
        extra_delay_ms: float = 5.0,
        rng_name: str = "faults/duplicate",
    ) -> None:
        """Deliver a delayed second copy of matching messages."""
        def hit(rng: Any, src: str, dst: str, payload: Any) -> Any:
            self.network.inject(src, dst, payload, delay_ms=rng.random() * extra_delay_ms)
            return payload

        self._message_window(
            "DUPLICATE", targets, start_ms, duration_ms, probability, rng_name, hit,
        )

    def reorder_window(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        window_ms: float = 20.0,
        probability: float = 1.0,
        rng_name: str = "faults/reorder",
    ) -> None:
        """Buffer matching messages and release them shuffled.

        Messages captured during each ``window_ms`` slice are re-injected
        in a random permutation at the end of the slice, which is the
        strongest reordering an asynchronous network can apply within the
        window. A final flush at the window end releases any remainder, so
        the primitive never swallows messages.
        """
        if window_ms <= 0:
            # a zero-length slice re-arms its flush at the same instant
            # forever: the run would hang at start_ms
            raise ValueError(f"reorder_window: window_ms must be positive, got {window_ms}")
        rng = self.simulator.rng(rng_name)
        buffer: List[tuple] = []

        def hold(_rng: Any, *message: Any) -> None:
            buffer.append(message)

        def flush() -> None:
            batch = list(buffer)
            buffer.clear()
            rng.shuffle(batch)
            for index, (src, dst, payload) in enumerate(batch):
                # strictly increasing sub-ms offsets preserve the permutation
                self.network.inject(src, dst, payload, delay_ms=index * 1e-3)

        def start_flushing() -> Opened:
            # its own stream: a periodic timer draws (zero) jitter per tick
            ticker = self.simulator.call_every(window_ms, flush, rng_name=f"{rng_name}/tick")

            def stop() -> None:
                ticker.stop()
                flush()

            return f"every {window_ms}ms", stop

        # The filter window is scheduled first so that, at the window end,
        # the filter is removed before the final flush runs (events at
        # equal times fire in scheduling order) — no message can enter the
        # buffer after the last flush.
        self._message_window(
            "REORDER", targets, start_ms, duration_ms, probability, rng_name, hold,
        )
        self.window("REORDER-FLUSH", start_ms, duration_ms, start_flushing)

    def corrupt_payload(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        probability: float = 0.2,
        rng_name: str = "faults/corrupt",
    ) -> None:
        """Mangle matching messages in flight.

        Signed wrappers (any dataclass with a ``payload`` field) keep their
        signature but lose their content, so receivers reject them through
        signature verification; everything else becomes an unparseable
        :class:`CorruptedPayload`.
        """
        def mangle(rng: Any, src: str, dst: str, payload: Any) -> Any:
            nonce = rng.getrandbits(32)
            blob = CorruptedPayload(type(payload).__name__, nonce)
            if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
                names = {f.name for f in dataclasses.fields(payload)}
                if "payload" in names:
                    try:
                        return dataclasses.replace(payload, payload=blob)
                    except (TypeError, ValueError):
                        return blob
            return blob

        self._message_window(
            "CORRUPT", targets, start_ms, duration_ms, probability, rng_name, mangle,
        )

    def delay_spike(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        extra_ms: float = 100.0,
        jitter_ms: float = 0.0,
        probability: float = 1.0,
        rng_name: str = "faults/delay",
    ) -> None:
        """Add a latency spike to matching messages (they bypass loss)."""
        def hit(rng: Any, src: str, dst: str, payload: Any) -> None:
            self.network.inject(
                src, dst, payload, delay_ms=extra_ms + rng.random() * jitter_ms,
            )

        self._message_window(
            f"DELAY +{extra_ms}ms", targets, start_ms, duration_ms,
            probability, rng_name, hit,
        )

    def jitter_storm(
        self,
        targets: Optional[Iterable[str]],
        start_ms: float,
        duration_ms: float,
        max_extra_ms: float = 30.0,
        probability: float = 0.5,
        rng_name: str = "faults/jitter",
    ) -> None:
        """Random per-message extra delay: desynchronizes timers the way
        head-of-line blocking and GC pauses do."""
        self.delay_spike(
            targets, start_ms, duration_ms,
            extra_ms=0.0, jitter_ms=max_extra_ms,
            probability=probability, rng_name=rng_name,
        )
