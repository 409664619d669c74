"""Three-phase agreement shared by leader-based protocols.

Prime's ordering layer and the PBFT baseline run the same
pre-prepare/prepare/commit protocol per sequence-number slot. What
differs is data — which class proposes, which field of it carries the
proposal (a summary matrix vs. an update batch), how a proposal is
digested — and enters as one frozen :class:`AgreementSpec` per protocol.
:class:`ThreePhaseSlot` owns the per-slot state and
:class:`ThreePhaseAgreement` is the one implementation of the handlers,
the quorum transitions and the head-of-line repair over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..crypto.encoding import derived
from ..crypto.schema import is_a
from .messages import CertifiedSlot, Commit, Prepare, SignedMessage, SlotFetch
from .quorum import QuorumTracker, assemble_certificate, collect_valid_voters
from .retry import RetryPolicy, RetrySchedule

__all__ = ["AgreementSpec", "ThreePhaseAgreement", "ThreePhaseSlot"]

#: ordered slots one :class:`SlotFetch` asks a peer for
FETCH_WINDOW = 16


@dataclass(frozen=True)
class AgreementSpec:
    """What a protocol plugs into the shared agreement and view-change
    core."""

    #: the proposal class: ``(leader, view, seq, <proposal_field>)``
    pre_prepare: type
    #: the view-change class: ``sender``, ``new_view``, ``prepared`` + floor
    view_change: type
    proposal_field: str
    #: view-change field naming the seq at or below which the sender
    #: needs no proposal carried into the new view
    floor_field: str
    #: ``digest(seq, proposal) -> str``, what Prepare/Commit votes name
    digest: Callable[[int, Any], str]

    def proposal(self, pre_prepare: Any) -> Any:
        return getattr(pre_prepare, self.proposal_field)

    def floor(self, view_change: Any) -> int:
        return getattr(view_change, self.floor_field)

    def digest_of(self, pre_prepare: Any) -> str:
        """What votes for ``pre_prepare`` name. Replicas hold one proposal
        object by reference and ask at every pre-prepare, commit quorum
        and view-change validation; it is derived once per object."""
        return derived(pre_prepare, self._derive_digest)

    def _derive_digest(self, pre_prepare: Any) -> str:
        return self.digest(pre_prepare.seq, self.proposal(pre_prepare))


@dataclass
class ThreePhaseSlot:
    """Agreement state for one global sequence number.

    Votes are keyed by view, then digest: a view change restarts the vote
    for the same slot, and votes for different proposal digests must
    never pool.
    """

    seq: int
    #: view -> signed pre-prepare received for this slot in that view
    pre_prepares: Dict[int, SignedMessage] = field(default_factory=dict)
    #: view -> digest -> sender -> signed Prepare
    prepares: QuorumTracker = field(default_factory=QuorumTracker)
    #: view -> digest -> sender -> signed Commit
    commits: QuorumTracker = field(default_factory=QuorumTracker)
    #: set when this replica sent its Prepare: (view, digest)
    prepared_vote: Optional[Tuple[int, str]] = None
    #: set when this replica sent its Commit: (view, digest)
    committed_vote: Optional[Tuple[int, str]] = None
    #: highest view in which this slot reached a prepare certificate here
    prepared_cert: Optional[Tuple[int, str]] = None
    #: the certificate itself: quorum of signed Prepare/Commit messages
    prepared_proof: Optional[Tuple[SignedMessage, ...]] = None
    #: the ordered result: (view, digest, signed pre-prepare, commit certificate)
    ordered: Optional[
        Tuple[int, str, SignedMessage, Tuple[SignedMessage, ...]]
    ] = None

    @property
    def is_ordered(self) -> bool:
        return self.ordered is not None

    # -- own-vote guards -----------------------------------------------
    def should_vote_prepare(self, view: int) -> bool:
        """Vote at most once per view, never regressing to an older one."""
        return self.prepared_vote is None or self.prepared_vote[0] < view

    def should_vote_commit(self, view: int, digest: str) -> bool:
        """Commit only what we prepared, at most once per view."""
        return (
            self.committed_vote is None or self.committed_vote[0] < view
        ) and self.prepared_vote == (view, digest)

    def mark_ordered(
        self,
        view: int,
        digest: str,
        pre_prepare: SignedMessage,
        proof: Tuple[SignedMessage, ...],
    ) -> None:
        """Record the ordering decision. A commit certificate implies a
        prepare certificate, so it is promoted to one when the slot holds
        none newer — a later ViewChange then carries the decision."""
        self.ordered = (view, digest, pre_prepare, proof)
        if self.prepared_cert is None or self.prepared_cert[0] < view:
            self.prepared_cert = (view, digest)
            self.prepared_proof = proof


class ThreePhaseAgreement:
    """Pre-prepare/prepare/commit over a replica's slots.

    ``node`` is the owning replica: the agreement reads its ``name``,
    ``config``, ``view``, ``in_view_change``, ``stable_seq``,
    ``last_executed_seq``, ``_min_fresh_seq``, ``slots`` and
    ``simulator``, sends through ``node._broadcast`` and ``node._send_to``
    (so attack installers that wrap them intercept every vote), relays
    through ``node.runtime.resend`` and calls ``node._try_execute()`` when
    a slot becomes ordered. The three hooks are no-ops here.
    ``repair_interval_ms`` is the period of the protocol's timer that
    calls :meth:`repair_tick`.
    """

    def __init__(self, node: Any, spec: AgreementSpec, repair_interval_ms: float) -> None:
        self.node = node
        self.spec = spec
        #: highest seq known to be ordered, here or (by a served slot) at a peer
        self.frontier = 0
        #: the head that was unordered at the last repair tick
        self._stalled: Optional[int] = None
        self._due = 0.0
        self._rotor = 0
        self._retry = RetrySchedule(
            RetryPolicy(
                base_ms=repair_interval_ms,
                factor=2.0,
                max_ms=repair_interval_ms * 16,
                max_attempts=8,
            ),
            rng=node.simulator.rng(f"repair/{node.name}"),
        )

    # -- hooks ---------------------------------------------------------
    def valid_proposal(self, proposal: Any) -> bool:
        return True

    def note_proposal(self, msg: Any) -> None:
        """An accepted current-view proposal (e.g. a turnaround sample)."""

    def note_higher_view(self, sender: str, view: int) -> None:
        """``sender`` sent agreement traffic for a view above ours."""

    def slot(self, seq: int) -> ThreePhaseSlot:
        slots = self.node.slots
        slot = slots.get(seq)
        if slot is None:
            slot = slots[seq] = ThreePhaseSlot(seq)
        return slot

    def on_pre_prepare(
        self, signed: SignedMessage, msg: Any, from_new_view: bool = False
    ) -> None:
        node = self.node
        if msg.view > node.view:
            self.note_higher_view(msg.leader, msg.view)
        if msg.view != node.view or (node.in_view_change and not from_new_view):
            return
        if msg.leader != node.config.leader_of_view(msg.view):
            return
        # Checked here, not only by the dispatcher: NewView replay calls
        # this handler directly with pre-prepares it unpacked itself.
        if signed.signature.signer != msg.leader:
            return
        if msg.seq <= node.stable_seq:
            return
        if not from_new_view and msg.seq < node._min_fresh_seq:
            return
        proposal = self.spec.proposal(msg)
        if not self.valid_proposal(proposal):
            return
        slot = self.slot(msg.seq)
        if from_new_view and slot.is_ordered:
            # Decided here: its commit certificate is the proof a later
            # ViewChange carries, and a peer short of the slot repairs it
            # through SlotFetch, so it is not agreed again.
            return
        if msg.view in slot.pre_prepares:
            return  # first proposal per (view, seq) wins
        slot.pre_prepares[msg.view] = signed
        proposal_digest = self.spec.digest_of(msg)
        # The leader's pre-prepare counts as its prepare vote.
        prepares = slot.prepares.add(msg.view, proposal_digest, msg.leader, signed)
        self.note_proposal(msg)
        if slot.should_vote_prepare(msg.view):
            slot.prepared_vote = (msg.view, proposal_digest)
            node._broadcast(Prepare(node.name, msg.view, msg.seq, proposal_digest))
        self.check_prepared(slot, msg.view, proposal_digest, prepares)
        self.check_ordered(
            slot, msg.view, proposal_digest,
            slot.commits.voters(msg.view, proposal_digest),
        )

    def on_prepare(self, signed: SignedMessage, msg: Prepare) -> None:
        node = self.node
        if msg.view > node.view:
            self.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.stable_seq:
            return
        slot = self.slot(msg.seq)
        self.check_prepared(
            slot, msg.view, msg.digest,
            slot.prepares.add(msg.view, msg.digest, msg.sender, signed),
        )

    def on_commit(self, signed: SignedMessage, msg: Commit) -> None:
        node = self.node
        if msg.view > node.view:
            self.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.stable_seq:
            return
        slot = self.slot(msg.seq)
        self.check_ordered(
            slot, msg.view, msg.digest,
            slot.commits.add(msg.view, msg.digest, msg.sender, signed),
        )

    def check_prepared(
        self, slot: ThreePhaseSlot, view: int, proposal_digest: str,
        voters: Dict[str, SignedMessage],
    ) -> None:
        """``voters``: the Prepares for ``(view, proposal_digest)``. At a
        quorum the slot holds a prepare certificate, replaced when this
        view is at least as new as the recorded one's."""
        node = self.node
        quorum = node.config.quorum
        if len(voters) < quorum:
            return
        # An ordered slot keeps the certificate it was ordered with: it may
        # hold no pre-prepare for a later view to pair with a newer one.
        if not slot.is_ordered and (
            slot.prepared_cert is None or slot.prepared_cert[0] <= view
        ):
            slot.prepared_cert = (view, proposal_digest)
            slot.prepared_proof = assemble_certificate(voters, quorum)
        # Vote only in the view we are in: a replica that has left a view
        # may already have reported this slot unprepared in its ViewChange.
        if view != node.view or node.in_view_change:
            return
        if slot.should_vote_commit(view, proposal_digest):
            slot.committed_vote = (view, proposal_digest)
            node._broadcast(Commit(node.name, view, slot.seq, proposal_digest))

    def check_ordered(
        self, slot: ThreePhaseSlot, view: int, proposal_digest: str,
        voters: Dict[str, SignedMessage],
    ) -> None:
        """``voters``: the Commits for ``(view, proposal_digest)``."""
        quorum = self.node.config.quorum
        if slot.is_ordered or len(voters) < quorum:
            return
        pre_prepare = slot.pre_prepares.get(view)
        if pre_prepare is None:
            return
        if self.spec.digest_of(pre_prepare.payload) != proposal_digest:
            return
        self._order(
            slot, view, proposal_digest, pre_prepare,
            assemble_certificate(voters, quorum),
        )

    def _order(
        self,
        slot: ThreePhaseSlot,
        view: int,
        proposal_digest: str,
        pre_prepare: SignedMessage,
        proof: Tuple[SignedMessage, ...],
    ) -> None:
        slot.mark_ordered(view, proposal_digest, pre_prepare, proof)
        self.frontier = max(self.frontier, slot.seq)
        self.node._try_execute()

    # -- head-of-line repair -------------------------------------------
    def repair_tick(self) -> None:
        """Repair lost agreement traffic at the head, the slot at
        ``last_executed_seq + 1``.

        The head is stalled when it was already the unordered head at the
        previous tick: its slot holds votes, or a later slot is known to be
        ordered. A stalled head gets, backing off through one
        :class:`RetrySchedule`: the current view's pre-prepare relayed by
        whoever holds it, this replica's Prepare and Commit sent again, and
        one :class:`SlotFetch` to one peer, chosen by rotor. An ordered
        head that has not executed waits on the protocol's own data, so
        execution is retried instead.
        """
        node = self.node
        head = node.last_executed_seq + 1
        slot = node.slots.get(head)
        if slot is not None and slot.is_ordered:
            self._stalled = None
            node._try_execute()
            return
        if slot is None and max(node.stable_seq, self.frontier) < head:
            self._stalled = None
            return
        now = node.simulator.now
        if head != self._stalled:
            self._stalled = head
            self._retry.reset()
            self._due = now
            return
        if now < self._due:
            return
        self._due = now + self._retry.next_delay_ms()
        if slot is not None and not node.in_view_change:
            pre_prepare = slot.pre_prepares.get(node.view)
            if pre_prepare is not None:
                node.runtime.resend(pre_prepare)
            if slot.prepared_vote is not None:
                view, vote_digest = slot.prepared_vote
                node._broadcast(Prepare(node.name, view, head, vote_digest), include_self=False)
            if slot.committed_vote is not None:
                view, vote_digest = slot.committed_vote
                node._broadcast(Commit(node.name, view, head, vote_digest), include_self=False)
        peers = [peer for peer in node.config.replicas if peer != node.name]
        node._send_to(peers[self._rotor % len(peers)], SlotFetch(node.name, head))
        self._rotor += 1

    def on_fetch(self, signed: SignedMessage, msg: SlotFetch) -> None:
        node = self.node
        for seq in range(msg.from_seq, msg.from_seq + FETCH_WINDOW):
            slot = node.slots.get(seq)
            if slot is not None and slot.is_ordered:
                _, _, pre_prepare, commits = slot.ordered
                node._send_to(msg.sender, CertifiedSlot(
                    node.name, seq, pre_prepare, commits, node.last_executed_seq,
                ))

    def on_certified_slot(self, signed: SignedMessage, msg: CertifiedSlot) -> None:
        if msg.seq > self.node.last_executed_seq and self.install_certified(
            msg.seq, msg.pre_prepare, msg.commits
        ):
            self.frontier = max(self.frontier, msg.frontier)

    def install_certified(
        self, seq: int, pp_signed: SignedMessage, commits: Iterable[SignedMessage]
    ) -> bool:
        """Install a commit-certified slot served by a peer; True when
        the slot became ordered. A quorum of commits is transferable: any
        two quorums intersect in a correct replica, so the decision cannot
        conflict with anything still orderable locally, whatever view we
        are in. The commits are checked strictly: an honest server sends
        the quorum it assembled, and the set is kept as this slot's
        certificate, served on and carried in ViewChanges.
        """
        node = self.node
        slot = self.slot(seq)
        if slot.is_ordered:
            return False
        pp = pp_signed.payload
        if not is_a(pp, self.spec.pre_prepare) or pp.seq != seq:
            return False
        if pp.leader != node.config.leader_of_view(pp.view):
            return False
        if pp_signed.signature.signer != pp.leader or not node.verify_signed(pp_signed):
            return False
        proposal = self.spec.proposal(pp)
        if not self.valid_proposal(proposal):
            return False
        proposal_digest = self.spec.digest_of(pp)
        commits = tuple(commits)
        voters = collect_valid_voters(
            commits,
            membership=node.config.replicas,
            verify_signed=node.verify_signed,
            kinds=(Commit,),
            check=lambda commit: (
                commit.view == pp.view
                and commit.seq == seq
                and commit.digest == proposal_digest
            ),
        )
        if voters is None or len(voters) < node.config.quorum:
            return False
        slot.pre_prepares[pp.view] = pp_signed
        self._order(slot, pp.view, proposal_digest, pp_signed, commits)
        return True
