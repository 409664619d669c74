"""Three-phase agreement shared by leader-based protocols.

Prime's ordering layer and the PBFT baseline run the same
pre-prepare/prepare/commit protocol per sequence-number slot. What
differs is data — which class proposes, which field of it carries the
proposal (a summary matrix vs. an update batch), how a proposal is
digested — and enters as one frozen :class:`AgreementSpec` per protocol.
:class:`ThreePhaseSlot` owns the per-slot state and
:class:`ThreePhaseAgreement` is the one implementation of the handlers
and quorum transitions over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..crypto.encoding import derived
from .messages import Commit, Prepare, SignedMessage
from .quorum import assemble_certificate, collect_valid_voters

__all__ = ["AgreementSpec", "ThreePhaseAgreement", "ThreePhaseSlot"]


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

    Vote keys are ``(view, digest)`` pairs: a view change restarts the
    vote for the same slot, and votes for different proposal digests must
    never pool.
    """

    seq: int
    #: view -> signed pre-prepare received for this slot in that view
    pre_prepares: Dict[int, SignedMessage] = field(default_factory=dict)
    #: (view, digest) -> sender -> signed Prepare
    prepares: Dict[Tuple[int, str], Dict[str, SignedMessage]] = field(
        default_factory=dict
    )
    #: (view, digest) -> sender -> signed Commit
    commits: Dict[Tuple[int, str], Dict[str, SignedMessage]] = field(
        default_factory=dict
    )
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

    # -- vote recording ------------------------------------------------
    def record_prepare(
        self, view: int, digest: str, sender: str, signed: SignedMessage
    ) -> None:
        self.prepares.setdefault((view, digest), {})[sender] = signed

    def record_commit(
        self, view: int, digest: str, sender: str, signed: SignedMessage
    ) -> None:
        self.commits.setdefault((view, digest), {})[sender] = signed

    # -- own-vote guards -----------------------------------------------
    def should_vote_prepare(self, view: int) -> bool:
        """Vote at most once per view, never regressing to an older one."""
        return self.prepared_vote is None or self.prepared_vote[0] < view

    def should_vote_commit(self, view: int, digest: str) -> bool:
        """Commit only what we prepared, at most once per view."""
        return (
            self.committed_vote is None or self.committed_vote[0] < view
        ) and self.prepared_vote == (view, digest)

    # -- quorum transitions --------------------------------------------
    def note_prepared(self, view: int, digest: str, quorum: int) -> bool:
        """Check for a prepare certificate at ``(view, digest)``.

        Returns True once a quorum of prepares exists; as a side effect,
        (re)establishes :attr:`prepared_cert`/:attr:`prepared_proof` when
        this view is at least as new as the recorded certificate's.
        """
        voters = self.prepares.get((view, digest), {})
        if len(voters) < quorum:
            return False
        if self.prepared_cert is None or self.prepared_cert[0] <= view:
            self.prepared_cert = (view, digest)
            self.prepared_proof = assemble_certificate(voters, quorum)
        return True

    def commit_certificate(
        self, view: int, digest: str, quorum: int
    ) -> Optional[Tuple[SignedMessage, ...]]:
        """The commit certificate for ``(view, digest)``, once a quorum of
        commits exists; None below quorum."""
        voters = self.commits.get((view, digest), {})
        if len(voters) < quorum:
            return None
        return assemble_certificate(voters, quorum)

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
    ``_min_fresh_seq`` and ``slots``, sends through ``node._broadcast``
    (so attack installers that wrap it intercept every vote) and calls
    ``node._try_execute()`` when a slot becomes ordered. The three hooks
    are no-ops here.
    """

    def __init__(self, node: Any, spec: AgreementSpec) -> None:
        self.node = node
        self.spec = spec

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
        if msg.view in slot.pre_prepares:
            return  # first proposal per (view, seq) wins
        slot.pre_prepares[msg.view] = signed
        proposal_digest = self.spec.digest_of(msg)
        # The leader's pre-prepare counts as its prepare vote.
        slot.record_prepare(msg.view, proposal_digest, msg.leader, signed)
        self.note_proposal(msg)
        if slot.should_vote_prepare(msg.view):
            slot.prepared_vote = (msg.view, proposal_digest)
            node._broadcast(Prepare(node.name, msg.view, msg.seq, proposal_digest))
        self.check_prepared(slot, msg.view, proposal_digest)
        self.check_ordered(slot, msg.view, proposal_digest)

    def on_prepare(self, signed: SignedMessage, msg: Prepare) -> None:
        node = self.node
        if msg.view > node.view:
            self.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.stable_seq:
            return
        slot = self.slot(msg.seq)
        slot.record_prepare(msg.view, msg.digest, msg.sender, signed)
        self.check_prepared(slot, msg.view, msg.digest)

    def on_commit(self, signed: SignedMessage, msg: Commit) -> None:
        node = self.node
        if msg.view > node.view:
            self.note_higher_view(msg.sender, msg.view)
        if msg.seq <= node.stable_seq:
            return
        slot = self.slot(msg.seq)
        slot.record_commit(msg.view, msg.digest, msg.sender, signed)
        self.check_ordered(slot, msg.view, msg.digest)

    def check_prepared(
        self, slot: ThreePhaseSlot, view: int, proposal_digest: str
    ) -> None:
        node = self.node
        if not slot.note_prepared(view, proposal_digest, node.config.quorum):
            return
        if slot.should_vote_commit(view, proposal_digest):
            slot.committed_vote = (view, proposal_digest)
            node._broadcast(Commit(node.name, view, slot.seq, proposal_digest))

    def check_ordered(
        self, slot: ThreePhaseSlot, view: int, proposal_digest: str
    ) -> None:
        node = self.node
        if slot.is_ordered:
            return
        proof = slot.commit_certificate(view, proposal_digest, node.config.quorum)
        if proof is None:
            return
        pre_prepare = slot.pre_prepares.get(view)
        if pre_prepare is None:
            return
        if self.spec.digest_of(pre_prepare.payload) != proposal_digest:
            return
        slot.mark_ordered(view, proposal_digest, pre_prepare, proof)
        node._try_execute()

    # -- catch-up ------------------------------------------------------
    def install_certified(
        self,
        seq: int,
        pp_signed: SignedMessage,
        commits: Iterable[SignedMessage],
        strict: bool,
    ) -> bool:
        """Install a commit-certified slot served by a peer; True when
        the slot became ordered. A quorum of commits is transferable: any
        two quorums intersect in a correct replica, so the decision cannot
        conflict with anything still orderable locally, whatever view we
        are in. ``strict`` is ``collect_valid_voters``'s.
        """
        node = self.node
        slot = self.slot(seq)
        if slot.is_ordered:
            return False
        pp = pp_signed.payload
        if pp.seq != seq:  # a spec.pre_prepare, by its callers' field annotations
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
            strict=strict,
        )
        if voters is None or len(voters) < node.config.quorum:
            return False
        slot.pre_prepares[pp.view] = pp_signed
        slot.mark_ordered(pp.view, proposal_digest, pp_signed, commits)
        node._try_execute()
        return True

    def rebroadcast_vote(self, slot: ThreePhaseSlot) -> None:
        """Re-send this replica's latest vote for ``slot`` to overcome loss."""
        node = self.node
        if slot.committed_vote is not None:
            view, vote_digest = slot.committed_vote
            node._broadcast(
                Commit(node.name, view, slot.seq, vote_digest), include_self=False
            )
        elif slot.prepared_vote is not None:
            view, vote_digest = slot.prepared_vote
            node._broadcast(
                Prepare(node.name, view, slot.seq, vote_digest), include_self=False
            )
