"""One validation suite for the shared agreement and view-change core.

Every case runs against both protocols: the code under test is the one
implementation in ``repro.replication`` (``ThreePhaseAgreement``,
``ViewChangeCore``), reached through a real replica of each protocol so
the verification helpers are the ones production passes in. A ``Side``
holds what differs — the ``AgreementSpec``, how a proposal and a
ViewChange are built, how a floor is vouched for, how a cluster is built;
the cases themselves never ask which protocol they run.

Forgeries are built so that exactly one check catches them: the votes in
a forged entry are consistent with what the entry *claims*, so removing
the targeted check makes the case fail on both protocols.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import Oracle
from repro.pbft.messages import PbftViewChange
from repro.pbft.node import PBFT_AGREEMENT
from repro.prime import (
    CheckpointMsg,
    PoSummary,
    ViewChange,
    sign_client_update,
)
from repro.prime.ordering import PRIME_AGREEMENT
from repro.replication import (
    CertifiedSlot,
    Commit,
    NewView,
    Prepare,
    PreparedEntry,
    SignedMessage,
    derive_reproposals,
    prepared_entries,
)
from test_pbft import PbftCluster


class Side:
    """One protocol under the shared cases."""

    spec = None

    def __init__(self, factory):
        self.factory = factory
        self.cluster = cluster = factory().start()
        self.config = cluster.config
        self.replicas = cluster.config.replicas
        self.quorum = cluster.config.quorum
        #: the replica under test; it leads no view the cases use
        self.node = cluster.nodes[4]
        self.core = self.node.view_manager

    # -- signing ---------------------------------------------------------
    def signed(self, sender, payload):
        return SignedMessage(payload, self.cluster.crypto.sign(sender, payload))

    def mis_signed(self, sender, payload):
        """An envelope whose signature is ``sender``'s, over other bytes."""
        return SignedMessage(payload, self.cluster.crypto.sign(sender, "other"))

    def leader(self, view):
        return self.config.leader_of_view(view)

    def others(self, view):
        return [name for name in self.replicas if name != self.leader(view)]

    # -- agreement messages ----------------------------------------------
    def pre_prepare(self, view, seq, proposal, leader=None, signer=None):
        leader = leader or self.leader(view)
        payload = self.spec.pre_prepare(leader, view, seq, proposal)
        return self.signed(signer or leader, payload)

    def votes(self, kind, view, seq, digest, senders):
        return tuple(
            self.signed(sender, kind(sender, view, seq, digest))
            for sender in senders
        )

    def entry(self, seq=5, view=0, tag=None, *, pre_prepare=None, claim=None,
              digest=None, voters=None, extra_proof=()):
        """A prepared entry; by default valid, with exactly quorum - 1
        prepares beside the leader's pre-prepare. ``claim`` overrides the
        (seq, view) the entry and its votes name."""
        proposal = self.proposal(seq if tag is None else tag)
        if pre_prepare is None:
            pre_prepare = self.pre_prepare(view, seq, proposal)
        if digest is None:
            digest = self.spec.digest(seq, proposal)
        if voters is None:
            voters = self.others(view)[: self.quorum - 1]
        seq, view = claim or (seq, view)
        proof = self.votes(Prepare, view, seq, digest, voters) + tuple(extra_proof)
        return PreparedEntry(seq, view, digest, pre_prepare, proof)

    def validate(self, signed, vc):
        return self.core.validate_view_change(
            signed, vc, self.node.verify_signed, self.verify_floor
        )

    # -- NewView ---------------------------------------------------------
    def quorum_view_changes(self, view=1, floor=0, entries=None):
        if entries is None:
            entries = [self.entry(seq=floor + 1)]
        return [
            self.view_change(name, view, entries, floor=floor)[0]
            for name in self.replicas[: self.quorum]
        ]

    def reproposals(self, view, vcs, leader=None, signer=None):
        _, proposals = derive_reproposals(self.spec, [s.payload for s in vcs])
        return tuple(
            self.pre_prepare(view, seq, proposal, leader=leader, signer=signer)
            for seq, proposal in proposals
        )

    def new_view(self, view=1, vcs=None, pre_prepares=None, leader=None,
                 signer=None):
        leader = leader or self.leader(view)
        if vcs is None:
            vcs = self.quorum_view_changes(view)
        if pre_prepares is None:
            pre_prepares = self.reproposals(view, vcs, leader=leader)
        nv = NewView(leader, view, tuple(vcs), tuple(pre_prepares))
        return self.signed(signer or leader, nv), nv

    def verify_new_view(self, signed, nv):
        return self.core.verify_new_view(
            signed, nv, self.node.verify_signed, self.verify_floor
        )



class PrimeSide(Side):
    spec = PRIME_AGREEMENT

    @property
    def verify_floor(self):
        return self.node.leadership.verify_checkpoint_proof

    def proposal(self, tag):
        summary = PoSummary("replica:2", 1, (("replica:2#0", tag),))
        return (self.signed("replica:2", summary),)

    def checkpoint_proof(self, seq, voters):
        return tuple(
            self.signed(name, CheckpointMsg(name, seq, "state")) for name in voters
        )

    def view_change(self, sender, new_view, entries=(), floor=0, signer=None):
        proof = self.checkpoint_proof(floor, self.replicas[: self.quorum]) if floor else ()
        vc = ViewChange(sender, new_view, floor, proof, tuple(entries))
        return self.signed(signer or sender, vc), vc

    def bad_floor_view_change(self, sender, new_view):
        """Prime's floor rule: the checkpoint needs its quorum proof."""
        proof = self.checkpoint_proof(16, self.replicas[: self.quorum - 1])
        vc = ViewChange(sender, new_view, 16, proof, ())
        return self.signed(sender, vc), vc

    def force_view_change(self):
        """Make every replica vote the current leader out."""
        for node in self.cluster.nodes:
            node.leadership.send_suspect("forced")

    def start_view_change(self, node, view):
        node.leadership.initiate_view_change(view)

    def own_sent_views(self, node):
        return node.view_manager.sent_suspect_for


class PbftSide(Side):
    spec = PBFT_AGREEMENT
    verify_floor = None

    def proposal(self, tag):
        return (sign_client_update(
            self.cluster.crypto, "client:x", tag, ("op", tag)),)

    def view_change(self, sender, new_view, entries=(), floor=0, signer=None):
        vc = PbftViewChange(sender, new_view, floor, tuple(entries))
        return self.signed(signer or sender, vc), vc

    def bad_floor_view_change(self, sender, new_view):
        """The baseline's floor rule: a floor is the sender's word only,
        so it may not also carry an entry at or below it."""
        return self.view_change(sender, new_view, [self.entry(seq=3)], floor=3)

    def force_view_change(self):
        for node in self.cluster.nodes:
            node._start_view_change(node.view + 1)

    def start_view_change(self, node, view):
        node._start_view_change(view)

    def own_sent_views(self, node):
        return node._sent_vc_for


@pytest.fixture(params=["prime", "pbft"])
def side(request, cluster_factory):
    if request.param == "prime":
        return PrimeSide(cluster_factory)
    return PbftSide(PbftCluster)


# ----------------------------------------------------------------------
# ViewChange validation
# ----------------------------------------------------------------------

def test_view_change_accepts_valid(side):
    # quorum - 1 prepares reach quorum only because the leader's
    # pre-prepare is pre-seeded as its vote
    signed, vc = side.view_change("replica:2", 1, [side.entry()])
    assert side.validate(signed, vc)


def test_view_change_rejects_sender_other_than_signer(side):
    signed, vc = side.view_change("replica:2", 1, signer="replica:3")
    assert not side.validate(signed, vc)


def test_view_change_rejects_non_member_sender(side):
    signed, vc = side.view_change("intruder", 1)
    assert side.node.verify_signed(signed)   # the signature itself is fine
    assert not side.validate(signed, vc)


def test_view_change_rejects_duplicate_seqs(side):
    entry = side.entry()
    signed, vc = side.view_change("replica:2", 1, [entry, entry])
    assert not side.validate(signed, vc)


def test_view_change_rejects_bad_floor(side):
    signed, vc = side.bad_floor_view_change("replica:2", 1)
    assert not side.validate(signed, vc)


#: forged prepared entries, each caught by exactly one check of
#: ``ViewChangeCore.validate_prepared``
FORGED_ENTRIES = {
    "proof_below_quorum": lambda s: s.entry(
        voters=s.others(0)[: s.quorum - 2]),
    "one_voter_repeated": lambda s: s.entry(
        voters=s.others(0)[:1] * (s.quorum - 1)),
    "digest_not_of_embedded_content": lambda s: s.entry(digest="forged"),
    "embedded_payload_not_a_pre_prepare": lambda s: s.entry(
        pre_prepare=s.signed(s.leader(0), Prepare(s.leader(0), 0, 5, "x"))),
    "pre_prepare_for_another_seq": lambda s: s.entry(claim=(6, 0)),
    "pre_prepare_for_another_view": lambda s: s.entry(claim=(5, 1)),
    "pre_prepare_from_a_non_leader": lambda s: s.entry(
        pre_prepare=s.pre_prepare(0, 5, s.proposal(5), leader="replica:3"),
        voters=["replica:0", "replica:1", "replica:2"]),
    "pre_prepare_signed_by_someone_else": lambda s: s.entry(
        pre_prepare=s.pre_prepare(0, 5, s.proposal(5), signer="replica:3")),
    "pre_prepare_signature_invalid": lambda s: s.entry(
        pre_prepare=s.mis_signed(
            s.leader(0), s.pre_prepare(0, 5, s.proposal(5)).payload)),
}


@pytest.mark.parametrize("forgery", sorted(FORGED_ENTRIES))
def test_view_change_rejects_forged_prepared_entry(side, forgery):
    entry = FORGED_ENTRIES[forgery](side)
    signed, vc = side.view_change("replica:2", 1, [entry])
    assert not side.validate(signed, vc)


def test_garbage_appended_to_a_proof_does_not_invalidate_honest_votes(side):
    entry = side.entry()
    garbage = (
        side.votes(Prepare, 3, entry.seq, entry.digest, ["replica:5"])    # other view
        + side.votes(Prepare, 0, entry.seq, entry.digest, ["intruder"])   # non-member
        + (side.mis_signed(
            "replica:5", Prepare("replica:5", 0, entry.seq, entry.digest)),
           side.signed("replica:5", "not a vote"))
    )
    padded = dataclasses.replace(entry, proof=entry.proof + garbage)
    signed, vc = side.view_change("replica:2", 1, [padded])
    assert side.validate(signed, vc)
    # ...and garbage never counts toward the quorum
    thin = dataclasses.replace(entry, proof=entry.proof[:-1] + garbage)
    signed, vc = side.view_change("replica:2", 1, [thin])
    assert not side.validate(signed, vc)


# ----------------------------------------------------------------------
# NewView verification
# ----------------------------------------------------------------------

def test_new_view_roundtrip(side):
    signed, nv = side.new_view()
    pre_prepares, start_seq, max_seq = side.verify_new_view(signed, nv)
    assert (start_seq, max_seq) == (0, 1)
    assert [pp.payload.seq for pp in pre_prepares] == [1]


def test_build_new_view_needs_leadership_quorum_and_builds_once(side):
    leader_core = side.cluster.nodes[1].view_manager
    vcs = side.quorum_view_changes(1)
    for vc_signed in vcs[:-1]:
        leader_core.add_view_change(vc_signed, vc_signed.payload)
        side.core.add_view_change(vc_signed, vc_signed.payload)
    sign = side.cluster.nodes[1].sign_message
    assert leader_core.build_new_view(1, sign) is None       # below quorum
    leader_core.add_view_change(vcs[-1], vcs[-1].payload)
    side.core.add_view_change(vcs[-1], vcs[-1].payload)
    assert side.core.build_new_view(1, side.node.sign_message) is None  # not leader
    nv, max_seq = leader_core.build_new_view(1, sign)
    assert max_seq == 1
    assert side.verify_new_view(side.signed("replica:1", nv), nv) is not None
    assert leader_core.build_new_view(1, sign) is None       # only once


#: forged NewViews, each caught by exactly one check of
#: ``ViewChangeCore.verify_new_view``
def _with_one_vc(side, replace_last):
    vcs = side.quorum_view_changes(1)
    vcs[-1] = replace_last(vcs[-1])
    return side.new_view(vcs=vcs, pre_prepares=side.reproposals(1, vcs[:-1]))


FORGED_NEW_VIEWS = {
    "below_quorum": lambda s: s.new_view(
        vcs=s.quorum_view_changes(1)[:-1]),
    "one_view_change_repeated": lambda s: s.new_view(
        vcs=s.quorum_view_changes(1)[:1] * s.quorum),
    "from_the_wrong_leader": lambda s: s.new_view(leader="replica:3"),
    "signed_by_someone_else": lambda s: s.new_view(signer="replica:3"),
    "view_change_for_another_view": lambda s: _with_one_vc(
        s, lambda vc: s.view_change(vc.payload.sender, 2, vc.payload.prepared)[0]),
    "view_change_signature_invalid": lambda s: _with_one_vc(
        s, lambda vc: s.mis_signed(vc.payload.sender, vc.payload)),
    "view_change_itself_invalid": lambda s: _with_one_vc(
        s, lambda vc: s.view_change(
            vc.payload.sender, 1, [s.entry(seq=1, digest="forged")])[0]),
    "re_proposal_tampered": lambda s: s.new_view(
        pre_prepares=(s.pre_prepare(1, 1, ()),)),
    "re_proposal_missing": lambda s: s.new_view(pre_prepares=()),
    "re_proposal_not_a_pre_prepare": lambda s: s.new_view(
        pre_prepares=(s.signed("replica:1", Prepare("replica:1", 1, 1, "x")),)),
    "re_proposal_names_another_leader": lambda s: s.new_view(
        pre_prepares=s.reproposals(
            1, s.quorum_view_changes(1), leader="replica:3", signer="replica:1")),
    "re_proposal_signed_by_someone_else": lambda s: s.new_view(
        pre_prepares=s.reproposals(
            1, s.quorum_view_changes(1), signer="replica:3")),
    "re_proposal_signature_invalid": lambda s: s.new_view(
        pre_prepares=tuple(
            s.mis_signed("replica:1", pp.payload)
            for pp in s.reproposals(1, s.quorum_view_changes(1)))),
}


@pytest.mark.parametrize("forgery", sorted(FORGED_NEW_VIEWS))
def test_new_view_rejects_forgery(side, forgery):
    signed, nv = FORGED_NEW_VIEWS[forgery](side)
    assert side.verify_new_view(signed, nv) is None
    side.node._dispatch(signed)
    assert side.node.view == 0 and not side.node.in_view_change


def test_new_view_over_a_proven_nonzero_floor_is_adopted(side):
    """ViewChanges that carry a non-zero floor (Prime: with its checkpoint
    quorum proof) and nothing prepared above it: no re-proposals, and the
    adopter's fresh-seq floor follows the *highest floor in the set*, not
    its own execution frontier — a lagging new leader must not propose at
    seqs a quorum already executed."""
    vcs = side.quorum_view_changes(1, floor=16, entries=())
    signed, nv = side.new_view(vcs=vcs)
    assert side.verify_new_view(signed, nv) == ([], 16, 16)
    side.node._dispatch(signed)
    assert side.node.view == 1 and not side.node.in_view_change
    assert side.node._min_fresh_seq == 17


# ----------------------------------------------------------------------
# The agreement handlers' own checks
# ----------------------------------------------------------------------

#: a slot the warmed-up clusters have not reached
SEQ = 40


def test_pre_prepare_handler_checks_the_signer_itself(side):
    """NewView replay calls the handler past the dispatcher's sender
    check, so the handler must compare signer and leader itself."""
    relayed = side.pre_prepare(0, SEQ, side.proposal(1), signer="replica:3")
    side.node.ordering.on_pre_prepare(relayed, relayed.payload, from_new_view=True)
    assert SEQ not in side.node.slots
    genuine = side.pre_prepare(0, SEQ, side.proposal(1))
    side.node.ordering.on_pre_prepare(genuine, genuine.payload, from_new_view=True)
    assert side.node.slots[SEQ].pre_prepares[0] is genuine


def _serve(side, seq, commit_view=0, commit_digest=None, signer=None, short=0):
    proposal = side.proposal(seq)
    pre_prepare = side.pre_prepare(0, seq, proposal, signer=signer)
    digest = side.spec.digest(seq, proposal)
    commits = side.votes(
        Commit, commit_view, seq, commit_digest or digest,
        side.replicas[: side.quorum - short],
    )
    reply = CertifiedSlot("replica:2", seq, pre_prepare, commits, seq)
    side.node._dispatch(side.signed("replica:2", reply))
    return pre_prepare, digest, commits


BAD_SERVED_SLOTS = {
    "commits_for_another_view": dict(commit_view=1),
    "commits_for_another_digest": dict(commit_digest="other"),
    "commits_below_quorum": dict(short=1),
    "pre_prepare_signed_by_someone_else": dict(signer="replica:3"),
}


@pytest.mark.parametrize("wrong", sorted(BAD_SERVED_SLOTS))
def test_bad_served_slot_is_rejected_and_left_unordered(side, wrong):
    _serve(side, SEQ, **BAD_SERVED_SLOTS[wrong])
    assert not side.node.slots[SEQ].is_ordered
    assert side.node.slots[SEQ].pre_prepares == {}


def test_served_certified_slot_is_installed_with_its_certificate(side):
    stale = side.pre_prepare(0, SEQ, side.proposal(99))
    side.node.ordering.slot(SEQ).pre_prepares[0] = stale
    pre_prepare, digest, commits = _serve(side, SEQ)
    slot = side.node.slots[SEQ]
    assert slot.ordered == (0, digest, pre_prepare, commits)
    # the certified pre-prepare replaces whatever the view held before,
    # and the commit certificate doubles as the prepare certificate a
    # later ViewChange (or a peer's fetch) is served from
    assert slot.pre_prepares[0] is pre_prepare
    assert (slot.prepared_cert, slot.prepared_proof) == ((0, digest), commits)


def test_an_ordered_slot_keeps_its_certificate_through_a_new_view(side):
    """A NewView re-proposes a slot this replica has ordered: the
    replica drops the re-proposal, so it holds no pre-prepare for the new
    view, and a quorum of the others' Prepares there must not replace the
    certificate it was ordered with; else its next ViewChange, which pairs
    a certificate with the pre-prepare of the same view, omits the slot."""
    pre_prepare, digest, commits = _serve(side, SEQ)
    vcs = side.quorum_view_changes(1, entries=[side.entry(seq=SEQ)])
    side.node._dispatch(side.new_view(vcs=vcs)[0])
    assert side.node.view == 1 and 1 not in side.node.slots[SEQ].pre_prepares
    for vote in side.votes(Prepare, 1, SEQ, digest, side.others(1)[: side.quorum]):
        side.node._dispatch(vote)
    carried = {entry.seq: entry for entry in prepared_entries(side.node.slots, above=0)}
    assert (carried[SEQ].view, carried[SEQ].pre_prepare, carried[SEQ].proof) == (
        0, pre_prepare, commits)


def test_no_commit_in_a_view_the_replica_has_left(side):
    """A replica that sent its ViewChange may have reported the slot
    unprepared there; late Prepares of the old view still complete its
    prepare quorum, but it must not commit in a view it has left."""
    node, proposal = side.node, side.proposal(SEQ)
    node._dispatch(side.pre_prepare(0, SEQ, proposal))
    side.start_view_change(node, 1)
    sent = []
    broadcast = node._broadcast

    def spy(payload, include_self=True):
        sent.append(payload)
        return broadcast(payload, include_self)

    node._broadcast = spy
    for vote in side.votes(Prepare, 0, SEQ, side.spec.digest(SEQ, proposal),
                           side.others(0)[: side.quorum]):
        node._dispatch(vote)
    assert node.slots[SEQ].prepared_cert == (0, side.spec.digest(SEQ, proposal))
    assert not [p for p in sent if isinstance(p, Commit)]


# ----------------------------------------------------------------------
# Head-of-line repair: loss and laggards
# ----------------------------------------------------------------------

def _executed_everywhere(cluster, count):
    logs = [tuple(node.app.log) for node in cluster.nodes if node.is_up]
    assert [len(log) for log in logs] == [count] * len(logs)
    assert len(set(logs)) == 1


def test_survives_message_loss(side):
    cluster = side.factory(seed=13, loss=0.05).start()
    cluster.pump(20, gap_ms=30)
    cluster.simulator.run_for(5000)
    _executed_everywhere(cluster, 20)


def test_survives_heavy_loss(side):
    cluster = side.factory(seed=17, loss=0.2).start()
    cluster.pump(10, gap_ms=50)
    cluster.simulator.run_for(15000)
    _executed_everywhere(cluster, 10)


def test_recovered_laggard_catches_up(side):
    """A replica that slept through ordering rejoins by fetching
    commit-certified slots, not by re-running ordering."""
    cluster = side.factory(seed=19).start()
    laggard = cluster.nodes[3]
    laggard.crash()
    cluster.pump(30, gap_ms=20)
    cluster.simulator.run_for(1000)
    _executed_everywhere(cluster, 30)
    laggard.recover()
    cluster.simulator.run_for(4000)
    _executed_everywhere(cluster, 30)


# ----------------------------------------------------------------------
# A new view does not agree again on what a replica has decided
# ----------------------------------------------------------------------

def _watch_installs(node):
    """What ``node`` had ordered among each NewView's re-proposals when it
    installed it (view -> seqs), and the Prepares and Commits it sent."""
    decided, sent = {}, []
    replay, broadcast = node.ordering.on_pre_prepare, node._broadcast

    def on_pre_prepare(signed, msg, from_new_view=False):
        slot = node.slots.get(msg.seq)
        if from_new_view and slot is not None and slot.is_ordered:
            decided.setdefault(msg.view, set()).add(msg.seq)
        return replay(signed, msg, from_new_view)

    def spy(payload, include_self=True):
        if isinstance(payload, (Prepare, Commit)):
            sent.append(payload)
        return broadcast(payload, include_self)

    node.ordering.on_pre_prepare, node._broadcast = on_pre_prepare, spy
    return decided, sent


def test_no_vote_in_a_new_view_for_a_slot_ordered_before_it(side):
    """Every view-0 Commit for one slot is lost, so the slots after it are
    ordered but not executed when the leader dies, and the new leader
    re-proposes them all. A replica sends no Prepare or Commit in the new
    view for a re-proposed slot it had ordered before installing it; the
    lost slot is agreed in the new view and every log converges."""
    cluster = side.factory(seed=29).start()
    cluster.pump(6, gap_ms=20)
    cluster.simulator.run_for(300)
    lost = cluster.nodes[1].last_executed_seq + 1
    for node in cluster.nodes:
        def lossy(signed, _dispatch=node._dispatch):
            msg = signed.payload
            if not (isinstance(msg, Commit) and (msg.view, msg.seq) == (0, lost)):
                _dispatch(signed)

        node._dispatch = lossy
    watched = [_watch_installs(node) for node in cluster.nodes]
    cluster.pump(6, gap_ms=20)
    cluster.simulator.run_for(100)
    cluster.nodes[0].crash()
    cluster.pump(6, gap_ms=20)
    cluster.simulator.run_for(6000)
    assert all(node.view >= 1 for node in cluster.nodes[1:])
    for decided, sent in watched[1:]:
        assert decided  # the new view re-proposed slots this replica had ordered
        assert not [vote for vote in sent if vote.seq in decided.get(vote.view, ())]
    _executed_everywhere(cluster, 18)


def test_a_laggard_short_of_commits_orders_the_slot_by_fetch(side):
    """One replica loses every Commit for one slot, and the repair that
    would have fetched it before the leader dies. The replicas that
    ordered the slot do not agree on it again in the new view, so the
    laggard orders it from a peer's commit certificate
    (SlotFetch/CertifiedSlot)."""
    cluster = side.factory(seed=31).start()
    oracle = Oracle(lambda: cluster.simulator.now)
    oracle.watch(cluster.nodes)
    cluster.pump(6, gap_ms=20)
    cluster.simulator.run_for(300)
    laggard = cluster.nodes[3]
    target = laggard.last_executed_seq + 1
    served = []
    dispatch = laggard._dispatch

    def lossy(signed):
        msg = signed.payload
        if isinstance(msg, (Commit, CertifiedSlot)) and msg.seq == target:
            if isinstance(msg, Commit) or laggard.view == 0:
                return
            served.append(msg)
        dispatch(signed)

    laggard._dispatch = lossy
    cluster.pump(1)
    cluster.simulator.run_for(100)
    assert all(node.slots[target].is_ordered for node in cluster.nodes if node is not laggard)
    assert not laggard.slots[target].is_ordered
    cluster.nodes[0].crash()
    cluster.pump(6, gap_ms=20)
    cluster.simulator.run_for(6000)
    assert laggard.view >= 1 and served
    # ordered with the commit certificate of view 0, served by a peer
    assert laggard.slots[target].ordered[0] == 0
    oracle.check_states(cluster.nodes)
    assert oracle.findings == []
    _executed_everywhere(cluster, 13)


#: (which recorded message, which replica, how much later)
REPLAYS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 5), st.floats(0.0, 1500.0)),
    min_size=1, max_size=40,
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(replays=REPLAYS)
def test_replayed_and_cross_view_agreement_messages_leave_the_oracle_clean(side, replays):
    """Any signed pre-prepare, Prepare or Commit a replica has seen in
    view 0, delivered again to any replica while and after the cluster
    moves to view 1: the late delivery a slow link or a Byzantine peer
    replaying its own signatures can produce."""
    cluster = side.factory(seed=23).start()
    oracle = Oracle(lambda: cluster.simulator.now)
    oracle.watch(cluster.nodes)
    seen = []
    kinds = (side.spec.pre_prepare, Prepare, Commit)
    for node in cluster.nodes:
        def record(signed, _dispatch=node._dispatch):
            if isinstance(signed.payload, kinds):
                seen.append(signed)
            _dispatch(signed)

        node._dispatch = record
    cluster.pump(10, gap_ms=20)
    cluster.simulator.run_for(200)
    for node in cluster.nodes:
        side.start_view_change(node, 1)
    pool = list(seen)
    for pick, target, delay in replays:
        node = cluster.nodes[target]
        cluster.simulator.schedule(delay, node._dispatch, pool[pick % len(pool)])
    cluster.pump(10, gap_ms=20)
    cluster.simulator.run_for(3000)
    assert all(node.view == 1 and not node.in_view_change for node in cluster.nodes)
    oracle.check_states(cluster.nodes)
    assert oracle.findings == []
    _executed_everywhere(cluster, 20)


# ----------------------------------------------------------------------
# Vote-state garbage collection
# ----------------------------------------------------------------------

def test_view_change_state_is_pruned_below_the_adopted_view(side):
    """After three view changes no replica remembers a view below its
    own: vote tables and the sent-for sets are the only state on this
    path that grows with the view number."""
    for _ in range(3):
        side.force_view_change()
        side.cluster.simulator.run_for(500)
    for node in side.cluster.nodes:
        assert node.view == 3 and not node.in_view_change
        manager = node.view_manager
        for remembered in (manager.view_changes, manager.sent_new_view_for,
                           side.own_sent_views(node)):
            assert all(view >= node.view for view in remembered), node.name
    # non-vacuous: the latest leader still remembers building its NewView
    assert side.cluster.nodes[3].view_manager.sent_new_view_for == {3}


# ----------------------------------------------------------------------
# derive_reproposals properties
# ----------------------------------------------------------------------

def _random_vcs(side, rng, new_view):
    """Random ViewChanges: per sender, a random subset of seqs, each
    prepared in a random view with view-distinct content."""
    vcs = []
    for index in range(2, 2 + rng.randint(2, side.quorum)):
        entries = []
        for seq in sorted(rng.sample(range(1, 10), rng.randint(0, 5))):
            view = rng.randint(0, 3)
            entries.append(side.entry(seq=seq, view=view, tag=100 * view + seq))
        vcs.append(side.view_change(f"replica:{index}", new_view, entries)[1])
    return vcs


def test_derive_property_highest_view_wins(side):
    rng = random.Random(7)
    for _ in range(15):
        vcs = _random_vcs(side, rng, new_view=4)
        start, proposals = derive_reproposals(side.spec, vcs)
        best = {}
        for vc in vcs:
            for entry in vc.prepared:
                if entry.seq not in best or entry.view > best[entry.seq].view:
                    best[entry.seq] = entry
        for seq, proposal in proposals:
            if seq in best:
                winner = best[seq].pre_prepare.payload
                assert proposal == side.spec.proposal(winner), seq


def test_derive_property_no_seq_gaps(side):
    rng = random.Random(11)
    for _ in range(15):
        vcs = _random_vcs(side, rng, new_view=4)
        start, proposals = derive_reproposals(side.spec, vcs)
        seqs = [seq for seq, _ in proposals]
        assert seqs == list(range(start + 1, start + 1 + len(seqs)))
        prepared_seqs = {e.seq for vc in vcs for e in vc.prepared}
        if prepared_seqs:
            assert seqs and seqs[-1] == max(prepared_seqs)


def test_derive_property_idempotent_replay(side):
    """Re-proposing the derived outcome and deriving again is a fixed
    point: a second view change right after the first re-proposes the
    same (seq, proposal) assignment, so replay cannot reorder history."""
    rng = random.Random(13)
    for _ in range(10):
        vcs = _random_vcs(side, rng, new_view=4)
        start, proposals = derive_reproposals(side.spec, vcs)
        replayed = [
            side.entry(
                seq=seq, view=4,
                pre_prepare=side.pre_prepare(4, seq, proposal),
                digest=side.spec.digest(seq, proposal),
            )
            for seq, proposal in proposals
        ]
        second = [
            side.view_change(f"replica:{i}", 5, replayed)[1]
            for i in range(2, 5)
        ]
        assert derive_reproposals(side.spec, second) == (start, proposals)
