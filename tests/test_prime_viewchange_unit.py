"""Unit tests for the view-change manager (no network)."""

import pytest

from repro.crypto import FastCrypto, digest
from repro.prime import (
    Commit,
    Prepare,
    PreparedEntry,
    PrePrepare,
    PrimeConfig,
    SignedMessage,
    Suspect,
    ViewChange,
    ViewChangeManager,
)
from repro.prime.ordering import PRIME_AGREEMENT
from repro.replication import derive_reproposals


@pytest.fixture
def setup():
    names = tuple(f"r{i}" for i in range(6))
    config = PrimeConfig(names)
    crypto = FastCrypto(seed="vc")
    manager = ViewChangeManager(config, "r1")

    def signed(sender, payload):
        return SignedMessage(payload, crypto.sign(sender, payload))

    def verify(message):
        return crypto.verify(message.signature, message.payload)

    return config, crypto, manager, signed, verify


def make_matrix(signed, upto=7):
    from repro.prime.messages import PoSummary

    summary = PoSummary("r2", 1, (("r2#0", upto),))
    return (signed("r2", summary),)


def make_prepared_entry(config, signed, seq=5, view=0, matrix=None):
    from repro.prime.ordering import slot_digest

    if matrix is None:
        matrix = make_matrix(signed)
    leader = config.leader_of_view(view)
    pp = PrePrepare(leader, view, seq, matrix)
    pp_signed = signed(leader, pp)
    # validation binds the entry digest to the pre-prepare content
    entry_digest = slot_digest(seq, matrix)
    proof = tuple(
        signed(f"r{i}", Prepare(f"r{i}", view, seq, entry_digest))
        for i in range(1, config.quorum + 1)
    )
    return PreparedEntry(seq, view, entry_digest, pp_signed, proof)


def test_suspect_amplification_threshold(setup):
    config, crypto, manager, signed, verify = setup
    for index in range(config.num_faults + 1):
        message = Suspect(f"r{index}", 0, "test")
        amplify, view_change = manager.add_suspect(
            signed(f"r{index}", message), message, current_view=0
        )
    assert amplify is True      # f+1 reached, we have not accused yet
    assert view_change is False


def test_suspect_quorum_triggers_view_change(setup):
    config, crypto, manager, signed, verify = setup
    for index in range(config.quorum):
        message = Suspect(f"r{index}", 0, "test")
        _, view_change = manager.add_suspect(
            signed(f"r{index}", message), message, current_view=0
        )
    assert view_change is True


def test_old_view_suspects_ignored(setup):
    config, crypto, manager, signed, verify = setup
    message = Suspect("r2", 3, "late")
    amplify, view_change = manager.add_suspect(
        signed("r2", message), message, current_view=5
    )
    assert (amplify, view_change) == (False, False)


def test_no_amplify_after_own_suspect(setup):
    config, crypto, manager, signed, verify = setup
    manager.note_own_suspect(0)
    for index in range(config.num_faults + 1):
        message = Suspect(f"r{index}", 0, "test")
        amplify, _ = manager.add_suspect(
            signed(f"r{index}", message), message, current_view=0
        )
    assert amplify is False


def test_validate_rejects_entry_without_quorum_proof(setup):
    config, crypto, manager, signed, verify = setup
    entry = make_prepared_entry(config, signed)
    weak = PreparedEntry(entry.seq, entry.view, entry.digest,
                         entry.pre_prepare, entry.proof[:1])
    vc = ViewChange("r2", 1, 0, (), (weak,))
    assert not manager.validate_view_change(
        signed("r2", vc), vc, verify, lambda s, p: True
    )


def test_validate_rejects_wrong_leader_pre_prepare(setup):
    config, crypto, manager, signed, verify = setup
    entry = make_prepared_entry(config, signed)
    # pre-prepare claims view 0 but is signed by a non-leader
    bogus_pp = PrePrepare("r3", 0, entry.seq, ())
    forged = PreparedEntry(
        entry.seq, 0, entry.digest, signed("r3", bogus_pp), entry.proof
    )
    vc = ViewChange("r2", 1, 0, (), (forged,))
    assert not manager.validate_view_change(
        signed("r2", vc), vc, verify, lambda s, p: True
    )


def test_derive_re_proposals_highest_view_wins(setup):
    config, crypto, manager, signed, verify = setup
    low = make_prepared_entry(config, signed, seq=5, view=0)
    high = make_prepared_entry(config, signed, seq=5, view=1)
    vcs = [
        ViewChange("r2", 2, 0, (), (low,)),
        ViewChange("r3", 2, 0, (), (high,)),
    ]
    start, proposals = derive_reproposals(PRIME_AGREEMENT, vcs)
    assert start == 0
    assert proposals[-1][0] == 5
    assert proposals[-1][1] == high.pre_prepare.payload.matrix


def test_derive_fills_gaps_with_noops(setup):
    config, crypto, manager, signed, verify = setup
    entry = make_prepared_entry(config, signed, seq=3)
    start, proposals = derive_reproposals(
        PRIME_AGREEMENT, [ViewChange("r2", 1, 0, (), (entry,))]
    )
    assert [seq for seq, _ in proposals] == [1, 2, 3]
    assert proposals[0][1] == ()  # gap -> no-op matrix


def test_derive_skips_below_checkpoint(setup):
    config, crypto, manager, signed, verify = setup
    entry = make_prepared_entry(config, signed, seq=3)
    vcs = [
        ViewChange("r2", 1, 10, (), (entry,)),   # checkpoint past the entry
        ViewChange("r3", 1, 0, (), ()),
    ]
    start, proposals = derive_reproposals(PRIME_AGREEMENT, vcs)
    assert start == 10
    assert proposals == []


def test_derive_deterministic(setup):
    config, crypto, manager, signed, verify = setup
    entries = [make_prepared_entry(config, signed, seq=s) for s in (2, 4)]
    vcs = [ViewChange("r2", 1, 0, (), tuple(entries))]
    assert derive_reproposals(PRIME_AGREEMENT, vcs) == \
        derive_reproposals(PRIME_AGREEMENT, vcs)


def test_build_new_view_requires_quorum(setup):
    config, crypto, manager, signed, verify = setup
    for index in range(config.quorum - 1):
        vc = ViewChange(f"r{index}", 1, 0, (), ())
        manager.add_view_change(signed(f"r{index}", vc), vc)
    assert manager.build_new_view(1, lambda p: signed("r1", p)) is None


def test_build_and_verify_new_view_roundtrip(setup):
    config, crypto, manager, signed, verify = setup
    # r1 is leader of view 1
    for index in range(config.quorum):
        vc = ViewChange(f"r{index}", 1, 0, (),
                        (make_prepared_entry(config, signed, seq=1),))
        manager.add_view_change(signed(f"r{index}", vc), vc)
    built = manager.build_new_view(1, lambda p: signed("r1", p))
    assert built is not None
    nv, max_seq = built
    assert max_seq == 1
    other = ViewChangeManager(config, "r4")
    verified = other.verify_new_view(
        signed("r1", nv), nv, verify, lambda s, p: True
    )
    assert verified is not None
    pre_prepares, start, end = verified
    assert [pp.payload.seq for pp in pre_prepares] == [1]


def test_verify_new_view_rejects_tampered_proposals(setup):
    config, crypto, manager, signed, verify = setup
    for index in range(config.quorum):
        vc = ViewChange(f"r{index}", 1, 0, (),
                        (make_prepared_entry(config, signed, seq=1),))
        manager.add_view_change(signed(f"r{index}", vc), vc)
    nv, _ = manager.build_new_view(1, lambda p: signed("r1", p))
    # a Byzantine leader swaps in its own proposal for seq 1
    evil_pp = signed("r1", PrePrepare("r1", 1, 1, ()))
    tampered = type(nv)(nv.leader, nv.view, nv.view_changes, (evil_pp,))
    other = ViewChangeManager(config, "r4")
    assert other.verify_new_view(
        signed("r1", tampered), tampered, verify, lambda s, p: True
    ) is None


def test_verify_new_view_rejects_wrong_leader(setup):
    config, crypto, manager, signed, verify = setup
    nv_like = __import__("repro.prime.messages", fromlist=["NewView"]).NewView(
        "r3", 1, (), ()
    )
    assert manager.verify_new_view(
        signed("r3", nv_like), nv_like, verify, lambda s, p: True
    ) is None


def test_garbage_collect_drops_old_views(setup):
    config, crypto, manager, signed, verify = setup
    for view in (0, 1, 2):
        message = Suspect("r2", view, "x")
        manager.add_suspect(signed("r2", message), message, current_view=0)
    manager.garbage_collect(2)
    assert 0 not in manager.suspects
    assert 2 in manager.suspects


# ----------------------------------------------------------------------
# Consecutive leader failures
# ----------------------------------------------------------------------

def test_three_consecutive_failed_leaders_preserve_prepared(setup):
    """An entry prepared in view 0 survives three failed leaders in a
    row: each hop's quorum re-carries it, and the fourth leader's
    NewView finally re-proposes it."""
    config, crypto, manager, signed, verify = setup
    entry = make_prepared_entry(config, signed, seq=1, view=0)
    for view in (1, 2, 3):
        # quorum accuses into `view`; its leader crashes before NewView
        mgr = ViewChangeManager(config, config.leader_of_view(view))
        for index in range(config.quorum):
            vc = ViewChange(f"r{index}", view, 0, (), (entry,))
            mgr.add_view_change(signed(f"r{index}", vc), vc)
        built = mgr.build_new_view(
            view, lambda p, v=view: signed(config.leader_of_view(v), p))
        assert built is not None   # each leader COULD have completed...
    # ...but none did; the view-4 leader completes the hop chain
    leader4 = config.leader_of_view(4)
    final = ViewChangeManager(config, leader4)
    for index in range(config.quorum):
        vc = ViewChange(f"r{index}", 4, 0, (), (entry,))
        final.add_view_change(signed(f"r{index}", vc), vc)
    nv, max_seq = final.build_new_view(4, lambda p: signed(leader4, p))
    assert max_seq == 1
    observer = ViewChangeManager(config, "r5")
    verified = observer.verify_new_view(
        signed(leader4, nv), nv, verify, lambda s, p: True)
    assert verified is not None
    pre_prepares, _, _ = verified
    assert [(pp.payload.seq, pp.payload.matrix) for pp in pre_prepares] == \
        [(1, entry.pre_prepare.payload.matrix)]


def test_suspect_streak_across_views(setup):
    """A replica tracks suspicion through view 0 -> 1 -> 2: each view's
    quorum of suspects independently triggers its view change."""
    config, crypto, manager, signed, verify = setup
    for view in (0, 1, 2):
        triggered = False
        for index in range(config.quorum):
            message = Suspect(f"r{index}", view, "dead-leader")
            _, view_change = manager.add_suspect(
                signed(f"r{index}", message), message, current_view=view)
            triggered = triggered or view_change
        assert triggered, f"view {view} quorum did not trigger"
        manager.garbage_collect(view + 1)
    assert 0 not in manager.suspects and 1 not in manager.suspects
