"""Property tests for the shared quorum primitives.

Three families of properties:

* **Threshold placement** — across ``(f, k)`` sweeps with the minimal
  ``n = 3f + 2k + 1`` replica placement, the Prime quorum ``2f + k + 1``
  is exactly where :class:`~repro.replication.quorum.QuorumTracker`
  produces a certificate, and any two such quorums intersect in more
  than ``f`` replicas (so a correct replica witnesses both).
* **Vote hygiene** — the last vote per sender wins, so duplicates never
  inflate a count, and an equivocating sender contributes at most one
  vote per digest, so it can never push two conflicting values to
  quorum with fewer honest accomplices than the thresholds demand.
* **Vouched claims** — :func:`~repro.replication.quorum.vouched` is the
  largest value that ``f + 1`` claimants claim at least.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.prime.config import PrimeConfig  # noqa: E402
from repro.replication import (  # noqa: E402
    QuorumTracker,
    SignedMessage,
    assemble_certificate,
    vouched,
)


def _vote(sender: str) -> SignedMessage:
    # The tracker never inspects payload or signature; envelope checks
    # happen in collect_valid_voters.
    return SignedMessage(("vote", sender), None)


def _names(n: int):
    return tuple(f"replica:{i}" for i in range(n))


fk = st.tuples(st.integers(min_value=1, max_value=4),
               st.integers(min_value=0, max_value=4))


# ----------------------------------------------------------------------
# Threshold placement: 2f + k + 1 of n = 3f + 2k + 1
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(fk=fk)
def test_prime_quorum_matches_resilience_placement(fk):
    f, k = fk
    n = 3 * f + 2 * k + 1
    config = PrimeConfig(_names(n), num_faults=f, num_recovering=k)
    assert config.n == n
    assert config.quorum == 2 * f + k + 1
    # Any two quorums overlap in >= 2q - n = f + 1 replicas: more than
    # the f that can be faulty, so a correct replica bridges them.
    assert 2 * config.quorum - n == f + 1
    # And a quorum survives k recovering + f faulty replicas being silent.
    assert config.quorum <= n - f - k


@settings(max_examples=40, deadline=None)
@given(fk=fk, data=st.data())
def test_tracker_certificate_appears_exactly_at_quorum(fk, data):
    f, k = fk
    n = 3 * f + 2 * k + 1
    config = PrimeConfig(_names(n), num_faults=f, num_recovering=k)
    quorum = config.quorum
    voters = data.draw(st.permutations(list(config.replicas)))
    tracker = QuorumTracker()
    for index, sender in enumerate(voters, start=1):
        assert len(tracker.add("seq", "digest", sender, _vote(sender))) == index
        cert = tracker.certificate("seq", "digest", quorum)
        if index < quorum:
            assert cert is None
        else:
            assert len(cert) == quorum
    # The certificate is canonical: quorum-first voters in name order,
    # independent of arrival order.
    expected = assemble_certificate(tracker.voters("seq", "digest"), quorum)
    assert tracker.certificate("seq", "digest", quorum) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=16), data=st.data())
def test_certificate_is_arrival_order_independent(n, data):
    names = list(_names(n))
    first = data.draw(st.permutations(names))
    second = data.draw(st.permutations(names))
    quorum = data.draw(st.integers(min_value=1, max_value=n))
    one, two = QuorumTracker(), QuorumTracker()
    for sender in first:
        one.add(7, "d", sender, _vote(sender))
    for sender in second:
        two.add(7, "d", sender, _vote(sender))
    assert one.certificate(7, "d", quorum) == two.certificate(7, "d", quorum)


# ----------------------------------------------------------------------
# Vote hygiene: duplicates and equivocation
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    repeats=st.integers(min_value=2, max_value=10),
    honest=st.integers(min_value=0, max_value=5),
)
def test_duplicate_votes_never_inflate_the_count(repeats, honest):
    tracker = QuorumTracker()
    for _ in range(repeats):
        tracker.add("seq", "digest", "replica:dup", _vote("replica:dup"))
    for i in range(honest):
        tracker.add("seq", "digest", f"replica:{i}", _vote(f"replica:{i}"))
    assert len(tracker.voters("seq", "digest")) == honest + 1
    # a quorum above the distinct-voter count stays unreachable
    assert tracker.certificate("seq", "digest", honest + 2) is None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), data=st.data())
def test_the_last_vote_per_sender_wins(n, data):
    names = list(_names(n))
    tracker = QuorumTracker()
    last = {}
    senders = data.draw(st.lists(st.sampled_from(names), max_size=4 * n))
    for index, sender in enumerate(senders):
        vote = SignedMessage(("vote", sender, index), None)
        voters = tracker.add("seq", "digest", sender, vote)
        last[sender] = vote
        assert voters == last  # what ``add`` returns is the live vote map
    assert tracker.voters("seq", "digest") == last
    assert tracker.certificate("seq", "digest", len(last)) == tuple(
        last[sender] for sender in sorted(last)
    )


@settings(max_examples=40, deadline=None)
@given(fk=fk, data=st.data())
def test_equivocator_cannot_double_count_toward_either_digest(fk, data):
    f, k = fk
    n = 3 * f + 2 * k + 1
    config = PrimeConfig(_names(n), num_faults=f, num_recovering=k)
    quorum = config.quorum
    tracker = QuorumTracker()
    equivocators = list(config.replicas[:f])  # at most f byzantine senders
    honest = list(config.replicas[f:])
    votes_a = data.draw(st.integers(min_value=0, max_value=len(honest)))
    for sender in equivocators:
        for digest in ("digest-a", "digest-b"):
            for _ in range(3):  # spam both digests, repeatedly
                tracker.add("seq", digest, sender, _vote(sender))
    for sender in honest[:votes_a]:
        tracker.add("seq", "digest-a", sender, _vote(sender))
    for sender in honest[votes_a:]:
        tracker.add("seq", "digest-b", sender, _vote(sender))
    voters_a = tracker.voters("seq", "digest-a")
    voters_b = tracker.voters("seq", "digest-b")
    # the equivocators, and only they, hold a vote on each side
    assert set(voters_a) & set(voters_b) == set(equivocators)
    assert len(voters_a) == votes_a + f
    assert len(voters_b) == (len(honest) - votes_a) + f
    # With n = 3f + 2k + 1 and q = 2f + k + 1, both digests reaching
    # quorum would need 2q - f = 3f + 2k + 2 > n distinct honest-or-not
    # voters — impossible: equivocation can poison at most one value.
    both = (
        tracker.certificate("seq", "digest-a", quorum) is not None
        and tracker.certificate("seq", "digest-b", quorum) is not None
    )
    assert not both


# ----------------------------------------------------------------------
# Keys: discard, drop and garbage collection
# ----------------------------------------------------------------------
def test_a_key_goes_with_its_last_vote():
    tracker = QuorumTracker()
    tracker.add(1, "a", "replica:0", _vote("replica:0"))
    tracker.add(1, "b", "replica:0", _vote("replica:0"))
    tracker.add(1, "b", "replica:1", _vote("replica:1"))
    tracker.add(2, "a", "replica:1", _vote("replica:1"))
    tracker.discard(1, "replica:0")  # both of its values, nobody else's
    assert list(tracker) == [1, 2]
    assert tracker.voters(1, "a") == {}
    assert list(tracker.voters(1, "b")) == ["replica:1"]
    tracker.discard(1, "replica:1")
    tracker.discard(3, "replica:1")  # an unknown key is a no-op
    assert 1 not in tracker and list(tracker) == [2]
    for seq in range(3, 7):
        tracker.add(seq, "a", "replica:0", _vote("replica:0"))
    tracker.drop_upto(4)
    assert list(tracker) == [5, 6] and len(tracker) == 2
    tracker.drop(6)
    assert list(tracker) == [5]


def test_the_table_keeps_only_what_program_code_calls():
    public = {name for name in vars(QuorumTracker) if not name.startswith("_")}
    assert public == {"add", "voters", "certificate", "discard", "drop", "drop_upto"}


# ----------------------------------------------------------------------
# Vouched claims: the (f+1)-th largest
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    claims=st.lists(st.integers(min_value=0, max_value=20), max_size=10),
    faults=st.integers(min_value=0, max_value=4),
)
def test_vouched_is_the_largest_value_f_plus_one_claim_at_least(claims, faults):
    supported = [
        value for value in set(claims)
        if sum(1 for claim in claims if claim >= value) >= faults + 1
    ]
    assert vouched(claims, faults) == max(supported, default=None)
    # the decision each caller makes: do f+1 replicas claim more than x?
    for x in range(-1, 22):
        ahead = sum(1 for claim in claims if claim > x) >= faults + 1
        best = vouched(iter(claims), faults)
        assert ahead == (best is not None and best > x)
