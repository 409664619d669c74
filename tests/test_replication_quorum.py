"""Property tests for the shared quorum primitives.

Two families of properties:

* **Threshold placement** — across ``(f, k)`` sweeps with the minimal
  ``n = 3f + 2k + 1`` replica placement, the Prime quorum ``2f + k + 1``
  is exactly where :class:`~repro.replication.quorum.QuorumTracker`
  produces a certificate, and any two such quorums intersect in more
  than ``f`` replicas (so a correct replica witnesses both).
* **Vote hygiene** — duplicate votes from one sender never inflate a
  count, and an equivocating sender contributes at most one vote per
  digest, so it can never push two conflicting values to quorum with
  fewer honest accomplices than the thresholds demand.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.prime.config import PrimeConfig  # noqa: E402
from repro.replication import (  # noqa: E402
    QuorumTracker,
    SignedMessage,
    assemble_certificate,
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
    tracker = QuorumTracker(quorum=quorum)
    for index, sender in enumerate(voters, start=1):
        count = tracker.add("seq", "digest", sender, _vote(sender))
        assert count == index
        cert = tracker.certificate("seq", "digest")
        if index < quorum:
            assert not tracker.has_quorum("seq", "digest")
            assert cert is None
        else:
            assert tracker.has_quorum("seq", "digest")
            assert len(cert) == quorum
    # The certificate is canonical: quorum-first voters in name order,
    # independent of arrival order.
    expected = assemble_certificate(tracker.voters("seq", "digest"), quorum)
    assert tracker.certificate("seq", "digest") == expected


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
    assert tracker.count("seq", "digest") == honest + 1
    # a quorum above the distinct-voter count stays unreachable
    assert tracker.certificate("seq", "digest", honest + 2) is None


@settings(max_examples=40, deadline=None)
@given(fk=fk, data=st.data())
def test_equivocator_cannot_double_count_toward_either_digest(fk, data):
    f, k = fk
    n = 3 * f + 2 * k + 1
    config = PrimeConfig(_names(n), num_faults=f, num_recovering=k)
    quorum = config.quorum
    tracker = QuorumTracker(quorum=quorum)
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
    assert tracker.equivocators("seq") == set(equivocators)
    assert tracker.count("seq", "digest-a") == votes_a + f
    assert tracker.count("seq", "digest-b") == (len(honest) - votes_a) + f
    # With n = 3f + 2k + 1 and q = 2f + k + 1, both digests reaching
    # quorum would need 2q - f = 3f + 2k + 2 > n distinct honest-or-not
    # voters — impossible: equivocation can poison at most one value.
    both = (
        tracker.has_quorum("seq", "digest-a")
        and tracker.has_quorum("seq", "digest-b")
    )
    assert not both
