"""Batch crypto operations: equivalence with per-message ops, fail-fast
MAC bisection, and TimedCrypto batch accounting."""

import pytest

from repro.crypto import (
    FastCrypto,
    RealCrypto,
    Signature,
    TimedCrypto,
    bisect_mismatches,
)
from repro.obs import Observability


MESSAGES = [("reading", i, float(i)) for i in range(9)]


@pytest.fixture(params=["fast", "real"])
def provider(request):
    if request.param == "fast":
        return FastCrypto(seed="batch-test")
    return RealCrypto(seed="batch-test", bits=512)


# ----------------------------------------------------------------------
# Batch ops match the per-message ops bit-for-bit
# ----------------------------------------------------------------------


def test_sign_batch_matches_loop(provider):
    looped = [provider.sign("alice", m) for m in MESSAGES]
    batched = provider.sign_batch("alice", MESSAGES)
    assert batched == looped
    assert provider.verify_batch(batched, MESSAGES) == [True] * len(MESSAGES)


def test_verify_batch_flags_bad_signatures(provider):
    signatures = provider.sign_batch("alice", MESSAGES)
    # mallory's signature value attributed to alice must not verify
    forged = provider.sign("mallory", MESSAGES[3])
    signatures[3] = Signature("alice", forged.value)
    flags = provider.verify_batch(signatures, MESSAGES)
    assert flags == [i != 3 for i in range(len(MESSAGES))]


def test_verify_batch_length_mismatch_raises(provider):
    signatures = provider.sign_batch("alice", MESSAGES)
    with pytest.raises(ValueError):
        provider.verify_batch(signatures[:-1], MESSAGES)


def test_mac_batch_matches_loop(provider):
    looped = [provider.mac("a", "b", m) for m in MESSAGES]
    assert provider.mac_batch("a", "b", MESSAGES) == looped


def test_check_mac_batch_all_good(provider):
    tags = provider.mac_batch("a", "b", MESSAGES)
    assert provider.check_mac_batch("a", "b", MESSAGES, tags) == [True] * len(MESSAGES)


def test_check_mac_batch_flags_exact_corruption(provider):
    tags = provider.mac_batch("a", "b", MESSAGES)
    tags[1] = b"\x00" * 32
    tags[7] = b"\x01" * 32
    flags = provider.check_mac_batch("a", "b", MESSAGES, tags)
    assert flags == [i not in (1, 7) for i in range(len(MESSAGES))]


def test_threshold_sign_share_batch_matches_loop(provider):
    provider.create_threshold_group("g", 4, 2)
    looped = [provider.threshold_sign_share("g", 2, m) for m in MESSAGES]
    batched = provider.threshold_sign_share_batch("g", 2, MESSAGES)
    assert batched == looped
    # shares from the batch path combine exactly like per-message shares
    other = provider.threshold_sign_share_batch("g", 4, MESSAGES)
    for message, s1, s2 in zip(MESSAGES, batched, other):
        combined = provider.threshold_combine("g", message, [s1, s2])
        assert combined is not None
        assert provider.threshold_verify(combined, message)


def test_threshold_sign_share_batch_bad_index(provider):
    provider.create_threshold_group("g", 4, 2)
    if isinstance(provider, FastCrypto):
        with pytest.raises(ValueError):
            provider.threshold_sign_share_batch("g", 5, MESSAGES)
    else:
        with pytest.raises(KeyError):
            provider.threshold_sign_share_batch("g", 5, MESSAGES)


# ----------------------------------------------------------------------
# Fail-fast bisection
# ----------------------------------------------------------------------


def tags_of(n):
    return [bytes([i]) * 32 for i in range(n)]


def test_bisect_all_good_costs_one_comparison():
    expected = tags_of(64)
    bad, comparisons = bisect_mismatches(expected, list(expected))
    assert bad == []
    assert comparisons == 1


def test_bisect_isolates_single_corruption_logarithmically():
    expected = tags_of(64)
    received = list(expected)
    received[37] = b"\xff" * 32
    bad, comparisons = bisect_mismatches(expected, received)
    assert bad == [37]
    # one aggregate per level on the path to the leaf, plus the sibling
    # aggregates that short-circuit: far fewer than 64 comparisons
    assert comparisons <= 2 * 64 .bit_length() + 2


def test_bisect_finds_multiple_corruptions_in_order():
    expected = tags_of(32)
    received = list(expected)
    for index in (0, 13, 31):
        received[index] = b"\xee" * 32
    bad, comparisons = bisect_mismatches(expected, received)
    assert bad == [0, 13, 31]
    assert comparisons < 32


def test_bisect_empty_and_mismatched_lengths():
    assert bisect_mismatches([], []) == ([], 0)
    with pytest.raises(ValueError):
        bisect_mismatches(tags_of(3), tags_of(4))


def test_bisect_all_corrupt():
    expected = tags_of(8)
    received = [b"\xaa" * 32] * 8
    bad, _ = bisect_mismatches(expected, received)
    assert bad == list(range(8))


# ----------------------------------------------------------------------
# TimedCrypto batch accounting
# ----------------------------------------------------------------------


def test_timed_crypto_counts_batches_and_items():
    obs = Observability()
    timed = TimedCrypto(FastCrypto(seed="timed"), obs)
    timed.create_threshold_group("g", 4, 2)

    signatures = timed.sign_batch("alice", MESSAGES)
    timed.verify_batch(signatures, MESSAGES)
    tags = timed.mac_batch("a", "b", MESSAGES)
    timed.check_mac_batch("a", "b", MESSAGES, tags)
    timed.threshold_sign_share_batch("g", 1, MESSAGES)

    metrics = obs.snapshot()["metrics"]
    n = len(MESSAGES)
    for op in (
        "sign_batch",
        "verify_batch",
        "mac_batch",
        "check_mac_batch",
        "threshold_sign_share_batch",
    ):
        assert metrics[f"crypto.{op}.calls"] == 1, op
        assert metrics[f"crypto.{op}.items"] == n, op


def test_timed_crypto_batch_results_match_inner():
    inner = FastCrypto(seed="timed-eq")
    timed = TimedCrypto(FastCrypto(seed="timed-eq"), Observability())
    assert timed.sign_batch("alice", MESSAGES) == inner.sign_batch("alice", MESSAGES)
    assert timed.mac_batch("a", "b", MESSAGES) == inner.mac_batch("a", "b", MESSAGES)
