"""Tests for Shoup-style threshold RSA."""

import pytest

from repro.crypto import PartialSignature, ThresholdGroup, generate_threshold_group


@pytest.fixture(scope="module")
def group_2_of_6():
    public, shares = generate_threshold_group(6, 2, bits=512, seed="t26")
    return public, shares, ThresholdGroup(public)


@pytest.fixture(scope="module")
def group_3_of_7():
    public, shares = generate_threshold_group(7, 3, bits=512, seed="t37")
    return public, shares, ThresholdGroup(public)


def test_exact_threshold_combines(group_2_of_6):
    public, shares, combiner = group_2_of_6
    data = b"update"
    sig = combiner.combine_shares_robust(data, [shares[1].sign(data), shares[4].sign(data)])
    assert sig is not None and public.verify(data, sig)


def test_any_share_subset_works(group_3_of_7):
    public, shares, combiner = group_3_of_7
    data = b"payload"
    for subset in ((1, 2, 3), (2, 5, 7), (1, 4, 6)):
        sig = combiner.combine_shares_robust(data, [shares[i].sign(data) for i in subset])
        assert sig is not None and public.verify(data, sig)


def test_too_few_shares_raises(group_3_of_7):
    _, shares, combiner = group_3_of_7
    data = b"x"
    assert combiner.combine_shares_robust(
        data, [shares[1].sign(data), shares[2].sign(data)]) is None


def test_combined_signature_is_standard_rsa(group_2_of_6):
    # the combined value equals h(m)^d and verifies with plain RSA check
    public, shares, combiner = group_2_of_6
    data = b"m"
    sig = combiner.combine_shares_robust(data, [shares[2].sign(data), shares[3].sign(data)])
    from repro.crypto.rsa import _fdh
    assert pow(sig, public.e, public.n) == _fdh(data, public.n)


def test_wrong_message_rejected(group_2_of_6):
    public, shares, combiner = group_2_of_6
    data = b"m"
    sig = combiner.combine_shares_robust(data, [shares[1].sign(data), shares[2].sign(data)])
    assert sig is not None and not public.verify(b"other", sig)


def test_robust_combine_survives_corrupt_share(group_2_of_6):
    public, shares, combiner = group_2_of_6
    data = b"m"
    parts = [
        shares[1].sign(data),
        PartialSignature(3, 123456789),  # corrupt
        shares[5].sign(data),
    ]
    sig = combiner.combine_shares_robust(data, parts)
    assert sig is not None and public.verify(data, sig)


def test_robust_combine_fails_below_honest_threshold(group_3_of_7):
    _, shares, combiner = group_3_of_7
    data = b"m"
    parts = [
        shares[1].sign(data),
        shares[2].sign(data),
        PartialSignature(3, 1), PartialSignature(4, 2),
    ]
    assert combiner.combine_shares_robust(data, parts) is None


def test_shares_from_wrong_message_do_not_combine(group_2_of_6):
    _, shares, combiner = group_2_of_6
    parts = [shares[1].sign(b"a"), shares[2].sign(b"b")]
    assert combiner.combine_shares_robust(b"a", parts) is None


def test_duplicate_share_indices_do_not_count_twice(group_2_of_6):
    _, shares, combiner = group_2_of_6
    data = b"m"
    same = shares[1].sign(data)
    assert combiner.combine_shares_robust(data, [same, same]) is None


def test_keygen_deterministic():
    a, _ = generate_threshold_group(4, 2, bits=512, seed="det")
    b, _ = generate_threshold_group(4, 2, bits=512, seed="det")
    assert a.n == b.n


def test_keygen_validation():
    with pytest.raises(ValueError):
        generate_threshold_group(4, 0)
    with pytest.raises(ValueError):
        generate_threshold_group(4, 5)
    with pytest.raises(ValueError):
        generate_threshold_group(10, 2, e=7)  # exponent must exceed players


def test_threshold_one_behaves_like_plain(group_2_of_6):
    public, shares, _ = group_2_of_6
    one_pub, one_shares = generate_threshold_group(3, 1, bits=512, seed="one")
    combiner = ThresholdGroup(one_pub)
    data = b"solo"
    sig = combiner.combine_shares_robust(data, [one_shares[2].sign(data)])
    assert sig is not None and one_pub.verify(data, sig)


def test_full_group_signing(group_3_of_7):
    public, shares, combiner = group_3_of_7
    data = b"all"
    parts = [shares[i].sign(data) for i in range(1, 8)]
    sig = combiner.combine_shares_robust(data, parts)
    assert sig is not None and public.verify(data, sig)
