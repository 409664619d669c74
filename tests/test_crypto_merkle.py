"""Merkle tree construction and inclusion-proof verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.update import DeliveryRecord, batch_of_records
from repro.crypto import (
    digest,
    merkle,
    merkle_proof,
    merkle_root,
    merkle_tree,
    verify_merkle_proof,
)
from repro.crypto.merkle import _leaf_hash, _node_hash


def leaves_of(count):
    return [f"leaf-{i}" for i in range(count)]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def test_singleton_root_is_tagged_leaf_hash():
    assert merkle_root(["only"]) == _leaf_hash("only")


def test_two_leaf_root_is_node_of_leaf_hashes():
    root = merkle_root(["a", "b"])
    assert root == _node_hash(_leaf_hash("a"), _leaf_hash("b"))


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


def test_root_deterministic_and_content_sensitive():
    leaves = leaves_of(7)
    assert merkle_root(leaves) == merkle_root(list(leaves))
    changed = leaves[:3] + ["tampered"] + leaves[4:]
    assert merkle_root(changed) != merkle_root(leaves)


def test_leaf_and_node_domains_separated():
    # A one-leaf tree whose leaf equals an internal node's input must not
    # produce that node's hash: leaf and node hashing use distinct tags.
    left, right = _leaf_hash("a"), _leaf_hash("b")
    assert merkle_root([left + right]) != _node_hash(left, right)


# ----------------------------------------------------------------------
# Proof round-trips across shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33])
def test_every_index_verifies(count):
    leaves = leaves_of(count)
    root = merkle_root(leaves)
    for index in range(count):
        proof = merkle_proof(leaves, index)
        assert verify_merkle_proof(leaves[index], index, count, proof, root), (
            f"index {index} of {count}"
        )


def test_one_build_equals_root_and_each_proof():
    for count in range(1, 34):
        leaves = leaves_of(count)
        root, proofs = merkle_tree(leaves)
        assert root == merkle_root(leaves)
        assert proofs == [merkle_proof(leaves, i) for i in range(count)]


def test_batch_of_records_builds_its_tree_once(monkeypatch):
    real_sha256 = merkle._sha256
    hashed = []

    def counting_sha256(data):
        hashed.append(data)
        return real_sha256(data)

    monkeypatch.setattr(merkle, "_sha256", counting_sha256)
    records = [DeliveryRecord("status", "rtu", i, 100 + i, ("v", i)) for i in range(64)]
    batch, entries = batch_of_records("replica:0#0", 1, records)
    assert len(hashed) <= 127  # 64 leaves + 63 internal nodes, once
    assert all(
        verify_merkle_proof(
            digest(e.record), e.index, batch.count, e.proof, batch.merkle_root
        )
        for e in entries
    )


@pytest.mark.parametrize("count", [2, 4, 8, 16])
def test_power_of_two_proof_length(count):
    leaves = leaves_of(count)
    expected = count.bit_length() - 1
    for index in range(count):
        assert len(merkle_proof(leaves, index)) == expected


def test_ragged_shapes_have_carried_levels():
    # leaf 4 of a 5-leaf tree is carried up unpaired twice: its proof has
    # a single sibling (the root of the 4-leaf subtree)
    leaves = leaves_of(5)
    assert len(merkle_proof(leaves, 4)) == 1
    assert len(merkle_proof(leaves, 0)) == 3


def test_singleton_proof_is_empty():
    leaves = ["solo"]
    proof = merkle_proof(leaves, 0)
    assert proof == ()
    assert verify_merkle_proof("solo", 0, 1, (), merkle_root(leaves))


# ----------------------------------------------------------------------
# Rejection
# ----------------------------------------------------------------------


@pytest.mark.parametrize("count", [3, 6, 8])
def test_tampered_leaf_rejected(count):
    leaves = leaves_of(count)
    root = merkle_root(leaves)
    for index in range(count):
        proof = merkle_proof(leaves, index)
        assert not verify_merkle_proof("tampered", index, count, proof, root)


def test_wrong_index_rejected():
    leaves = leaves_of(6)
    root = merkle_root(leaves)
    proof = merkle_proof(leaves, 2)
    for wrong in (0, 1, 3, 4, 5):
        assert not verify_merkle_proof(leaves[2], wrong, 6, proof, root)


def test_wrong_count_rejected():
    leaves = leaves_of(6)
    root = merkle_root(leaves)
    proof = merkle_proof(leaves, 2)
    # Counts that change the fold shape along index 2's path are rejected
    # (shape-equivalent counts like 5 fold identically — the batch record
    # binds the true count under the threshold signature, so the verifier
    # is never handed an attacker-chosen count).
    for wrong_count in (1, 2, 3, 12):
        assert not verify_merkle_proof(leaves[2], 2, wrong_count, proof, root)


def test_out_of_range_index_rejected():
    leaves = leaves_of(4)
    root = merkle_root(leaves)
    proof = merkle_proof(leaves, 0)
    assert not verify_merkle_proof(leaves[0], -1, 4, proof, root)
    assert not verify_merkle_proof(leaves[0], 4, 4, proof, root)
    assert not verify_merkle_proof(leaves[0], 0, 0, proof, root)


def test_truncated_and_padded_proofs_rejected():
    leaves = leaves_of(8)
    root = merkle_root(leaves)
    proof = merkle_proof(leaves, 3)
    assert not verify_merkle_proof(leaves[3], 3, 8, proof[:-1], root)
    assert not verify_merkle_proof(leaves[3], 3, 8, proof + (proof[0],), root)


def test_proof_for_wrong_root_rejected():
    leaves = leaves_of(8)
    other_root = merkle_root(leaves_of(9)[:8:][::-1])
    proof = merkle_proof(leaves, 3)
    assert not verify_merkle_proof(leaves[3], 3, 8, proof, other_root)


def test_proof_index_out_of_range_raises():
    leaves = leaves_of(4)
    with pytest.raises(IndexError):
        merkle_proof(leaves, 4)
    with pytest.raises(IndexError):
        merkle_proof(leaves, -1)


# ----------------------------------------------------------------------
# Totality: index and proof arrive in a Byzantine replica's message
# ----------------------------------------------------------------------

_junk = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.binary(max_size=8),
    st.text(max_size=8), st.tuples(st.integers()), st.booleans(),
)


@pytest.mark.parametrize("proof", [(1,), (None,), (b"x",), ("\ud800",), None, 7, "ab"])
def test_ill_typed_proof_is_rejected_not_raised(proof):
    leaves = leaves_of(2)
    assert not verify_merkle_proof(leaves[0], 0, 2, proof, merkle_root(leaves))


@pytest.mark.parametrize("leaf, index, count, root", [
    (None, 0, 2, "r"), (b"leaf-0", 0, 2, "r"), ("leaf-0", 0, 2, None),
    ("leaf-0", 0, 2, b"r"), ("leaf-0", "0", 2, "r"), ("leaf-0", None, 2, "r"),
    ("leaf-0", 0, "2", "r"), ("leaf-0", 0, None, "r"), ("leaf-0", 0.0, 2.0, "r"),
])
def test_ill_typed_leaf_index_count_root_are_rejected_not_raised(leaf, index, count, root):
    proof = merkle_proof(leaves_of(2), 0)
    assert not verify_merkle_proof(leaf, index, count, proof, root)


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=9),
    index=st.one_of(st.integers(min_value=-2, max_value=10), _junk),
    claimed_count=st.one_of(st.integers(min_value=-1, max_value=12), _junk),
    proof=st.one_of(
        _junk,
        st.lists(st.one_of(_junk, st.sampled_from(leaves_of(9))), max_size=6).map(tuple),
    ),
    data=st.data(),
)
def test_verification_never_raises_and_accepts_only_the_trees_own_proofs(
    count, index, claimed_count, proof, data
):
    """Over ill-typed, short, long and spliced proofs: a verdict, never
    an exception; and, at the tree's true count (the signed batch record
    binds it), True only for the proof the tree itself yields."""
    leaves = leaves_of(count)
    root, proofs = merkle_tree(leaves)
    # half the time start from a genuine proof and cut, pad or splice it
    if data.draw(st.booleans()):
        at = data.draw(st.integers(min_value=0, max_value=count - 1))
        genuine = proofs[at]
        cut = data.draw(st.integers(min_value=0, max_value=len(genuine)))
        extra = data.draw(st.lists(st.one_of(_junk, st.just(root)), max_size=2))
        index, claimed_count = at, count
        proof = genuine[:cut] + tuple(extra)
    leaf = leaves[index] if isinstance(index, int) and 0 <= index < count else "leaf-0"
    verdict = verify_merkle_proof(leaf, index, claimed_count, proof, root)
    assert verdict is True or verdict is False
    if verdict and claimed_count == count:
        assert tuple(proof) == proofs[index]  # a bool index is the int it equals
