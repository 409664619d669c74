"""Merkle trees over record digests for batch-amortized threshold crypto.

An ordered delivery batch carries **one** threshold signature over the
Merkle root of its records; endpoints verify each individual record with
a compact inclusion proof (``ceil(log2(count))`` hashes) instead of a
per-record threshold combine. The tree here is the standard unbalanced
binary construction (RFC 6962 style): leaves are hashed with a leaf
domain tag, internal nodes with a node domain tag — so a leaf digest can
never be confused with an internal node, and a proof for one tree shape
cannot be replayed against another.

Shapes need not be powers of two: an unpaired node at the end of a level
is *carried up* unchanged (no duplication), which keeps proofs minimal
and makes the root of a singleton batch just the tagged leaf hash.

All digests are lowercase hex SHA-256 strings, matching
:func:`repro.crypto.encoding.digest`.
"""

from __future__ import annotations

from hashlib import sha256 as _sha256
from typing import List, Sequence, Tuple

__all__ = ["merkle_root", "merkle_proof", "merkle_tree", "verify_merkle_proof"]

#: domain-separation tags (leaf vs internal node)
_LEAF = b"\x00"
_NODE = b"\x01"


def _leaf_hash(leaf: str) -> str:
    return _sha256(_LEAF + leaf.encode()).hexdigest()


def _node_hash(left: str, right: str) -> str:
    return _sha256(_NODE + left.encode() + right.encode()).hexdigest()


def _levels(leaves: Sequence[str]) -> List[List[str]]:
    """All tree levels bottom-up; ``levels[0]`` is the tagged leaf row."""
    if not leaves:
        raise ValueError("cannot build a Merkle tree over zero leaves")
    level = [_leaf_hash(leaf) for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = [
            _node_hash(level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])  # odd node carried up unchanged
        level = nxt
        levels.append(level)
    return levels


def merkle_root(leaves: Sequence[str]) -> str:
    """Root digest of the tree over ``leaves`` (record digests)."""
    return _levels(leaves)[-1][0]


def _proof_in(levels: List[List[str]], index: int) -> Tuple[str, ...]:
    siblings: List[str] = []
    position = index
    for level in levels:  # the root level has no sibling in range
        sibling = position ^ 1
        if sibling < len(level):
            siblings.append(level[sibling])
        position //= 2
    return tuple(siblings)


def merkle_proof(leaves: Sequence[str], index: int) -> Tuple[str, ...]:
    """Inclusion proof for ``leaves[index]``: sibling digests bottom-up.

    Levels where the node is carried up unpaired contribute no entry, so
    the proof length for a given ``(index, count)`` is fixed by the tree
    shape — :func:`verify_merkle_proof` re-derives and enforces it.
    """
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} out of range for {len(leaves)} leaves")
    return _proof_in(_levels(leaves), index)


def merkle_tree(leaves: Sequence[str]) -> Tuple[str, List[Tuple[str, ...]]]:
    """``(root, proofs)`` from one build of the tree: ``proofs[i]`` equals
    ``merkle_proof(leaves, i)`` without hashing the tree again per leaf."""
    levels = _levels(leaves)
    return levels[-1][0], [_proof_in(levels, i) for i in range(len(leaves))]


def _is_digest_text(value: object) -> bool:
    """Whether the hash helpers accept ``value``: real digests are hex,
    so anything but a plain ASCII ``str`` is refused without hashing."""
    return value.__class__ is str and value.isascii()


def verify_merkle_proof(
    leaf: str, index: int, count: int, proof: Sequence[str], root: str
) -> bool:
    """True iff ``leaf`` sits at ``index`` in the ``count``-leaf tree with
    ``root``. Rejects out-of-range indices and wrong-shape proofs, and —
    ``index`` and ``proof`` arrive in a peer's message — anything
    ill-typed: it never raises."""
    if not (isinstance(index, int) and isinstance(count, int)):
        return False
    if count < 1 or not 0 <= index < count:
        return False
    if not isinstance(proof, (tuple, list)):
        return False
    if not all(map(_is_digest_text, (leaf, root, *proof))):
        return False
    node = _leaf_hash(leaf)
    position, width = index, count
    consumed = 0
    while width > 1:
        sibling = position ^ 1
        if sibling < width:
            if consumed >= len(proof):
                return False
            other = proof[consumed]
            consumed += 1
            if position % 2:
                node = _node_hash(other, node)
            else:
                node = _node_hash(node, other)
        position //= 2
        width = (width + 1) // 2
    return consumed == len(proof) and node == root
