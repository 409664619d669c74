"""Checkpointing, garbage collection, and state transfer.

Replicas checkpoint every ``checkpoint_interval_seqs`` ordered slots. A
checkpoint becomes *stable* when ``2f + k + 1`` replicas have signed the
same state digest for the same sequence number; everything at or below a
stable checkpoint is garbage-collected. Stable checkpoints (with their
quorum proof) are also what proactively-recovered replicas install during
state transfer — a recovering replica accepts a snapshot only with a valid
quorum proof whose digest matches the snapshot, so ≤ f compromised replicas
cannot feed it a corrupt state.

Vote collection and proof verification ride on the shared
:mod:`repro.replication.quorum` primitives; the checkpoint-specific
policy (snapshot retention, serveability, stability transitions) lives
here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..crypto.encoding import digest
from ..replication.quorum import QuorumTracker, collect_valid_voters
from .config import PrimeConfig
from .messages import CheckpointMsg, SignedMessage

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Checkpoint state for one replica."""

    def __init__(self, config: PrimeConfig) -> None:
        self.config = config
        #: votes: seq -> state_digest -> sender -> signed CheckpointMsg
        self._votes = QuorumTracker()
        #: our own snapshots by seq (bounded: last two checkpoints)
        self._snapshots: Dict[int, Any] = {}
        self._own_digests: Dict[int, str] = {}
        self.stable_seq: int = 0
        self.stable_digest: Optional[str] = None
        self.stable_proof: Tuple[SignedMessage, ...] = ()
        #: recent proven checkpoints: seq -> (digest, proof); lets a replica
        #: that lags the newest stable checkpoint still serve an older one
        self._proven: Dict[int, Tuple[str, Tuple[SignedMessage, ...]]] = {}

    # ------------------------------------------------------------------
    def record_own(self, seq: int, snapshot: Any) -> str:
        """Store our snapshot at ``seq``; returns its state digest."""
        state_digest = digest(snapshot)
        self._snapshots[seq] = snapshot
        self._own_digests[seq] = state_digest
        for old in sorted(self._snapshots):
            if len(self._snapshots) <= 2:
                break
            del self._snapshots[old]
            self._own_digests.pop(old, None)
        return state_digest

    def add_vote(self, signed: SignedMessage, msg: CheckpointMsg) -> Optional[int]:
        """Record a checkpoint vote; returns the seq if it became stable."""
        if msg.seq <= self.stable_seq:
            return None
        self._votes.add(msg.seq, msg.state_digest, msg.sender, signed)
        proof = self._votes.certificate(msg.seq, msg.state_digest, self.config.quorum)
        if proof is not None:
            self.stable_seq = msg.seq
            self.stable_digest = msg.state_digest
            self.stable_proof = proof
            self._remember_proven(msg.seq, msg.state_digest, self.stable_proof)
            self._votes.drop_upto(msg.seq)
            return msg.seq
        return None

    def _remember_proven(
        self, seq: int, state_digest: str, proof: Tuple[SignedMessage, ...]
    ) -> None:
        self._proven[seq] = (state_digest, proof)
        for old in sorted(self._proven)[:-4]:
            del self._proven[old]

    def snapshot_at(self, seq: int) -> Optional[Any]:
        return self._snapshots.get(seq)

    def stable_snapshot(self) -> Optional[Any]:
        """Our snapshot matching the stable checkpoint, if we have one."""
        if self.stable_digest is None:
            return None
        snapshot = self._snapshots.get(self.stable_seq)
        if snapshot is None:
            return None
        if self._own_digests.get(self.stable_seq) != self.stable_digest:
            return None  # we diverged; never serve a non-matching snapshot
        return snapshot

    def best_serveable(self) -> Optional[Tuple[int, Any, Tuple[SignedMessage, ...]]]:
        """The newest proven checkpoint we hold a matching snapshot for —
        what we answer StateRequests with. A replica that is itself
        catching up can still serve the older checkpoint it installed."""
        for seq in sorted(self._proven, reverse=True):
            state_digest, proof = self._proven[seq]
            snapshot = self._snapshots.get(seq)
            if snapshot is not None and self._own_digests.get(seq) == state_digest:
                return seq, snapshot, proof
        return None

    # ------------------------------------------------------------------
    def verify_proof(
        self,
        seq: int,
        state_digest: str,
        proof: Tuple[SignedMessage, ...],
        verify_signed,
    ) -> bool:
        """Check a quorum proof that (seq, digest) is a stable checkpoint.

        ``verify_signed`` is the node's envelope verifier (signature +
        sender-is-replica check). One invalid vote rejects the proof — its
        sender vouched for the whole set.
        """
        if seq == 0:
            return True
        voters = collect_valid_voters(
            proof,
            membership=self.config.replicas,
            verify_signed=verify_signed,
            kinds=(CheckpointMsg,),
            check=lambda p: p.seq == seq and p.state_digest == state_digest,
            strict=True,
        )
        return voters is not None and len(voters) >= self.config.quorum

    def adopt_stable(
        self, seq: int, state_digest: str, proof: Tuple[SignedMessage, ...]
    ) -> None:
        """Adopt an externally proven stable checkpoint (state transfer)."""
        self._remember_proven(seq, state_digest, proof)
        if seq <= self.stable_seq:
            return
        self.stable_seq = seq
        self.stable_digest = state_digest
        self.stable_proof = proof
        self._votes.drop_upto(seq)

    def reset(self) -> None:
        """Wipe all volatile checkpoint state (replica recovery)."""
        self._votes.clear()
        self._snapshots.clear()
        self._own_digests.clear()
        self._proven.clear()
        self.stable_seq = 0
        self.stable_digest = None
        self.stable_proof = ()
