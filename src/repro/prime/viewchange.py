"""View changes: replacing a suspected leader while preserving safety.

The flow is PBFT-style, adapted to Prime's matrix proposals:

1. Replicas that detect a TAT violation broadcast ``Suspect(view)``.
   ``f + 1`` suspects make everyone join (amplification); ``2f + k + 1``
   suspects start a view change to ``view + 1``.
2. Each replica broadcasts a signed ``ViewChange`` carrying its stable
   checkpoint (with quorum proof) and every prepared proposal above it
   (with its prepare certificate).
3. The new leader assembles ``2f + k + 1`` valid ViewChanges and derives —
   deterministically — the re-proposals: for every sequence number above
   the highest proven checkpoint, the prepared entry with the highest view
   wins; gaps become empty (no-op) proposals. It broadcasts a ``NewView``
   containing the ViewChanges and the re-issued pre-prepares.
4. Every replica re-runs the same derivation on the embedded ViewChanges
   and accepts the NewView only if the leader's re-proposals match, so a
   Byzantine new leader cannot rewrite history.

If the new leader stalls, the view-change timeout fires and replicas
suspect it in turn, cascading to the next view.

Steps 2–4 are the shared
:class:`~repro.replication.epoch.ViewChangeCore`; Prime adds step 1 —
the Suspect vote table — and vouches for a ViewChange's floor with the
checkpoint's quorum proof.
"""

from __future__ import annotations

from typing import Tuple

from ..replication.epoch import ViewChangeCore
from ..replication.quorum import QuorumTracker
from .config import PrimeConfig
from .messages import SignedMessage, Suspect, ViewChange
from .ordering import PRIME_AGREEMENT

__all__ = ["ViewChangeManager"]


class ViewChangeManager(ViewChangeCore):
    """Suspect/ViewChange/NewView bookkeeping for one replica."""

    def __init__(self, config: PrimeConfig, name: str) -> None:
        super().__init__(PRIME_AGREEMENT, config, name)
        #: view -> None -> sender -> signed Suspect
        self.suspects = QuorumTracker()
        self.sent_suspect_for: set = set()
        self.highest_vc_started: int = 0

    def add_suspect(self, signed: SignedMessage, msg: Suspect, current_view: int
                    ) -> Tuple[bool, bool]:
        """Record a suspect. Returns (should_amplify, should_view_change).

        should_amplify: f+1 distinct suspects for our current view and we
        have not accused it ourselves yet.
        should_view_change: a quorum suspects view >= current_view.
        """
        if msg.view < current_view:
            return (False, False)
        count = len(self.suspects.add(msg.view, None, msg.sender, signed))
        amplify = (
            msg.view == current_view
            and count >= self.config.num_faults + 1
            and current_view not in self.sent_suspect_for
        )
        view_change = count >= self.config.quorum
        return (amplify, view_change)

    def note_own_suspect(self, view: int) -> None:
        self.sent_suspect_for.add(view)

    def floor_ok(self, vc: ViewChange, verify_checkpoint) -> bool:
        """``verify_checkpoint(seq, proof) -> bool`` checks a checkpoint
        quorum proof; genesis (seq 0) needs none."""
        return vc.checkpoint_seq <= 0 or verify_checkpoint(
            vc.checkpoint_seq, vc.checkpoint_proof
        )

    def garbage_collect(self, below_view: int) -> None:
        super().garbage_collect(below_view)
        self.suspects.drop_upto(below_view - 1)
        self.sent_suspect_for = {
            v for v in self.sent_suspect_for if v >= below_view
        }
