"""Protocol-agnostic replication runtime.

The substrate both BFT protocols in this reproduction (Prime and the
PBFT baseline) are built on, layered bottom-up:

* :mod:`~repro.replication.transport` — how replicas reach each other:
  the two-method :class:`Transport` interface with direct-network and
  Spines-overlay implementations, each keeping its send count;
* :mod:`~repro.replication.retry` — bounded-backoff retransmission
  (:class:`RetryPolicy` / :class:`RetrySchedule`) shared by every resend
  path: Prime state transfer, PBFT head-slot retransmission,
  client/proxy resubmission;
* :mod:`~repro.replication.messages` — the :class:`SignedMessage`
  envelope (authenticated links) and the four messages both protocols
  vote and change views with (:class:`Prepare`, :class:`Commit`,
  :class:`PreparedEntry`, :class:`NewView`);
* :mod:`~repro.replication.dispatch` — handler registration behind
  generated shape and sender checks, with a per-kind receive count;
* :mod:`~repro.replication.runtime` — :class:`ReplicationRuntime`:
  sign/verify, membership fan-out, loopback rules, a per-kind send
  count;
* :mod:`~repro.replication.quorum` — vote collection
  (:class:`QuorumTracker`), threshold-share tracking toward combined
  signatures (:class:`ThresholdShareTracker`), and signed-certificate
  assembly/verification;
* :mod:`~repro.replication.ordering` — the one three-phase agreement:
  per-slot state (:class:`ThreePhaseSlot`) and the
  pre-prepare/prepare/commit handlers, quorum transitions, served-slot
  install and vote re-broadcast over it (:class:`ThreePhaseAgreement`);
* :mod:`~repro.replication.epoch` — the one view-change core: per-epoch
  vote tables, prepared-entry collection, prepared-certificate and
  ViewChange validation, deterministic re-proposal derivation, NewView
  build and verify (:class:`ViewChangeCore`).

A protocol enters the last two as data — one frozen
:class:`AgreementSpec` naming its pre-prepare and view-change classes,
the fields holding the proposal and the floor, and its digest function —
plus the few hooks it overrides; neither module branches on which
protocol called it.

Protocol packages (:mod:`repro.prime`, :mod:`repro.pbft`) mount their
stage objects on these primitives; see DESIGN.md §8 for the layering.
"""

from .dispatch import Dispatcher
from .epoch import (
    EpochVoteTable,
    ViewChangeCore,
    derive_reproposals,
    prepared_entries,
)
from .messages import Commit, NewView, Prepare, PreparedEntry, SignedMessage
from .ordering import AgreementSpec, ThreePhaseAgreement, ThreePhaseSlot
from .quorum import (
    QuorumTracker,
    ThresholdShareTracker,
    assemble_certificate,
    collect_valid_voters,
)
from .retry import RetryPolicy, RetrySchedule
from .runtime import ReplicationRuntime
from .transport import DirectTransport, OverlayTransport, Transport

__all__ = [
    "AgreementSpec",
    "Commit",
    "Dispatcher",
    "DirectTransport",
    "EpochVoteTable",
    "NewView",
    "OverlayTransport",
    "Prepare",
    "PreparedEntry",
    "QuorumTracker",
    "ReplicationRuntime",
    "RetryPolicy",
    "RetrySchedule",
    "SignedMessage",
    "ThreePhaseAgreement",
    "ThreePhaseSlot",
    "ThresholdShareTracker",
    "Transport",
    "ViewChangeCore",
    "assemble_certificate",
    "collect_valid_voters",
    "derive_reproposals",
    "prepared_entries",
]
