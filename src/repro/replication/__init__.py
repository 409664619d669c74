"""Protocol-agnostic replication runtime.

The substrate both BFT protocols in this reproduction (Prime and the
PBFT baseline) are built on, layered bottom-up:

* :mod:`~repro.replication.transport` — how replicas reach each other:
  the two-method :class:`Transport` interface with direct-network and
  Spines-overlay implementations, each keeping its send count;
* :mod:`~repro.replication.retry` — bounded-backoff retransmission
  (:class:`RetryPolicy` / :class:`RetrySchedule`) shared by every resend
  path: Prime state transfer, head-of-line repair, client/proxy
  resubmission;
* :mod:`~repro.replication.messages` — the :class:`SignedMessage`
  envelope (authenticated links) and the six messages both protocols
  vote, change views and fetch ordered slots with (:class:`Prepare`,
  :class:`Commit`, :class:`PreparedEntry`, :class:`NewView`,
  :class:`SlotFetch`, :class:`CertifiedSlot`);
* :mod:`~repro.replication.dispatch` — handler registration behind
  generated shape and sender checks, with a per-kind receive count;
* :mod:`~repro.replication.runtime` — :class:`ReplicationRuntime`:
  sign/verify, membership fan-out, loopback rules, a per-kind send
  count;
* :mod:`~repro.replication.quorum` — the one vote table
  (:class:`QuorumTracker`) behind every quorum and threshold tally —
  votes, view changes, suspects, pre-order acks, an endpoint's threshold
  shares — and signed-certificate assembly/verification;
* :mod:`~repro.replication.ordering` — the one three-phase agreement:
  per-slot state (:class:`ThreePhaseSlot`) and the
  pre-prepare/prepare/commit handlers, quorum transitions and
  head-of-line repair over it: relay, re-vote, fetch and served-slot
  install (:class:`ThreePhaseAgreement`);
* :mod:`~repro.replication.epoch` — the one view-change core:
  ViewChange collection, prepared-entry collection, prepared-certificate and
  ViewChange validation, deterministic re-proposal derivation, NewView
  build, verify and re-serve (:class:`ViewChangeCore`).

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
    ViewChangeCore,
    derive_reproposals,
    prepared_entries,
)
from .messages import (
    CertifiedSlot,
    Commit,
    NewView,
    Prepare,
    PreparedEntry,
    SignedMessage,
    SlotFetch,
)
from .ordering import AgreementSpec, ThreePhaseAgreement, ThreePhaseSlot
from .quorum import (
    QuorumTracker,
    assemble_certificate,
    collect_valid_voters,
    vouched,
)
from .retry import RetryPolicy, RetrySchedule
from .runtime import ReplicationRuntime
from .transport import DirectTransport, OverlayTransport, Transport

__all__ = [
    "AgreementSpec",
    "CertifiedSlot",
    "Commit",
    "Dispatcher",
    "DirectTransport",
    "NewView",
    "OverlayTransport",
    "Prepare",
    "PreparedEntry",
    "QuorumTracker",
    "ReplicationRuntime",
    "RetryPolicy",
    "RetrySchedule",
    "SignedMessage",
    "SlotFetch",
    "ThreePhaseAgreement",
    "ThreePhaseSlot",
    "Transport",
    "ViewChangeCore",
    "assemble_certificate",
    "collect_valid_voters",
    "derive_reproposals",
    "prepared_entries",
    "vouched",
]
