"""Leadership stage: RTT pings, TAT suspicion, and view changes.

Prime's defining defence against a *performance-degrading* leader: every
replica measures round-trip times to its peers, derives the turnaround
time a correct leader should achieve, and broadcasts ``Suspect`` when the
measured TAT exceeds the acceptable bound. ``f + 1`` suspects make every
correct replica join the accusation (amplification); a quorum starts a
view change. The view-change bookkeeping itself lives in
:class:`~repro.prime.viewchange.ViewChangeManager` (built on the shared
:mod:`repro.replication.epoch` scaffold); this stage wires it to the
node's timers, transport and observability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..obs import EV_NEW_VIEW, EV_SUSPECT, EV_VIEW_CHANGE_START
from ..replication.epoch import prepared_entries
from .messages import (
    NewView,
    Ping,
    Pong,
    SignedMessage,
    Suspect,
    ViewChange,
)

if TYPE_CHECKING:  # pragma: no cover
    from .node import PrimeNode

__all__ = ["LeadershipStage"]


class LeadershipStage:
    """Suspect-monitoring and view-change behaviour for one replica."""

    def __init__(self, node: "PrimeNode") -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Pings / TAT / suspicion
    # ------------------------------------------------------------------
    def ping_tick(self) -> None:
        node = self.node
        node._ping_nonce += 1
        ping = Ping(node.name, node._ping_nonce, node.simulator.now)
        node._broadcast(ping, include_self=False)
        node.monitor.record_rtt(node.name, 0.0)

    def on_ping(self, signed: SignedMessage, msg: Ping) -> None:
        node = self.node
        node._send_to(msg.sender, Pong(node.name, msg.nonce, msg.sent_at))

    def on_pong(self, signed: SignedMessage, msg: Pong) -> None:
        node = self.node
        rtt = node.simulator.now - msg.sent_at
        if rtt >= 0:
            node.monitor.record_rtt(msg.sender, rtt)

    def tat_tick(self) -> None:
        node = self.node
        if node.in_view_change or node.awaiting_state:
            return
        if node.view in node.view_manager.sent_suspect_for:
            return
        reason = node.monitor.should_suspect(node.simulator.now)
        if reason is not None:
            self.send_suspect(reason)

    def send_suspect(self, reason: str) -> None:
        node = self.node
        node.view_manager.note_own_suspect(node.view)
        node.obs.event(node.name, EV_SUSPECT, view=node.view, reason=reason)
        node._broadcast(Suspect(node.name, node.view, reason))

    def on_suspect(self, signed: SignedMessage, msg: Suspect) -> None:
        node = self.node
        if msg.view > node.view:
            # A peer suspecting a view ahead of ours has *installed* that
            # view — evidence for laggard rejoin that keeps flowing even
            # while ordering is stalled on a dead leader.
            node.note_higher_view(msg.sender, msg.view)
        amplify, view_change = node.view_manager.add_suspect(signed, msg, node.view)
        if amplify:
            self.send_suspect("amplified")
        if view_change and msg.view >= node.view:
            self.initiate_view_change(msg.view + 1)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def initiate_view_change(self, new_view: int) -> None:
        node = self.node
        if new_view <= node.view_manager.highest_vc_started or new_view <= 0:
            return
        if new_view <= node.view and not node.in_view_change:
            return
        node.view_manager.highest_vc_started = new_view
        node.view = new_view
        node.in_view_change = True
        node.monitor.reset_for_new_view()
        node._last_proposed_key = None
        node.obs.event(node.name, EV_VIEW_CHANGE_START, view=new_view)
        vc = ViewChange(
            node.name,
            new_view,
            node.checkpoints.stable_seq,
            node.checkpoints.stable_proof,
            prepared_entries(node.slots, above=node.checkpoints.stable_seq),
        )
        node._last_vc_sent = vc
        node._broadcast(vc)
        if node._vc_timer is not None:
            node._vc_timer.cancel()
        node._vc_timer = node.set_timer(
            node.config.view_change_timeout_ms, node._view_change_timeout, new_view
        )
        self._arm_vc_retransmit()

    def _arm_vc_retransmit(self) -> None:
        """Schedule the next rebroadcast of our pending VC/NewView, at half
        the view-change timeout: a lossy network that eats the ViewChange
        or NewView converges on the retransmission within the same view
        instead of waiting out the cascade timer."""
        node = self.node
        if node._vc_retrans_timer is not None:
            node._vc_retrans_timer.cancel()
        node._vc_retrans_timer = node.set_timer(
            node.config.view_change_timeout_ms / 2, node._vc_retransmit_tick
        )

    def vc_retransmit_tick(self) -> None:
        node = self.node
        node._vc_retrans_timer = None
        if not node.in_view_change or node.awaiting_state:
            return
        vc = node._last_vc_sent
        if vc is not None and vc.new_view == node.view:
            node._broadcast(vc)
        nv = node._last_nv_sent
        if nv is not None and nv.view == node.view:
            node._broadcast(nv)
        self._arm_vc_retransmit()

    def view_change_timeout(self, expected_view: int) -> None:
        node = self.node
        if node.in_view_change and node.view == expected_view:
            if node.view not in node.view_manager.sent_suspect_for:
                self.send_suspect("new-view-timeout")

    def verify_checkpoint_proof(
        self, seq: int, proof: Tuple[SignedMessage, ...]
    ) -> bool:
        node = self.node
        digests = {p.payload.state_digest for p in proof}  # CheckpointMsgs, by annotation
        if len(digests) != 1:
            return False
        return node.checkpoints.verify_proof(
            seq, next(iter(digests)), proof, node.verify_signed
        )

    def on_view_change(self, signed: SignedMessage, msg: ViewChange) -> None:
        node = self.node
        served = node.view_manager.new_view_to_reserve(msg, node.view, node.in_view_change)
        if served is not None:
            node.runtime.resend(served, peers=(msg.sender,))
            return
        if msg.new_view < node.view:
            return
        if not node.view_manager.validate_view_change(
            signed, msg, node.verify_signed, self.verify_checkpoint_proof
        ):
            return
        count = node.view_manager.add_view_change(signed, msg)
        # Join a view change others already started.
        if (
            msg.new_view > node.view
            and count >= node.config.num_faults + 1
        ):
            self.initiate_view_change(msg.new_view)
        built = node.view_manager.build_new_view(msg.new_view, node.sign_message)
        if built is not None:
            nv, _ = built
            node._last_nv_sent = nv
            node._broadcast(nv)

    def on_new_view(self, signed: SignedMessage, msg: NewView) -> None:
        node = self.node
        verified = node.view_manager.accept_new_view(
            signed, msg, node.view, node.in_view_change, node.verify_signed,
            self.verify_checkpoint_proof,
        )
        if verified is None:
            return
        pre_prepares, start_seq, max_seq = verified
        self.install_new_view(msg.view, pre_prepares, max_seq)

    def install_new_view(
        self, view: int, pre_prepares: List[SignedMessage], max_seq: int
    ) -> None:
        node = self.node
        node.view = view
        node.in_view_change = False
        node.monitor.reset_for_new_view()
        node._min_fresh_seq = max_seq + 1
        node._next_seq = max(node._next_seq, max_seq + 1)
        node._last_proposed_key = None
        if node._vc_timer is not None:
            node._vc_timer.cancel()
            node._vc_timer = None
        if node._vc_retrans_timer is not None:
            node._vc_retrans_timer.cancel()
            node._vc_retrans_timer = None
        node._last_vc_sent = None
        node._last_nv_sent = None
        node._higher_view_seen.clear()
        node.obs.event(node.name, EV_NEW_VIEW, view=view, max_seq=max_seq)
        for pp_signed in pre_prepares:
            node.ordering.on_pre_prepare(pp_signed, pp_signed.payload, from_new_view=True)
        node.view_manager.garbage_collect(view)
