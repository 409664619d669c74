"""Attack models: Byzantine replicas, network DoS, overlay attacks, and
the scripted red-team campaign."""

from .byzantine import (
    make_delivery_forger,
    make_equivocating_leader,
    make_seq_skipping_leader,
    make_share_corruptor,
    make_silent,
    make_slow_proposer,
    make_suspect_spammer,
)
from .campaign import CampaignResult, SpireCampaign, TraditionalCampaign
from .dos import LeaderChaser
from .overlay_attacks import (
    RouteFlapAttacker,
    compromise_daemon_delay,
    compromise_daemon_drop_all,
    compromise_daemon_drop_fraction,
)

__all__ = [
    "make_delivery_forger",
    "make_equivocating_leader",
    "make_seq_skipping_leader",
    "make_share_corruptor",
    "make_silent",
    "make_slow_proposer",
    "make_suspect_spammer",
    "CampaignResult",
    "SpireCampaign",
    "TraditionalCampaign",
    "LeaderChaser",
    "RouteFlapAttacker",
    "compromise_daemon_delay",
    "compromise_daemon_drop_all",
    "compromise_daemon_drop_fraction",
]
