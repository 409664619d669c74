"""Prime: Byzantine fault-tolerant replication with bounded delay under
attack — the replication engine of Spire (reimplementation).

Public API: :class:`PrimeConfig` (+ LAN/WAN presets), :class:`PrimeNode`,
the application interface (:class:`ReplicatedApplication` and sample apps),
client-update helpers, and all wire messages (transports live in
:mod:`repro.replication`).
"""

from .app import KeyValueApp, LoggingApp, ReplicatedApplication
from .checkpoint import CheckpointManager
from .config import PrimeConfig, lan_prime_config, wan_prime_config
from .messages import (
    CheckpointMsg,
    ClientUpdate,
    Commit,
    NewView,
    Ping,
    PoAck,
    Pong,
    PoRequest,
    PoSummary,
    Prepare,
    PreparedEntry,
    PrePrepare,
    ReconReply,
    ReconRequest,
    SignedMessage,
    StateReply,
    StateRequest,
    Suspect,
    ViewChange,
)
from .node import PrimeNode, client_update_body, sign_client_update, verify_client_update
from .state import OriginState
from .suspect import SuspectMonitor
from .viewchange import ViewChangeManager

__all__ = [
    "KeyValueApp",
    "LoggingApp",
    "ReplicatedApplication",
    "CheckpointManager",
    "PrimeConfig",
    "lan_prime_config",
    "wan_prime_config",
    "CheckpointMsg",
    "ClientUpdate",
    "Commit",
    "NewView",
    "Ping",
    "PoAck",
    "Pong",
    "PoRequest",
    "PoSummary",
    "Prepare",
    "PreparedEntry",
    "PrePrepare",
    "ReconReply",
    "ReconRequest",
    "SignedMessage",
    "StateReply",
    "StateRequest",
    "Suspect",
    "ViewChange",
    "PrimeNode",
    "client_update_body",
    "sign_client_update",
    "verify_client_update",
    "OriginState",
    "SuspectMonitor",
    "ViewChangeManager",
]
