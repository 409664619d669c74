"""Spire core: the paper's primary contribution, assembled.

Public API: the deployment builder (:class:`SpireDeployment` /
:class:`SpireOptions`), the replica (:class:`SpireReplica`), endpoints
(:class:`RtuProxy`, :class:`HmiClient`), the replicated master app, the
resilience-configuration framework, proactive recovery, and diversity.
Measurement flows through :mod:`repro.obs`; :class:`LatencyStats` is
re-exported here for convenience.
"""

from .batching import BatchingOptions
from .builder import DeploymentWiring, TopologyBuilder
from .client import SubmissionManager
from .collector import DeliveryCollector
from .config import (
    ResilienceConfig,
    configuration_table,
    minimal_placement,
    minimal_replicas,
    placement_survives,
)
from .deployment import SpireDeployment, SpireOptions
from .diversity import DiversityManager, Exploit
from .hmi import HmiClient
from ..obs import LatencyStats
from .master import Alarm, ScadaMasterApp
from .proxy import RtuProxy
from .recovery import PeriodicStrategy, RecoveryStrategy
from .replica import THRESHOLD_GROUP, SpireReplica
from .update import (
    BatchDeliveryRecord,
    BatchDeliveryShare,
    BatchEntry,
    BreakerCommand,
    DeliveryRecord,
    StatusReading,
    UpdateSubmission,
    batch_record_for,
    record_for,
)

__all__ = [
    "BatchingOptions",
    "DeploymentWiring",
    "TopologyBuilder",
    "SubmissionManager",
    "DeliveryCollector",
    "ResilienceConfig",
    "configuration_table",
    "minimal_placement",
    "minimal_replicas",
    "placement_survives",
    "SpireDeployment",
    "SpireOptions",
    "DiversityManager",
    "Exploit",
    "HmiClient",
    "Alarm",
    "ScadaMasterApp",
    "LatencyStats",
    "RtuProxy",
    "PeriodicStrategy",
    "RecoveryStrategy",
    "THRESHOLD_GROUP",
    "SpireReplica",
    "BatchDeliveryRecord",
    "BatchDeliveryShare",
    "BatchEntry",
    "BreakerCommand",
    "DeliveryRecord",
    "StatusReading",
    "UpdateSubmission",
    "batch_record_for",
    "record_for",
]
