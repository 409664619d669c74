"""``repro.obs`` — the unified observability layer.

Every measurement in the reproduction flows through this package: typed
**histograms** in a central :class:`MetricRegistry`, a bounded
structured **event log** (:class:`EventLog`), keyed **latency trackers** /
**interval counters**, and **readings** of counts components keep
themselves, called at snapshot time.

The entry point is :class:`Observability` — one instance per deployment
(``deployment.obs``) owns the registry and the event log.
Components accept an ``obs`` handle; when none is given they fall back to
:data:`NULL_OBS`, a no-op recorder whose instruments swallow every call,
so an un-observed run keeps no metric.

Quickstart::

    from repro.obs import Observability

    obs = Observability(now_fn=lambda: simulator.now)
    obs.read("server.requests", lambda: server.requests)
    obs.event("server", "request-done", status=200)
    print(obs.snapshot())
"""

from .events import (
    Event,
    EventLog,
    NullEventLog,
    # components
    COMP_CAMPAIGN,
    COMP_CHAOS,
    COMP_OVERLAY,
    COMP_RECOVERY_CONTROLLER,
    COMP_RECOVERY_SCHEDULER,
    # event kinds
    EV_CHECKPOINT_STABLE,
    EV_COMMAND_TO_FIELD,
    EV_COMPROMISED,
    EV_CONTROL_DECISION,
    EV_CONTROL_FALLBACK,
    EV_EQUIVOCATION,
    EV_EVICTED,
    EV_FAULT_SCHEDULED,
    EV_NEW_VIEW,
    EV_OVERLAY_LINK_DEGRADED,
    EV_OVERLAY_LINK_DOWN,
    EV_OVERLAY_LINK_SUPPRESSED,
    EV_OVERLAY_LINK_UP,
    EV_OVERLAY_PARTITION,
    EV_OVERLAY_REROUTE,
    EV_PBFT_CHECKPOINT,
    EV_PBFT_NEW_VIEW,
    EV_PBFT_TIMEOUT,
    EV_PBFT_VIEW_CHANGE,
    EV_RECOVERY_DONE,
    EV_RECOVERY_START,
    EV_REJUVENATE_DEFERRED,
    EV_REJUVENATE_DONE,
    EV_REJUVENATE_START,
    EV_SUSPECT,
    EV_VIEW_CHANGE_START,
)
from .instruments import (
    Histogram,
    IntervalCounter,
    LatencyStats,
    LatencyTracker,
    MetricRegistry,
    Reading,
    merge_instrument_images,
    merge_metric_snapshots,
)
from .recorder import (
    NULL_OBS,
    NullObservability,
    Observability,
    merge_obs_snapshots,
)

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "MetricRegistry",
    "Histogram",
    "LatencyStats",
    "LatencyTracker",
    "IntervalCounter",
    "Reading",
    "merge_instrument_images",
    "merge_metric_snapshots",
    "merge_obs_snapshots",
    "Event",
    "EventLog",
    "NullEventLog",
    "COMP_CAMPAIGN",
    "COMP_CHAOS",
    "COMP_OVERLAY",
    "COMP_RECOVERY_CONTROLLER",
    "COMP_RECOVERY_SCHEDULER",
    "EV_CHECKPOINT_STABLE",
    "EV_COMMAND_TO_FIELD",
    "EV_COMPROMISED",
    "EV_CONTROL_DECISION",
    "EV_CONTROL_FALLBACK",
    "EV_EQUIVOCATION",
    "EV_EVICTED",
    "EV_FAULT_SCHEDULED",
    "EV_NEW_VIEW",
    "EV_OVERLAY_LINK_DEGRADED",
    "EV_OVERLAY_LINK_DOWN",
    "EV_OVERLAY_LINK_SUPPRESSED",
    "EV_OVERLAY_LINK_UP",
    "EV_OVERLAY_PARTITION",
    "EV_OVERLAY_REROUTE",
    "EV_PBFT_CHECKPOINT",
    "EV_PBFT_NEW_VIEW",
    "EV_PBFT_TIMEOUT",
    "EV_PBFT_VIEW_CHANGE",
    "EV_RECOVERY_DONE",
    "EV_RECOVERY_START",
    "EV_REJUVENATE_DEFERRED",
    "EV_REJUVENATE_DONE",
    "EV_REJUVENATE_START",
    "EV_SUSPECT",
    "EV_VIEW_CHANGE_START",
]
