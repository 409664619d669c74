"""Deployment facade: assembles a complete Spire system in one call.

This is the reproduction of the paper's deployed architecture:

* a Spines overlay across control centers, data centers and field sites;
* ``n = 3f + 2k + 1`` SCADA-master replicas placed across the sites per a
  :class:`~repro.core.config.ResilienceConfig`-style placement;
* a power grid with one RTU per substation, fronted by an RTU proxy at the
  field site;
* one HMI at the primary control center;
* threshold-signature keys dealt to the replicas;
* optional proactive recovery (with diversity re-randomization).

Everything rides on one :class:`~repro.simnet.Simulator`, so a scenario is
fully described by (options, seed) and is exactly reproducible.

Construction is layered (see :mod:`repro.core.builder`): a
:class:`~repro.core.builder.TopologyBuilder` plans placement and
configuration, a :class:`~repro.core.builder.DeploymentWiring` assembles
the components.  Small-n figure runs and fleet-scale scenarios
(``options.fleet`` — see :mod:`repro.fleet`) both construct through the
same two stages; only the field layer differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Tuple

from ..crypto.provider import CryptoProvider, FastCrypto, RealCrypto
from ..obs import (
    NULL_OBS,
    IntervalCounter,
    LatencyTracker,
    Observability,
)
from ..simnet import LinkSpec, Network, Simulator
from ..spines.overlay import SpinesOverlay
from ..spines.topology import OverlayTopology, wide_area_topology
from .batching import BatchingOptions
from .builder import DeploymentWiring, TopologyBuilder
from .diversity import DiversityManager
from .master import ScadaMasterApp
from .proxy import RtuProxy
from .recovery import PeriodicStrategy, RecoveryStrategy

if TYPE_CHECKING:  # lazy import: the fleet package imports this module
    from ..fleet.spec import FleetSpec

__all__ = ["SpireOptions", "SpireDeployment"]


@dataclass
class SpireOptions:
    """Knobs for one deployment scenario.

    Prefer the :meth:`wan` / :meth:`lan` preset constructors over raw
    construction — they pin the knobs that must move together (Prime
    timeouts vs. overlay routing) and still accept per-field overrides::

        opts = SpireOptions.wan(seed=7, num_substations=10)

    :meth:`validate` is called by :class:`SpireDeployment`; call it
    directly to fail fast when assembling options programmatically.
    """

    f: int = 1
    k: int = 1
    #: site name -> replica count; None = the paper's 2+2+1+1 over 4 sites
    placement: Optional[Dict[str, int]] = None
    num_substations: int = 5
    poll_interval_ms: float = 100.0
    resubmit_timeout_ms: float = 500.0
    overlay_mode: str = "flooding"           # or "shortest" / "disjoint"
    #: enable the Spines self-healing control plane (hello-based link
    #: monitoring + adaptive rerouting); off preserves static routing
    overlay_self_healing: bool = False
    prime_preset: str = "wan"                # or "lan"
    crypto_kind: str = "fast"                # or "real"
    seed: int = 1
    #: (period_ms, duration_ms) to enable proactive recovery
    proactive_recovery: Optional[Tuple[float, float]] = None
    #: adaptive recovery: True switches proactive recovery from the fixed
    #: periodic rotation to the feedback controller (``repro.control``,
    #: calibrated by :class:`~repro.control.ControlOptions`); False (the
    #: default) keeps the bit-identical periodic schedule
    feedback_control: bool = False
    #: delivery batch sizing
    #: (:class:`~repro.core.batching.BatchingOptions`); None (the default)
    #: keeps the Prime preset's batch size and flush interval
    batching: Optional[BatchingOptions] = None
    #: fleet-scale field layer (:class:`~repro.fleet.FleetSpec`): a
    #: hierarchical region → substation → device topology with
    #: heterogeneous poll classes and open-loop operator traffic replaces
    #: the small-n single-proxy field layer; None (the default) keeps the
    #: classic ``num_substations`` layout bit-identically
    fleet: Optional[FleetSpec] = None
    checkpoint_interval_seqs: int = 50
    #: False disables the entire observability layer (metrics,
    #: structured events): the deployment's ``obs`` is the shared no-op
    #: recorder and its event log stays empty. Use for maximum-speed sweeps
    #: where nothing inspects events or metrics afterwards.
    observability: bool = True

    #: one HMI at the primary control center: every figure, bench and
    #: monitor reads ``deployment.hmis[0]``
    num_hmis: ClassVar[int] = 1

    @classmethod
    def wan(cls, **overrides) -> "SpireOptions":
        """The paper's wide-area configuration: conservative Prime
        timeouts sized for cross-site latency, resilient flooding on the
        overlay."""
        base = dict(prime_preset="wan", overlay_mode="flooding")
        base.update(overrides)
        return cls(**base)

    @classmethod
    def lan(cls, **overrides) -> "SpireOptions":
        """Single-site configuration: aggressive Prime timeouts, cheap
        shortest-path overlay routing."""
        base = dict(prime_preset="lan", overlay_mode="shortest")
        base.update(overrides)
        return cls(**base)

    @property
    def n(self) -> int:
        """Replica count required by the resilience parameters."""
        return 3 * self.f + 2 * self.k + 1

    def validate(self) -> "SpireOptions":
        """Reject inconsistent knob combinations with actionable errors.

        Returns ``self`` so it chains: ``SpireOptions(...).validate()``.
        """
        if self.f < 0 or self.k < 0:
            raise ValueError(
                f"f and k must be non-negative (got f={self.f}, k={self.k})"
            )
        if self.n < 1:
            raise ValueError(
                f"3f+2k+1 = {self.n} replicas: increase f or k"
            )
        if self.placement is not None:
            total = sum(self.placement.values())
            if total != self.n:
                raise ValueError(
                    f"placement assigns {total} replicas across "
                    f"{len(self.placement)} sites, but f={self.f}, "
                    f"k={self.k} requires exactly 3f+2k+1 = {self.n}; "
                    f"adjust the placement counts or the resilience "
                    f"parameters"
                )
            if any(count < 0 for count in self.placement.values()):
                raise ValueError("placement counts must be non-negative")
        if self.num_substations < 1:
            raise ValueError(
                f"num_substations must be >= 1 (got {self.num_substations})"
            )
        if self.poll_interval_ms <= 0 or self.resubmit_timeout_ms <= 0:
            raise ValueError(
                "poll_interval_ms and resubmit_timeout_ms must be positive "
                f"(got {self.poll_interval_ms}, {self.resubmit_timeout_ms})"
            )
        if self.overlay_mode not in ("flooding", "shortest", "disjoint"):
            raise ValueError(
                f"overlay_mode must be 'flooding', 'shortest' or 'disjoint' "
                f"(got {self.overlay_mode!r})"
            )
        if self.prime_preset not in ("wan", "lan"):
            raise ValueError(
                f"prime_preset must be 'wan' or 'lan' (got {self.prime_preset!r})"
            )
        if self.crypto_kind not in ("fast", "real"):
            raise ValueError(
                f"crypto_kind must be 'fast' or 'real' (got {self.crypto_kind!r})"
            )
        if self.checkpoint_interval_seqs < 1:
            raise ValueError(
                f"checkpoint_interval_seqs must be >= 1 "
                f"(got {self.checkpoint_interval_seqs})"
            )
        if self.proactive_recovery is not None:
            period_ms, duration_ms = self.proactive_recovery
            if period_ms <= 0 or duration_ms <= 0:
                raise ValueError(
                    "proactive_recovery (period_ms, duration_ms) must both "
                    f"be positive (got {self.proactive_recovery})"
                )
            if duration_ms >= period_ms:
                raise ValueError(
                    f"proactive recovery duration ({duration_ms}ms) must be "
                    f"shorter than the period ({period_ms}ms), or replicas "
                    f"re-crash before finishing recovery"
                )
        if self.feedback_control and self.proactive_recovery is None:
            raise ValueError(
                "feedback_control (the feedback recovery controller) "
                "requires proactive_recovery=(period_ms, duration_ms): the "
                "controller needs the recovery duration and a fallback "
                "period"
            )
        if self.batching is not None:
            self.batching.validate()
        if self.fleet is not None:
            self.fleet.validate()
        return self


class SpireDeployment:
    """A fully wired Spire system inside one simulator.

    All measurement flows through one :attr:`obs` handle
    (:class:`repro.obs.Observability`): structured events and typed
    metrics for every layer (the structured event log is ``obs.log``).
    :attr:`status_recorder`, :attr:`command_recorder` and
    :attr:`delivery_series` are views of instruments in ``obs.registry``.
    """

    def __init__(
        self,
        options: Optional[SpireOptions] = None,
        topology: Optional[OverlayTopology] = None,
    ) -> None:
        self.options = (options or SpireOptions()).validate()
        opts = self.options
        self.wall_runtime_s = 0.0
        self.simulator = Simulator(seed=opts.seed)
        self.network = Network(self.simulator, LinkSpec(latency_ms=0.2, jitter_ms=0.05))
        if opts.observability:
            self.obs = Observability(now_fn=lambda: self.simulator.now)
            self.obs.read("sim.events_processed", lambda: self.simulator.events_processed)
        else:
            self.obs = NULL_OBS
        self.crypto: CryptoProvider = (
            RealCrypto(seed=f"spire/{opts.seed}")
            if opts.crypto_kind == "real"
            else FastCrypto(seed=f"spire/{opts.seed}")
        )
        self.topology = topology or wide_area_topology()
        self.overlay = SpinesOverlay(
            self.simulator,
            self.network,
            self.topology,
            mode=opts.overlay_mode,
            crypto=self.crypto,
            self_healing=opts.overlay_self_healing,
            obs=self.obs,
        )
        self.diversity = DiversityManager(seed=opts.seed)
        if opts.observability:
            self.status_recorder = self.obs.latency("proxy.status_latency")
            self.command_recorder = self.obs.latency("hmi.command_latency")
            self.delivery_series = self.obs.intervals(
                "hmi.delivered_updates", interval_ms=1000.0
            )
        else:
            self.status_recorder = LatencyTracker()
            self.command_recorder = LatencyTracker()
            self.delivery_series = IntervalCounter(interval_ms=1000.0)

        #: every field proxy (the field stage fills it): one per fleet
        #: region, or just ``self.proxy`` in the classic layout
        self.region_proxies: List[RtuProxy] = []
        # fleet attributes (populated by the fleet field stage)
        self.fleet_topology = None
        self.traffic_driver = None

        builder = TopologyBuilder(opts, self.topology)
        wiring = DeploymentWiring(self, builder)
        wiring.build_replicas()
        if opts.fleet is not None:
            from ..fleet.deploy import build_fleet_field, wire_fleet

            build_fleet_field(self, builder)
            wiring.build_hmis()
            wire_fleet(self, wiring)
        else:
            wiring.build_field()
            wiring.build_hmis()
            # one proxy fronts the whole grid
            wiring.wire(
                lambda s: self.proxy.name if s in self.grid.substations else None
            )
        self.recovery_scheduler: Optional[RecoveryStrategy] = None
        if opts.proactive_recovery is not None:
            period_ms, duration_ms = opts.proactive_recovery
            common = dict(
                recovery_duration_ms=duration_ms,
                max_concurrent=opts.k if opts.k > 0 else 1,
                obs=self.obs,
                on_rejuvenate=lambda r: self.diversity.rejuvenate(r.name),
                min_live=self.prime_config.quorum,
            )
            if opts.feedback_control:
                from ..control import FeedbackStrategy, SignalHub

                # the controller senses through obs; with observability
                # disabled there is no hub and the strategy degrades to
                # its periodic fallback rotation
                hub = None
                if opts.observability:
                    hub = SignalHub(
                        self.obs.log,
                        self.replicas,
                        self.replica_sites,
                        self.prime_config.leader_of_view,
                        registry=self.obs.registry,
                    )
                self.recovery_scheduler = FeedbackStrategy(
                    self.simulator,
                    list(self.replicas),
                    period_ms=period_ms,
                    hub=hub,
                    **common,
                )
            else:
                self.recovery_scheduler = PeriodicStrategy(
                    self.simulator,
                    list(self.replicas),
                    period_ms=period_ms,
                    **common,
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every component (call once, then run the simulator)."""
        for replica in self.replicas:
            replica.start()
        for proxy in self.region_proxies:
            proxy.start()
        for hmi in self.hmis:
            hmi.start()
        if self.traffic_driver is not None:
            self.traffic_driver.start()
        if self.recovery_scheduler is not None:
            self.recovery_scheduler.start()

    def run_for(self, duration_ms: float) -> None:
        started = perf_counter()
        self.simulator.run_for(duration_ms)
        # cumulative host wall-clock spent simulating — scenario reports
        # surface it (with events/sec) outside the deterministic sections
        self.wall_runtime_s += perf_counter() - started

    # ------------------------------------------------------------------
    # Introspection helpers used by benchmarks
    # ------------------------------------------------------------------
    @property
    def device_count(self) -> int:
        """Field devices in the scenario (fleet total, or one RTU per
        substation in the classic small-n layout)."""
        if self.fleet_topology is not None:
            return self.fleet_topology.device_count
        return len(self.rtus)

    def current_view(self) -> int:
        """The majority view among live replicas (0 when none are up)."""
        views = [r.view for r in self.replicas if r.is_up]
        return max(set(views), key=views.count) if views else 0

    def current_leader(self) -> str:
        return self.prime_config.leader_of_view(self.current_view())

    def replica_names(self) -> List[str]:
        return [r.name for r in self.replicas]

    def dos_peers_of(self, endpoint_name: str) -> List[str]:
        """The network neighbours whose links a DoS against ``endpoint_name``
        degrades: in an overlay deployment that is the access link to the
        endpoint's site daemon."""
        from ..spines.daemon import SpinesDaemon

        site = self.overlay.endpoint_site(endpoint_name)
        if site is None:
            return []
        return [SpinesDaemon.daemon_name(site)]

    def master_state(self) -> ScadaMasterApp:
        """The master app of the first healthy replica."""
        for replica in self.replicas:
            if replica.is_up:
                return replica.app
        raise RuntimeError("no healthy replica")
