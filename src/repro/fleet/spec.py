"""Declarative description of a fleet-scale field deployment.

A :class:`FleetSpec` describes the hierarchical field topology — regions,
each with a device count — plus the heterogeneous poll-rate classes and
the open-loop operator-traffic process.  It is pure data: the generator
(:mod:`repro.fleet.generator`) expands it deterministically, and
:meth:`FleetSpec.validate` rejects inconsistent knob combinations before
any simulator state exists (wired into
:meth:`repro.core.deployment.SpireOptions.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

__all__ = ["PollClass", "RegionSpec", "TrafficSpec", "FleetSpec",
           "DEFAULT_POLL_CLASSES"]


@dataclass(frozen=True)
class PollClass:
    """One poll-rate tier; devices are assigned tiers by weight."""

    name: str
    interval_ms: float
    weight: float


#: SCADA fleets are rate-heterogeneous: a few transmission-critical
#: devices poll fast, the bulk at the classic rate, telemetry-only
#: devices slowly.  Intervals are multiples of the 100 ms base tick.
DEFAULT_POLL_CLASSES: Tuple[PollClass, ...] = (
    PollClass("fast", 100.0, 0.15),
    PollClass("normal", 500.0, 0.55),
    PollClass("slow", 2000.0, 0.30),
)


@dataclass(frozen=True)
class RegionSpec:
    """One region (utility service territory): a name and device count."""

    name: str
    device_count: int


@dataclass(frozen=True)
class TrafficSpec:
    """Open-loop operator/HMI traffic.

    ``process`` selects the arrival process: ``"poisson"`` draws
    exponential inter-arrival gaps at ``rate_per_s``; ``"periodic"``
    issues at the fixed interval ``1000 / rate_per_s`` ms.
    """

    process: str = "poisson"
    rate_per_s: float = 2.0


@dataclass(frozen=True)
class FleetSpec:
    """Everything the hierarchical generator needs, and nothing runtime."""

    total_devices: int
    regions: Tuple[RegionSpec, ...]
    traffic: Optional[TrafficSpec] = TrafficSpec()

    # --- constants: no experiment varies these -------------------------
    poll_classes: ClassVar[Tuple[PollClass, ...]] = DEFAULT_POLL_CLASSES
    #: fraction of devices that are PLCs (protection-capable RTUs)
    plc_fraction: ClassVar[float] = 0.2
    #: the region poll driver's tick; every class interval is a positive
    #: integer multiple of it (``RegionShard`` checks)
    base_tick_ms: ClassVar[float] = 100.0

    @classmethod
    def sized(cls, total_devices: int, num_regions: Optional[int] = None,
              **overrides) -> "FleetSpec":
        """Evenly split ``total_devices`` across ``num_regions`` regions
        (remainder to the earliest regions) — the benchmark shape.

        With ``num_regions=None`` a region count is chosen so each region
        stays within the Modbus unit-id budget (at most 250 devices per
        serial bus), with a floor of 4 regions.
        """
        if num_regions is None:
            num_regions = max(4, -(-total_devices // 250))
        if num_regions < 1:
            raise ValueError(f"num_regions must be >= 1 (got {num_regions})")
        base, remainder = divmod(total_devices, num_regions)
        regions = tuple(
            RegionSpec(f"region{index}", base + (1 if index < remainder else 0))
            for index in range(num_regions)
        )
        return cls(total_devices=total_devices, regions=regions, **overrides)

    @property
    def device_count(self) -> int:
        return self.total_devices

    def validate(self) -> "FleetSpec":
        """Reject inconsistent fleet knobs with actionable errors."""
        if self.total_devices < 1:
            raise ValueError(
                f"total_devices must be >= 1 (got {self.total_devices})"
            )
        if not self.regions:
            raise ValueError("a fleet needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        for region in self.regions:
            if region.device_count < 0:
                raise ValueError(
                    f"region {region.name!r} has negative device_count "
                    f"{region.device_count}"
                )
            if "/" in region.name:
                raise ValueError(
                    f"region name {region.name!r} must not contain '/' "
                    f"(it separates region from substation in device names)"
                )
            if region.device_count > 255:
                raise ValueError(
                    f"region {region.name!r} has {region.device_count} "
                    f"devices, but Modbus unit ids are one byte so a "
                    f"region (one serial bus) holds at most 255; add "
                    f"regions or use FleetSpec.sized(total) to auto-split"
                )
        per_region = sum(region.device_count for region in self.regions)
        if per_region != self.total_devices:
            raise ValueError(
                f"total_devices={self.total_devices} but the per-region "
                f"counts sum to {per_region} "
                f"({', '.join(f'{r.name}={r.device_count}' for r in self.regions)}); "
                f"fix the region counts or use FleetSpec.sized() to split "
                f"evenly"
            )
        if self.traffic is not None:
            if self.traffic.process not in ("poisson", "periodic"):
                raise ValueError(
                    f"traffic process must be 'poisson' or 'periodic' "
                    f"(got {self.traffic.process!r})"
                )
            if self.traffic.rate_per_s <= 0:
                raise ValueError(
                    f"traffic rate_per_s must be positive (got "
                    f"{self.traffic.rate_per_s}); to disable operator "
                    f"traffic set traffic=None instead"
                )
        return self
