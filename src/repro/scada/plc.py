"""Emulated programmable logic controller (PLC).

Spire's field sites contain PLCs as well as RTUs. The PLC here runs a
classic *scan cycle*: read inputs (its substation's measurements), evaluate
a small ladder of protection rules, drive outputs (trip breakers). The
canonical rule shipped is over/under-voltage protection — it demonstrates
local automation acting beneath the SCADA layer, and the red-team example
uses it to show protection still firing while the SCADA master is under
attack.

The PLC also answers Modbus reads like an RTU (it shares the register
layout), so proxies can poll PLCs and RTUs uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..simnet import Network, Simulator
from .grid import PowerGrid
from .rtu import RtuDevice

__all__ = ["ProtectionRule", "PlcDevice", "undervoltage_rule"]


@dataclass
class ProtectionRule:
    """One ladder rung: a predicate over measurements plus an action.

    ``action`` receives (plc, measurements) and performs breaker
    operations through the PLC.
    """

    name: str
    predicate: Callable[[Dict[str, float]], bool]
    action: Callable[["PlcDevice", Dict[str, float]], None]
    #: scans the predicate must hold before the action fires (debounce)
    pickup_scans: int = 3


def undervoltage_rule(threshold_kv: float = 120.0) -> ProtectionRule:
    """Trip all local breakers when voltage collapses below threshold
    (isolating a faulted section)."""

    def predicate(measurements: Dict[str, float]) -> bool:
        return 0.0 < measurements["voltage_kv"] < threshold_kv

    def action(plc: "PlcDevice", measurements: Dict[str, float]) -> None:
        for breaker_id in plc.coil_ids():
            plc.grid.set_breaker(plc.substation, breaker_id, False)
        plc.trips += 1

    return ProtectionRule("undervoltage", predicate, action)


class PlcDevice(RtuDevice):
    """An RTU that additionally runs a protection scan cycle."""

    durable = RtuDevice.durable | {"rules", "scans", "trips"}

    #: protection scan period; a rule's ``pickup_scans`` counts these
    scan_interval_ms = 100.0

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        grid: PowerGrid,
        substation: str,
        unit_id: int,
        rules: Optional[List[ProtectionRule]] = None,
    ) -> None:
        super().__init__(name, simulator, network, grid, substation, unit_id)
        self.rules = rules if rules is not None else [undervoltage_rule()]
        self.scans = 0
        self.trips = 0
        self._fresh_state()

    def _fresh_state(self) -> None:
        super()._fresh_state()
        self._pickup: Dict[str, int] = {}

    def _arm(self) -> None:
        """Arm the scan cycle."""
        self.every(self.scan_interval_ms, self._scan)

    def _scan(self) -> None:
        self.scans += 1
        measurements = self.grid.measurements(self.substation)
        for rule in self.rules:
            if rule.predicate(measurements):
                count = self._pickup.get(rule.name, 0) + 1
                self._pickup[rule.name] = count
                if count == rule.pickup_scans:
                    rule.action(self, measurements)
            else:
                self._pickup[rule.name] = 0
