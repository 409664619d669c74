"""Power-grid process model.

This is the physical process the reproduced SCADA system supervises: a
distribution network of substations connected by lines, with breakers that
can isolate lines, generation points, and time-varying load. The model is
deliberately simple but honest about the properties the evaluation needs:

* breaker positions change which loads are *served* (connectivity to a
  generation source), so an attacker that opens breakers causes measurable
  load shed — this is the damage metric of the red-team experiment;
* measurements (flows, voltages) are derived deterministically from grid
  state plus seeded noise, so RTU polling produces realistic, reproducible
  telemetry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..simnet.graph import Graph, components

__all__ = ["Breaker", "Substation", "PowerGrid", "build_radial_grid"]


@dataclass
class Breaker:
    """A controllable breaker on a line endpoint."""

    breaker_id: str
    line: Tuple[str, str]
    closed: bool = True


@dataclass
class Substation:
    """One substation: optional generation, a load, and its breakers."""

    name: str
    load_mw: float = 10.0
    generation_mw: float = 0.0
    nominal_kv: float = 138.0
    breakers: Dict[str, Breaker] = field(default_factory=dict)

    @property
    def is_source(self) -> bool:
        return self.generation_mw > 0.0


class PowerGrid:
    """The grid state plus derived electrical quantities."""

    def __init__(self, seed: int = 0) -> None:
        self.graph = Graph()
        self.substations: Dict[str, Substation] = {}
        self._rng = random.Random(f"grid/{seed}")
        self.time_hours: float = 0.0
        # energization is a pure function of topology + breaker state, so
        # it is cached between breaker operations: polling n substations
        # costs one connectivity sweep, not n (the fleet-scale hot path)
        self._energized_cache: Optional[set] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_substation(self, substation: Substation) -> Substation:
        if substation.name in self.substations:
            raise ValueError(f"duplicate substation {substation.name}")
        self.substations[substation.name] = substation
        self.graph.add_node(substation.name)
        self._energized_cache = None
        return substation

    def add_line(self, a: str, b: str, capacity_mw: float = 100.0) -> Tuple[str, str]:
        """Add a line with a breaker at each end."""
        for name in (a, b):
            if name not in self.substations:
                raise KeyError(f"unknown substation {name}")
        self.graph.add_edge(a, b, capacity_mw=capacity_mw)
        for end, other in ((a, b), (b, a)):
            breaker_id = f"{end}->{other}"
            self.substations[end].breakers[breaker_id] = Breaker(breaker_id, (end, other))
        self._energized_cache = None
        return (a, b)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def set_breaker(self, substation: str, breaker_id: str, closed: bool) -> bool:
        """Operate a breaker; returns True if the state changed."""
        sub = self.substations[substation]
        breaker = sub.breakers.get(breaker_id)
        if breaker is None:
            raise KeyError(f"no breaker {breaker_id} at {substation}")
        if breaker.closed == closed:
            return False
        breaker.closed = closed
        self._energized_cache = None
        return True

    def breaker_closed(self, substation: str, breaker_id: str) -> bool:
        return self.substations[substation].breakers[breaker_id].closed

    def line_energized(self, a: str, b: str) -> bool:
        """A line carries power only when the breakers at both ends close."""
        return (
            self.substations[a].breakers[f"{a}->{b}"].closed
            and self.substations[b].breakers[f"{b}->{a}"].closed
        )

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def energized_substations(self) -> set:
        """Substations connected to at least one generation source.

        The result is cached until the next breaker/topology change;
        treat the returned set as read-only.
        """
        cached = self._energized_cache
        if cached is not None:
            return cached
        # closed lines in edge order, which fixes each set's layout (served_load_mw sums over it)
        closed: Dict[str, List[str]] = {name: [] for name in self.graph.adj}
        for a, b in self.graph.edges:
            if self.line_energized(a, b):
                closed[a].append(b)
                closed[b].append(a)
        energized = set()
        for component in components(closed):
            if any(self.substations[n].is_source for n in component):
                energized |= component
        self._energized_cache = energized
        return energized

    def load_factor(self) -> float:
        """Diurnal demand multiplier (simple double-peak daily curve)."""
        t = self.time_hours % 24.0
        return 0.7 + 0.2 * math.sin((t - 7.0) * math.pi / 12.0) ** 2 \
            + 0.1 * math.sin((t - 18.0) * math.pi / 6.0) ** 2

    def demand_mw(self, substation: str) -> float:
        return self.substations[substation].load_mw * self.load_factor()

    def served_load_mw(self) -> float:
        """Total demand currently served (the red-team damage metric)."""
        energized = self.energized_substations()
        return sum(self.demand_mw(name) for name in energized)

    def total_load_mw(self) -> float:
        return sum(self.demand_mw(name) for name in self.substations)

    def shed_load_mw(self) -> float:
        return self.total_load_mw() - self.served_load_mw()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def advance_time(self, hours: float) -> None:
        self.time_hours += hours

    def measurements(self, substation: str) -> Dict[str, float]:
        """Deterministic noisy measurements for one substation's RTU."""
        sub = self.substations[substation]
        energized = substation in self.energized_substations()
        noise = lambda scale: (self._rng.random() - 0.5) * scale
        voltage = sub.nominal_kv * (1.0 + noise(0.02)) if energized else 0.0
        flow = self.demand_mw(substation) * (1.0 + noise(0.05)) if energized else 0.0
        frequency = (60.0 + noise(0.02)) if energized else 0.0
        return {
            "voltage_kv": round(voltage, 3),
            "flow_mw": round(flow, 3),
            "frequency_hz": round(frequency, 4),
            "energized": 1.0 if energized else 0.0,
        }

    def breaker_states(self, substation: str) -> Dict[str, bool]:
        return {
            breaker_id: breaker.closed
            for breaker_id, breaker in self.substations[substation].breakers.items()
        }


def build_radial_grid(
    num_substations: int = 10, seed: int = 0, sources: int = 2
) -> PowerGrid:
    """A radial distribution grid: ``sources`` transmission inlets feeding
    a tree of substations, with a few tie lines for reconfiguration."""
    if num_substations < 2:
        raise ValueError("need at least 2 substations")
    grid = PowerGrid(seed=seed)
    rng = random.Random(f"grid-build/{seed}")
    for i in range(num_substations):
        is_source = i < sources
        grid.add_substation(
            Substation(
                name=f"sub{i}",
                load_mw=0.0 if is_source else 5.0 + rng.random() * 20.0,
                generation_mw=500.0 if is_source else 0.0,
            )
        )
    # radial spine: each substation fed from an earlier one
    for i in range(1, num_substations):
        parent = rng.randrange(0, i)
        grid.add_line(f"sub{parent}", f"sub{i}", capacity_mw=150.0)
    # a few tie lines for redundancy
    for _ in range(max(1, num_substations // 5)):
        a, b = rng.sample(range(num_substations), 2)
        if not grid.graph.has_edge(f"sub{a}", f"sub{b}"):
            grid.add_line(f"sub{a}", f"sub{b}", capacity_mw=80.0)
    return grid
