"""Traditional (non-intrusion-tolerant) SCADA baseline.

This is the system the paper's red-team exercise broke: a single SCADA
master (with an optional hot-standby backup) that field proxies trust on
the basis of a shared credential. It has no Byzantine tolerance: whoever
controls the master host controls every breaker in the field. The
red-team benchmark compromises it and measures the grid damage, then runs
the same campaign against Spire.

The data path is Spire's — the same :mod:`repro.scada.poller` master over
the same radial field — so the comparison isolates the architecture, not
the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import EventLog
from ..scada.poller import DeviceBinding, ModbusPoller, build_radial_field
from ..simnet import LinkSpec, Network, Process, Simulator

__all__ = [
    "TStatus",
    "TCommand",
    "THeartbeat",
    "TraditionalMaster",
    "TraditionalProxy",
    "TraditionalDeployment",
]


@dataclass(frozen=True)
class TStatus:
    """Proxy -> master: plain status report (no cryptographic protection)."""

    proxy: str
    substation: str
    poll_seq: int
    measurements: Tuple[Tuple[str, float], ...]
    breakers: Tuple[Tuple[str, bool], ...]


@dataclass(frozen=True)
class TCommand:
    """Master -> proxy: operate a breaker, authenticated by a shared token."""

    token: str
    substation: str
    breaker_id: str
    close: bool


@dataclass(frozen=True)
class THeartbeat:
    sender: str


@dataclass(frozen=True)
class TOperatorCommand:
    """HMI -> master."""

    substation: str
    breaker_id: str
    close: bool


class _Endpoint(Process):
    """A process whose periodic timers are armed by :meth:`start` and,
    because timers do not survive a crash, again on recovery."""

    _started = False

    def start(self) -> None:
        self._started = True
        self._arm()

    def on_recover(self) -> None:
        if self._started:
            self._arm()

    def _arm(self) -> None:
        raise NotImplementedError


class TraditionalMaster(_Endpoint):
    """Single (or hot-standby) SCADA master."""

    #: primary -> standby heartbeat period
    heartbeat_interval_ms = 500.0
    #: heartbeat silence after which the standby promotes itself
    failover_timeout_ms = 2000.0

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        token: str,
        proxies: List[str],
        is_primary: bool = True,
        peer_master: Optional[str] = None,
    ) -> None:
        super().__init__(name, simulator, network)
        self.token = token
        self.proxies = list(proxies)
        self.is_primary = is_primary
        self.peer_master = peer_master
        self.latest_status: Dict[str, TStatus] = {}
        self.commands_issued = 0
        self.compromised = False
        self._last_peer_heartbeat = 0.0

    def _arm(self) -> None:
        self.every(self.heartbeat_interval_ms, self._heartbeat_tick)
        if not self.is_primary:
            self.every(self.failover_timeout_ms / 2, self._failover_check)

    def _heartbeat_tick(self) -> None:
        if self.peer_master is not None and self.is_primary:
            self.send(self.peer_master, THeartbeat(self.name), size_bytes=32)

    def _failover_check(self) -> None:
        if self.is_primary:
            return
        if self.simulator.now - self._last_peer_heartbeat > self.failover_timeout_ms:
            self.is_primary = True  # promote: hot-standby takeover

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, TStatus):
            current = self.latest_status.get(payload.substation)
            if current is None or current.poll_seq < payload.poll_seq:
                self.latest_status[payload.substation] = payload
        elif isinstance(payload, THeartbeat):
            self._last_peer_heartbeat = self.simulator.now
        elif isinstance(payload, TOperatorCommand):
            if self.is_primary:
                self.issue_command(payload.substation, payload.breaker_id, payload.close)

    def issue_command(self, substation: str, breaker_id: str, close: bool) -> None:
        """Send an authenticated command to every proxy (the right one
        will act on it)."""
        self.commands_issued += 1
        command = TCommand(self.token, substation, breaker_id, close)
        for proxy in self.proxies:
            self.send(proxy, command, size_bytes=96)

    # ------------------------------------------------------------------
    def compromise(self) -> None:
        """Attacker takes over this master host: it holds the shared token
        and full knowledge of the field layout."""
        self.compromised = True


class TraditionalProxy(_Endpoint):
    """Field proxy: Modbus toward devices, token-checked commands inward."""

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        token: str,
        masters: List[str],
        devices: List[DeviceBinding],
        poll_interval_ms: float = 100.0,
    ) -> None:
        super().__init__(name, simulator, network)
        self.token = token
        self.masters = list(masters)
        self.poll_interval_ms = poll_interval_ms
        self.poller = ModbusPoller(self, self._send_status, devices)
        self.status_sent = 0

    def _arm(self) -> None:
        self.every(self.poll_interval_ms, self.poller.poll_all, jitter=2.0)

    def on_recover(self) -> None:
        self.poller.reset()
        super().on_recover()

    def on_message(self, src: str, payload: Any) -> None:
        if self.poller.on_payload(payload):
            return
        # the only protection: a static shared credential
        if isinstance(payload, TCommand) and payload.token == self.token:
            self.poller.write_coil(
                payload.substation, payload.breaker_id, payload.close
            )

    def _send_status(self, binding: DeviceBinding, measurements, breakers) -> None:
        status = TStatus(
            proxy=self.name,
            substation=binding.substation,
            poll_seq=binding.poll_seq,
            measurements=measurements,
            breakers=breakers,
        )
        for master in self.masters:
            self.send(master, status, size_bytes=200)
        self.status_sent += 1


class TraditionalDeployment:
    """A complete traditional-SCADA system over the same grid model."""

    #: one-way latency of the control-center <-> field-site WAN link
    wan_latency_ms = 8.0

    def __init__(
        self,
        num_substations: int = 5,
        seed: int = 1,
        poll_interval_ms: float = 100.0,
        with_backup: bool = True,
    ) -> None:
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator, LinkSpec(latency_ms=0.2, jitter_ms=0.05))
        self.trace = EventLog(now_fn=lambda: self.simulator.now)
        self.token = f"scada-secret-{seed}"
        master_names = ["master:primary"] + (["master:backup"] if with_backup else [])
        self.grid, self.rtus, devices = build_radial_field(
            self.simulator, self.network, num_substations, seed
        )
        self.proxy = TraditionalProxy(
            "tproxy:field", self.simulator, self.network, self.token,
            masters=master_names, devices=devices,
            poll_interval_ms=poll_interval_ms,
        )
        self.primary = TraditionalMaster(
            "master:primary", self.simulator, self.network, self.token,
            proxies=[self.proxy.name], is_primary=True,
            peer_master="master:backup" if with_backup else None,
        )
        self.backup: Optional[TraditionalMaster] = None
        if with_backup:
            self.backup = TraditionalMaster(
                "master:backup", self.simulator, self.network, self.token,
                proxies=[self.proxy.name], is_primary=False,
                peer_master="master:primary",
            )
        # WAN link between control center (masters) and the field site
        for master in master_names:
            self.network.set_link(
                master, self.proxy.name, LinkSpec(latency_ms=self.wan_latency_ms, jitter_ms=0.5)
            )

    def start(self) -> None:
        self.primary.start()
        if self.backup is not None:
            self.backup.start()
        self.proxy.start()

    def run_for(self, duration_ms: float) -> None:
        self.simulator.run_for(duration_ms)
