"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.crypto import FastCrypto, RealCrypto
from repro.prime import (
    LoggingApp,
    PrimeNode,
    lan_prime_config,
    sign_client_update,
)
from repro.obs import Observability
from repro.simnet import LinkSpec, Network, Simulator


@pytest.fixture
def simulator():
    return Simulator(seed=42)


@pytest.fixture
def network(simulator):
    return Network(simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1))


@pytest.fixture
def crypto():
    return FastCrypto(seed="tests")


@pytest.fixture(params=["fast", "real"])
def any_crypto(request):
    """Parametrized provider: every test using it runs on both backends."""
    if request.param == "fast":
        return FastCrypto(seed="tests")
    return RealCrypto(seed="tests", bits=512)


class PrimeCluster:
    """A ready-to-use Prime cluster on a direct LAN network."""

    def __init__(self, n=6, f=1, k=1, seed=7, latency_ms=0.3, loss=0.0,
                 app_factory=LoggingApp, crypto=None, config=None):
        self.simulator = Simulator(seed=seed)
        self.network = Network(
            self.simulator, LinkSpec(latency_ms=latency_ms, jitter_ms=0.1, loss=loss)
        )
        self.crypto = crypto or FastCrypto(seed=f"cluster/{seed}")
        self.obs = Observability(now_fn=lambda: self.simulator.now)
        names = tuple(f"replica:{i}" for i in range(n))
        self.config = config or lan_prime_config(names, f=f, k=k)
        self.nodes = [
            PrimeNode(name, self.simulator, self.network, self.config,
                      self.crypto, app_factory(), obs=self.obs)
            for name in names
        ]
        self._client_seq = 0

    def start(self, warmup_ms=50.0):
        for node in self.nodes:
            node.start()
        self.simulator.run_for(warmup_ms)
        return self

    def submit(self, payload, node_index=0, client="client:test"):
        self._client_seq += 1
        update = sign_client_update(self.crypto, client, self._client_seq, payload)
        return self.nodes[node_index].submit(update), self._client_seq

    def pump(self, count, gap_ms=20.0, node_index=None):
        """Submit ``count`` updates, advancing virtual time between them."""
        for i in range(count):
            index = (i % len(self.nodes)) if node_index is None else node_index
            node = self.nodes[index]
            if not node.is_up:
                node = next(n for n in self.nodes if n.is_up)
            self.submit(("op", self._client_seq + 1), self.nodes.index(node))
            self.simulator.run_for(gap_ms)

    def run_for(self, ms):
        self.simulator.run_for(ms)

    def logs(self, only_up=False):
        return [
            tuple(node.app.log)
            for node in self.nodes
            if node.is_up or not only_up
        ]

    def assert_safety(self, only_up=True):
        """Every pair of (healthy) replicas executed consistent prefixes."""
        logs = [tuple(n.app.log) for n in self.nodes if n.is_up or not only_up]
        reference = max(logs, key=len)
        for log in logs:
            assert log == reference[: len(log)], "divergent execution order"
        return reference


@pytest.fixture
def cluster():
    return PrimeCluster().start()


@pytest.fixture
def cluster_factory():
    return PrimeCluster
