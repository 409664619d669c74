"""A recovered process is a fresh one.

For each process kind of a LAN deployment — Prime replica, PBFT node,
proxy, HMI, Spines daemon and PLC — run it under traffic, crash it and
recover it, then compare every attribute outside its declared
``durable`` set with a twin: the same process of an identical system that
never ran, taken through the same start, crash and recovery. Scalars and
container contents compare by value, other objects by type. Whatever
differs is state the last incarnation leaked into the new one, or
durable state the class forgot to name.
"""

import itertools
from collections import deque

import pytest

from repro.core import SpireDeployment, SpireOptions
from repro.crypto import FastCrypto
from repro.pbft import PbftConfig, PbftNode
from repro.prime import LoggingApp, sign_client_update
from repro.scada.plc import PlcDevice
from repro.simnet import LinkSpec, Network, Simulator

_SCALARS = (type(None), bool, int, float, str, bytes)


def shape(value):
    """Scalars by value, containers by their contents, objects by type."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return type(value).__name__, [(shape(k), shape(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple, deque)):
        return type(value).__name__, [shape(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return type(value).__name__, sorted(repr(shape(item)) for item in value)
    return type(value).__name__


def volatile(process):
    durable = type(process).durable
    assert durable <= set(vars(process)), durable - set(vars(process))
    return {
        name: shape(value) for name, value in vars(process).items()
        if name not in durable
    }


def lan():
    deployment = SpireDeployment(SpireOptions(
        num_substations=2, poll_interval_ms=100.0, seed=15,
        overlay_self_healing=True,
    ))
    substation = sorted(deployment.grid.substations)[0]
    plc = PlcDevice(
        "plc:test", deployment.simulator, deployment.network,
        deployment.grid, substation, unit_id=99,
    )
    deployment.start()
    plc.start()
    return deployment.simulator, deployment.network, deployment


def pbft_cluster():
    simulator = Simulator(seed=3)
    network = Network(simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1))
    crypto = FastCrypto(seed="pbft/3")
    names = tuple(f"replica:{i}" for i in range(4))
    config = PbftConfig(names, checkpoint_interval=4)
    nodes = [
        PbftNode(name, simulator, network, config, crypto, LoggingApp())
        for name in names
    ]
    for node in nodes:
        node.start()
    seqs = itertools.count(1)

    def submit():
        seq = next(seqs)
        update = sign_client_update(crypto, "client:c", seq, ("op", seq))
        nodes[seq % len(nodes)].submit(update)

    simulator.call_every(20.0, submit, rng_name="client")
    return simulator, network, None


KINDS = {
    "prime-replica": (lan, lambda d: d.replicas[0].name),
    "pbft-node": (pbft_cluster, lambda d: "replica:1"),
    "proxy": (lan, lambda d: d.proxy.name),
    "hmi": (lan, lambda d: d.hmis[0].name),
    "spines-daemon": (lan, lambda d: d.overlay.daemons[
        d.overlay.endpoint_site(d.proxy.name)].name),
    "plc": (lan, lambda d: "plc:test"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_recovered_process_equals_a_fresh_twin(kind):
    build, pick = KINDS[kind]
    simulator, network, deployment = build()
    name = pick(deployment)
    simulator.run_for(2500.0)
    process = network.process(name)
    process.crash()
    simulator.run_for(300.0)
    process.recover()

    _, twin_network, twin_deployment = build()
    twin = twin_network.process(pick(twin_deployment))
    twin.crash()
    twin.recover()

    assert volatile(process) == volatile(twin)
