"""Tests for the PBFT-style baseline."""

import pytest

from repro.attacks import make_slow_proposer
from repro.crypto import FastCrypto
from repro.prime import LoggingApp, sign_client_update
from repro.pbft import PbftConfig, PbftNode
from repro.obs import EV_PBFT_NEW_VIEW, EV_PBFT_VIEW_CHANGE, Observability
from repro.simnet import LinkSpec, Network, Simulator


class PbftCluster:
    def __init__(self, n=6, f=1, seed=3, timeout_ms=1000.0, loss=0.0, **config_kwargs):
        self.simulator = Simulator(seed=seed)
        self.network = Network(
            self.simulator, LinkSpec(latency_ms=0.3, jitter_ms=0.1, loss=loss))
        self.crypto = FastCrypto(seed=f"pbft/{seed}")
        self.obs = Observability(now_fn=lambda: self.simulator.now)
        names = tuple(f"replica:{i}" for i in range(n))
        self.config = PbftConfig(names, num_faults=f,
                                 request_timeout_ms=timeout_ms, **config_kwargs)
        self.nodes = [
            PbftNode(name, self.simulator, self.network, self.config,
                     self.crypto, LoggingApp(), obs=self.obs)
            for name in names
        ]
        self._seq = 0

    def start(self):
        for node in self.nodes:
            node.start()
        self.simulator.run_for(20)
        return self

    def submit(self, payload, index=1):
        self._seq += 1
        update = sign_client_update(self.crypto, "client:c", self._seq, payload)
        node = self.nodes[index]
        if not node.is_up:
            node = next(n for n in self.nodes if n.is_up)
        return node.submit(update)

    def pump(self, count, gap_ms=20.0):
        """Submit ``count`` updates round-robin, ``gap_ms`` apart."""
        for i in range(count):
            self.submit(("op", i), index=i % len(self.nodes))
            self.simulator.run_for(gap_ms)

    def logs(self, only_up=True):
        return [tuple(n.app.log) for n in self.nodes if n.is_up or not only_up]


@pytest.fixture
def pbft():
    return PbftCluster().start()


def test_config_quorum():
    names = tuple(f"r{i}" for i in range(4))
    assert PbftConfig(names, num_faults=1).quorum == 3
    names6 = tuple(f"r{i}" for i in range(6))
    assert PbftConfig(names6, num_faults=1).quorum == 4


def test_config_minimum():
    with pytest.raises(ValueError):
        PbftConfig(("a", "b", "c"), num_faults=1)


def test_happy_path_ordering(pbft):
    for i in range(20):
        pbft.submit(("op", i))
        pbft.simulator.run_for(20)
    pbft.simulator.run_for(1000)
    logs = pbft.logs()
    assert all(len(log) == 20 for log in logs)
    assert len(set(logs)) == 1


def test_duplicate_update_executes_once(pbft):
    update = sign_client_update(pbft.crypto, "client:d", 1, ("op",))
    pbft.nodes[1].submit(update)
    pbft.nodes[2].submit(update)
    pbft.simulator.run_for(1000)
    assert all(len(log) == 1 for log in pbft.logs())


def test_invalid_signature_rejected(pbft):
    from repro.prime import ClientUpdate

    assert pbft.nodes[1].submit(ClientUpdate("c", 1, ("op",), None)) is False


def test_leader_crash_view_change_recovers():
    pbft = PbftCluster(seed=5).start()
    pbft.simulator.run_for(100)
    pbft.nodes[0].crash()
    for i in range(15):
        pbft.submit(("op", i))
        pbft.simulator.run_for(100)
    pbft.simulator.run_for(6000)
    logs = pbft.logs()
    assert all(len(log) == 15 for log in logs)
    assert len(set(logs)) == 1
    assert all(node.view >= 1 for node in pbft.nodes if node.is_up)
    assert pbft.obs.log.count(kind="pbft-new-view") >= 1


def test_slow_leader_degrades_latency_without_view_change():
    """The baseline's defining weakness: a leader delaying proposals below
    the timeout degrades latency arbitrarily and is never replaced."""
    pbft = PbftCluster(seed=8, timeout_ms=1000.0).start()
    pbft.simulator.run_for(200)
    make_slow_proposer(pbft.nodes[0], delay_ms=400.0)
    latencies = []
    done = {}
    for node in pbft.nodes:
        node.execution_listeners.append(
            lambda u, i, r: done.setdefault(
                (u.client, u.client_seq), pbft.simulator.now
            )
        )
    submitted = {}
    for i in range(20):
        seq = pbft._seq + 1
        submitted[("client:c", seq)] = pbft.simulator.now
        pbft.submit(("op", i))
        pbft.simulator.run_for(100)
    pbft.simulator.run_for(3000)
    latencies = [
        done[key] - submitted[key] for key in submitted if key in done
    ]
    assert len(latencies) == 20
    assert min(latencies) > 300.0          # every update pays the delay
    assert all(node.view == 0 for node in pbft.nodes)  # never replaced


def test_fast_leader_latency_is_low():
    pbft = PbftCluster(seed=9).start()
    done = {}
    for node in pbft.nodes:
        node.execution_listeners.append(
            lambda u, i, r: done.setdefault(
                (u.client, u.client_seq), pbft.simulator.now
            )
        )
    start = pbft.simulator.now
    pbft.submit(("op",))
    pbft.simulator.run_for(500)
    latency = done[("client:c", 1)] - start
    assert latency < 30.0


def test_view_change_preserves_prepared_updates():
    pbft = PbftCluster(seed=12).start()
    pbft.simulator.run_for(100)
    for i in range(5):
        pbft.submit(("pre", i))
        pbft.simulator.run_for(30)
    pbft.nodes[0].crash()
    for i in range(5):
        pbft.submit(("post", i))
        pbft.simulator.run_for(100)
    pbft.simulator.run_for(6000)
    logs = pbft.logs()
    assert all(len(log) == 10 for log in logs)
    assert len(set(logs)) == 1


def test_progress_requires_quorum():
    pbft = PbftCluster(seed=14).start()
    for index in (3, 4, 5):
        pbft.nodes[index].crash()
    pbft.submit(("op",))
    pbft.simulator.run_for(4000)
    assert all(len(node.app.log) == 0 for node in pbft.nodes if node.is_up)


# ----------------------------------------------------------------------
# View-change validation (Byzantine-proof), checkpoints, catch-up
# ----------------------------------------------------------------------

def _signed(cluster, sender, payload):
    from repro.prime import SignedMessage

    return SignedMessage(payload, cluster.crypto.sign(sender, payload))


def _prepared_entry(cluster, seq=1, view=0, batch=None, proof_len=None,
                    digest=None):
    from repro.pbft.messages import PbftPrePrepare
    from repro.pbft.node import batch_digest
    from repro.replication import Prepare, PreparedEntry

    if batch is None:
        update = sign_client_update(
            cluster.crypto, "client:x", seq, ("op", seq))
        batch = (update,)
    leader = cluster.config.leader_of_view(view)
    pp_signed = _signed(cluster, leader, PbftPrePrepare(leader, view, seq, batch))
    entry_digest = digest or batch_digest(seq, batch)
    voters = [n for n in cluster.config.replicas if n != leader]
    count = cluster.config.quorum - 1 if proof_len is None else proof_len
    proof = tuple(
        _signed(cluster, name, Prepare(name, view, seq, entry_digest))
        for name in voters[:count]
    )
    return PreparedEntry(seq, view, entry_digest, pp_signed, proof)


def _vc_of(cluster, sender, new_view, entries, last_executed=0):
    from repro.pbft.messages import PbftViewChange

    vc = PbftViewChange(sender, new_view, last_executed, tuple(entries))
    return _signed(cluster, sender, vc), vc


def _validate(node, signed, vc):
    return node.view_manager.validate_view_change(signed, vc, node.verify_signed)


def test_viewchange_validation_rejects_weak_proof(pbft):
    # one prepare + the leader's implied vote is far below quorum
    entry = _prepared_entry(pbft, proof_len=1)
    signed, vc = _vc_of(pbft, "replica:2", 1, (entry,))
    assert not _validate(pbft.nodes[0], signed, vc)


def test_viewchange_validation_rejects_digest_mismatch(pbft):
    # quorum vouched for a digest that does not match the batch content
    entry = _prepared_entry(pbft, digest="forged-digest")
    signed, vc = _vc_of(pbft, "replica:2", 1, (entry,))
    assert not _validate(pbft.nodes[0], signed, vc)


def test_viewchange_validation_rejects_wrong_leader_pre_prepare(pbft):
    from repro.pbft.messages import PbftPrePrepare
    from repro.pbft.node import batch_digest
    from repro.replication import PreparedEntry

    good = _prepared_entry(pbft)
    batch = good.pre_prepare.payload.batch
    # replica:3 is not the leader of view 0 but signs its pre-prepare
    evil_pp = _signed(pbft, "replica:3", PbftPrePrepare(
        "replica:3", 0, good.seq, batch))
    forged = PreparedEntry(
        good.seq, 0, batch_digest(good.seq, batch), evil_pp, good.proof)
    signed, vc = _vc_of(pbft, "replica:2", 1, (forged,))
    assert not _validate(pbft.nodes[0], signed, vc)


def test_new_view_from_equivocating_leader_rejected(pbft):
    """A faulty new leader embedding a pre-prepare it did not sign (or
    one signed by someone else) must not be adopted."""
    from repro.pbft.messages import PbftPrePrepare
    from repro.replication import NewView

    node = pbft.nodes[2]
    vcs = []
    for name in pbft.config.replicas[:pbft.config.quorum]:
        vc_signed, _ = _vc_of(pbft, name, 1, ())
        vcs.append(vc_signed)
    # leader of view 1 is replica:1; the embedded proposal is replica:3's
    evil_pp = _signed(pbft, "replica:3", PbftPrePrepare("replica:3", 1, 1, ()))
    nv = NewView("replica:1", 1, tuple(vcs), (evil_pp,))
    node._on_new_view(_signed(pbft, "replica:1", nv), nv)
    assert node.view == 0
    assert not node.in_view_change


def test_checkpoint_truncates_log():
    pbft = PbftCluster(seed=17, checkpoint_interval=4).start()
    for i in range(40):
        pbft.submit(("op", i))
        pbft.simulator.run_for(20)
    pbft.simulator.run_for(2000)
    assert all(len(node.app.log) == 40 for node in pbft.nodes)
    # a quorum certified checkpoints; logs kept only the retention window
    for node in pbft.nodes:
        assert node.stable_seq >= 36
        assert min(node.slots) > 4          # old slots truncated
        assert len(node.slots) <= 4 * 4 + 8  # retention window + frontier
    assert pbft.obs.log.count(kind="pbft-checkpoint") >= len(pbft.nodes)


def test_vote_table_gc_after_new_view():
    """Satellite: adopted views drop their vote-table epochs (no unbounded
    growth across view changes)."""
    pbft = PbftCluster(seed=5).start()
    pbft.simulator.run_for(100)
    pbft.nodes[0].crash()
    for i in range(10):
        pbft.submit(("op", i))
        pbft.simulator.run_for(100)
    pbft.simulator.run_for(6000)
    moved = [n for n in pbft.nodes if n.is_up and n.view >= 1]
    assert len(moved) >= pbft.config.quorum
    for node in moved:
        assert all(
            epoch >= node.view for epoch in node.view_manager.view_changes)
        assert len(node.view_manager.view_changes) <= 2


def test_view_metrics_recorded():
    pbft = PbftCluster(seed=5).start()
    pbft.simulator.run_for(100)
    pbft.nodes[0].crash()
    for i in range(10):
        pbft.submit(("op", i))
        pbft.simulator.run_for(100)
    pbft.simulator.run_for(6000)
    node = next(n for n in pbft.nodes if n.is_up and n.view >= 1)
    # the event log dates every transition: a started view change, and
    # the view the replica now holds
    assert node.obs.log.count(node.name, EV_PBFT_VIEW_CHANGE) >= 1
    transitions = [
        e for e in node.obs.log.events(node.name)
        if e.kind in (EV_PBFT_VIEW_CHANGE, EV_PBFT_NEW_VIEW)
    ]
    assert transitions[-1].details["view"] == node.view


def test_in_view_change_suppresses_forwarding(pbft):
    node = pbft.nodes[2]
    update = sign_client_update(pbft.crypto, "client:s", 1, ("op",))
    node.submit(update)
    node.in_view_change = True
    sent_before = pbft.network.stats.sent
    node._forward_tick()
    assert pbft.network.stats.sent == sent_before
    node.in_view_change = False
    node._forward_tick()
    assert pbft.network.stats.sent > sent_before


@pytest.mark.parametrize("batching", [True, False])
def test_mid_batch_leader_kill_executes_exactly_once(batching):
    """Kill the leader while a batch is in flight: every update executes
    exactly once on every replica after recovery, batching on or off."""
    kwargs = (dict(batch_interval_ms=20.0, batch_max_updates=64) if batching
              else dict(batch_interval_ms=1.0, batch_max_updates=1))
    pbft = PbftCluster(seed=23, **kwargs).start()
    pbft.simulator.run_for(100)
    counts = {}
    for node in pbft.nodes:
        def listener(u, i, r, name=node.name):
            key = (name, u.client, u.client_seq)
            counts[key] = counts.get(key, 0) + 1
        node.execution_listeners.append(listener)
    for i in range(8):
        pbft.submit(("mid", i))
    pbft.simulator.run_for(6.0)   # batch pre-prepared but not yet committed
    pbft.nodes[0].crash()
    for i in range(8):
        pbft.submit(("post", i))
        pbft.simulator.run_for(50)
    pbft.simulator.run_for(8000)
    logs = pbft.logs()
    assert all(len(log) == 16 for log in logs)
    assert len(set(logs)) == 1
    assert counts and all(count == 1 for count in counts.values())
