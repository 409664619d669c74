"""Bounded exponential backoff in retry paths.

Covers the :class:`RetryPolicy` itself, client resubmission backoff in
:class:`SubmissionManager`, Prime's state-transfer retry loop, and the
proactive-recovery scheduler's refusal to rejuvenate below quorum.
"""

import random

import pytest

from repro.core.client import SubmissionManager
from repro.core.recovery import PeriodicStrategy
from repro.crypto import FastCrypto
from repro.replication import RetryPolicy
from repro.obs import Observability
from repro.simnet import LinkSpec, Network, Process, Simulator


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

def test_retry_policy_grows_and_caps():
    policy = RetryPolicy(base_ms=100.0, factor=2.0, max_ms=1000.0,
                         max_attempts=6, jitter_frac=0.0)
    delays = [policy.delay_ms(i) for i in range(8)]
    assert delays[:4] == [100.0, 200.0, 400.0, 800.0]
    assert delays[4:] == [1000.0] * 4          # pinned at the cap
    assert not policy.capped(5)
    assert policy.capped(6)


def test_retry_policy_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(base_ms=100.0, factor=2.0, max_ms=10_000.0,
                         jitter_frac=0.25)
    rng = random.Random("jitter")
    delays = [policy.delay_ms(2, rng) for _ in range(50)]
    assert all(400.0 <= d < 500.0 for d in delays)
    assert len(set(delays)) > 1
    assert delays == [
        policy.delay_ms(2, random.Random("jitter")) for _ in range(50)
    ][:1] + delays[1:]  # first draw reproducible from the seed


def test_retry_policy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetryPolicy(base_ms=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(base_ms=100.0, max_ms=50.0)


# ----------------------------------------------------------------------
# Client resubmission backoff
# ----------------------------------------------------------------------

def make_manager(clock, sent):
    return SubmissionManager(
        client_name="client:test",
        crypto=FastCrypto(seed="backoff"),
        replicas=["replica:0", "replica:1", "replica:2"],
        send_fn=lambda replica, payload, size: sent.append((clock[0], replica)) or True,
        now_fn=lambda: clock[0],
        resubmit_timeout_ms=100.0,
    )


def test_submission_retries_back_off_and_fail_over():
    clock = [0.0]
    sent = []
    manager = make_manager(clock, sent)
    manager.submit("reading")
    manager.flush()
    assert [replica for _, replica in sent] == ["replica:0"]

    # tick well past a fixed 100ms period: backoff allows only ~3 retries
    # in 1.5s (at 100, 250, 475...) instead of 15
    retries = 0
    for step in range(30):
        clock[0] += 50.0
        retries += manager.retry_tick()
    assert retries == manager.retries_total
    gaps = [b - a for (a, _), (b, _) in zip(sent, sent[1:])]
    assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))
    assert 3 <= len(sent) <= 6                 # bounded probe rate
    # each retry rotates to the next replica endpoint
    assert sent[1][1] == "replica:1"
    assert sent[2][1] == "replica:2"


def test_submission_retry_stops_after_ack():
    clock = [0.0]
    sent = []
    manager = make_manager(clock, sent)
    (client, seq) = manager.submit("reading")
    clock[0] += 150.0
    manager.retry_tick()
    manager.acknowledged(client, seq)
    before = len(sent)
    clock[0] += 5000.0
    assert manager.retry_tick() == 0
    assert len(sent) == before
    assert manager.outstanding == 0


# ----------------------------------------------------------------------
# Prime state-transfer retries
# ----------------------------------------------------------------------

def test_state_transfer_requests_back_off(cluster):
    """An isolated recovering replica re-requests state with growing gaps."""
    sim = cluster.simulator
    node = cluster.nodes[3]
    request_times = []

    def isolate_and_spy(src, dst, payload):
        inner = getattr(payload, "payload", payload)
        if (src == node.name and dst == cluster.nodes[0].name
                and type(inner).__name__ == "StateRequest"):
            request_times.append(sim.now)
        if dst == node.name:
            return None  # no replies ever reach the recovering replica
        return payload

    cluster.network.add_filter(isolate_and_spy)
    node.crash()
    cluster.run_for(100)
    node.recover()
    assert node.awaiting_state
    cluster.run_for(20_000)

    assert len(request_times) >= 4
    gaps = [b - a for a, b in zip(request_times, request_times[1:])]
    # exponential: every gap strictly exceeds the previous even with jitter
    assert all(later > earlier for earlier, later in zip(gaps, gaps[1:4]))
    # bounded: pinned at the policy cap, never silent forever
    cap = node._state_retry_policy.max_ms
    assert all(gap <= cap * 1.3 for gap in gaps)
    # rate bounded by the cap: a fixed recon-period retry would fire ~200
    # times in this window
    assert len(request_times) <= 20_000 / cap + 8


def test_state_transfer_retry_resets_after_success(cluster):
    node = cluster.nodes[3]
    node.crash()
    cluster.run_for(100)
    node.recover()
    cluster.run_for(5000)
    assert not node.awaiting_state
    assert node._state_retry_attempts == 0
    assert node._state_retry_timer is None


# ----------------------------------------------------------------------
# Proactive recovery quorum guard
# ----------------------------------------------------------------------

def test_scheduler_defers_rejuvenation_below_min_live():
    sim = Simulator(seed=5)
    net = Network(sim, LinkSpec(latency_ms=1.0))
    obs = Observability(now_fn=lambda: sim.now)
    replicas = [Process(f"r{i}", sim, net) for i in range(6)]
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=30.0,
        obs=obs, min_live=4,
    )
    replicas[0].crash()
    replicas[1].crash()  # 4 live: any rejuvenation would break quorum
    scheduler.start()
    sim.run_for(350.0)
    assert scheduler.recoveries_started == 0
    assert scheduler.deferred_rounds >= 3
    assert sum(1 for r in replicas if r.is_up) == 4
    assert obs.log.count("recovery-scheduler", "rejuvenate-deferred") >= 3

    # once replicas return, the rotation resumes
    replicas[0].recover()
    replicas[1].recover()
    sim.run_for(400.0)
    assert scheduler.recoveries_started >= 1
    deferred_after_heal = scheduler.deferred_rounds


def test_scheduler_unguarded_when_min_live_is_none():
    sim = Simulator(seed=5)
    net = Network(sim, LinkSpec(latency_ms=1.0))
    replicas = [Process(f"r{i}", sim, net) for i in range(4)]
    for replica in replicas[:3]:
        replica.crash()
    scheduler = PeriodicStrategy(
        sim, replicas, period_ms=100.0, recovery_duration_ms=10.0,
    )
    scheduler.start()
    sim.run_for(150.0)
    assert scheduler.recoveries_started == 1
    assert scheduler.deferred_rounds == 0
