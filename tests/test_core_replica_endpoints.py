"""Focused tests for SpireReplica delivery and the proxy/HMI endpoints."""

import dataclasses

import pytest

from repro.core import (
    BatchDeliveryShare,
    BreakerCommand,
    SpireDeployment,
    SpireOptions,
    StatusReading,
    UpdateSubmission,
)
from repro.prime.node import sign_client_update


@pytest.fixture
def deployment():
    dep = SpireDeployment(SpireOptions(
        num_substations=2, poll_interval_ms=300.0, seed=15,
    ))
    dep.start()
    dep.run_for(1500)
    return dep


def collect_shares(deployment, endpoint_name):
    """Intercept BatchDeliveryShare messages arriving at an endpoint."""
    seen = []
    from repro.spines.messages import OverlayDeliver

    def spy(src, dst, payload):
        if (
            isinstance(payload, OverlayDeliver)
            and dst == endpoint_name
            and isinstance(payload.data.payload, BatchDeliveryShare)
        ):
            seen.append(payload.data.payload)
        return payload

    deployment.network.add_filter(spy)
    return seen


def test_replica_sends_shares_to_origin_and_subscribers(deployment):
    proxy_shares = collect_shares(deployment, "proxy:field")
    hmi_shares = collect_shares(deployment, "hmi:0")
    deployment.run_for(1000)
    assert proxy_shares, "origin proxy must receive shares for its updates"
    assert hmi_shares, "HMI subscribers must receive every delivery"
    senders = {share.sender for share in hmi_shares}
    assert len(senders) >= deployment.prime_config.quorum


def test_command_shares_reach_target_proxy(deployment):
    hmi = deployment.hmis[0]
    substation = sorted(deployment.grid.substations)[0]
    breaker = sorted(deployment.grid.substations[substation].breakers)[0]
    proxy_shares = collect_shares(deployment, "proxy:field")
    hmi.operate_breaker(substation, breaker, close=False)
    deployment.run_for(1500)
    command_entries = [
        entry for share in proxy_shares for entry in share.entries
        if entry.record.kind == "command"
    ]
    assert command_entries
    assert all(
        isinstance(entry.record.payload, BreakerCommand)
        for entry in command_entries
    )


def test_duplicate_submission_gets_cached_share_redelivery(deployment):
    """A client that missed its delivery can retry an executed update and
    still receive a share (liveness of the ack path)."""
    replica = deployment.replicas[0]
    crypto = deployment.crypto
    update = sign_client_update(
        crypto, "client:probe", 1,
        StatusReading("subX", 1, 0.0, (("energized", 1.0),), ()),
    )
    # first submission executes normally
    replica.submit(update)
    deployment.run_for(1000)
    assert replica.client_dedup.is_duplicate("client:probe", 1)
    # direct duplicate submission (as the overlay would deliver it)
    probe_shares = []
    original_send = replica.transport.send

    def spy(dst, payload, size_bytes=256):
        if dst == "client:probe" and isinstance(payload, BatchDeliveryShare):
            probe_shares.append(payload)
        return original_send(dst, payload, size_bytes)

    replica.transport.send = spy
    replica.on_message("anyone", UpdateSubmission((update,)))
    assert probe_shares, "duplicate submission must re-trigger the share"
    [entry] = probe_shares[0].entries  # just the client's own slice
    assert entry.record.client_seq == 1


def probe_update(crypto, seq, substation="subX"):
    return sign_client_update(
        crypto, "client:probe", seq,
        StatusReading(substation, seq, 0.0, (("energized", 1.0),), ()),
    )


def test_an_ill_typed_update_drops_its_whole_submission(deployment):
    replica = deployment.replicas[0]
    good = probe_update(deployment.crypto, 1)
    for junk in ("junk", None, ("client:probe", 2), good.payload):
        replica.on_message("anyone", UpdateSubmission((good, junk)))
    replica.on_message("anyone", UpdateSubmission([good]))  # not a tuple
    deployment.run_for(1000)
    assert not replica.client_dedup.is_duplicate("client:probe", 1)
    assert "subX" not in deployment.master_state().latest_status


def test_a_bad_signature_spares_the_other_updates_of_its_submission(deployment):
    replica = deployment.replicas[0]
    crypto = deployment.crypto
    first, forged, last = (probe_update(crypto, seq, f"sub{seq}") for seq in (1, 2, 3))
    forged = dataclasses.replace(
        forged, signature=probe_update(crypto, 4).signature
    )
    replica.on_message("anyone", UpdateSubmission((first, forged, last)))
    deployment.run_for(1000)
    for other in deployment.replicas:
        assert other.client_dedup.is_duplicate("client:probe", 1)
        assert not other.client_dedup.is_duplicate("client:probe", 2)
        assert other.client_dedup.is_duplicate("client:probe", 3)
    latest = deployment.master_state().latest_status
    assert "sub1" in latest and "sub3" in latest and "sub2" not in latest


def test_a_recovered_replica_forgets_the_shares_of_its_last_incarnation(deployment):
    """Shares cached while compromised are volatile state: after proactive
    recovery a client retry is never answered with one of them."""
    from repro.attacks import make_share_corruptor

    replica = deployment.replicas[2]
    uninstall = make_share_corruptor(replica)
    probe = probe_update(deployment.crypto, 1)
    replica.submit(probe)
    deployment.run_for(6000)  # past a checkpoint: recovery will not replay it
    batch, share, entry = replica._recent_shares[("client:probe", 1)]
    assert share.value == "corrupted"
    uninstall()
    replica.crash()
    replica.recover()
    deployment.run_for(3000)
    assert all(
        share.value != "corrupted" for _, share, _ in replica._recent_shares.values()
    )
    answers = []
    send = replica.transport.send
    replica.transport.send = lambda dst, payload, size_bytes=256: (
        answers.append(payload), send(dst, payload, size_bytes))[1]
    replica.on_message("anyone", UpdateSubmission((probe,)))
    assert all(answer.share.value != "corrupted" for answer in answers)


def test_share_corruptor_hook_applied(deployment):
    from repro.crypto.provider import ThresholdShare

    replica = deployment.replicas[1]
    replica.share_corruptor = lambda share: ThresholdShare(
        share.group, share.index, "junk"
    )
    hmi_shares = collect_shares(deployment, "hmi:0")
    deployment.run_for(800)
    from_corrupt = [s for s in hmi_shares if s.sender == replica.name]
    assert from_corrupt
    assert all(s.share.value == "junk" for s in from_corrupt)


def test_proxy_poll_timeout_recovers(deployment):
    """Killing an RTU stalls its polls but not the other devices."""
    substations = sorted(deployment.rtus)
    deployment.rtus[substations[0]].crash()
    before = deployment.proxy.readings_submitted
    deployment.run_for(3000)
    assert deployment.proxy.polls_timed_out > 0
    assert deployment.proxy.readings_submitted > before  # others continue
    master = deployment.master_state()
    alive = substations[1]
    assert master.latest_status[alive].poll_seq > 3


def test_hmi_view_ignores_stale_order(deployment):
    hmi = deployment.hmis[0]
    deployment.run_for(1000)
    substation = sorted(hmi.view)[0]
    order_index, reading = hmi.view[substation]
    from repro.core.update import DeliveryRecord

    stale = DeliveryRecord(
        "status", "proxy:field", 999_999, order_index - 1,
        StatusReading(substation, 0, 0.0, (("energized", 0.0),), ()),
    )
    # simulate verified delivery of an OLDER record
    hmi.view[substation] = (order_index, reading)
    current = hmi.view[substation]
    if current[0] >= stale.order_index:
        pass  # the HMI's guard keeps the newer reading
    assert hmi.view[substation][1].poll_seq == reading.poll_seq
