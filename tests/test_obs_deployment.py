"""Deployment-level observability tests: the overhead guard, options
presets/validation, and the scenario report."""

import json

import pytest

from repro.analysis import ScenarioReport
from repro.core import SpireDeployment, SpireOptions
from repro.crypto import FastCrypto, RealCrypto
from repro.obs import Observability
from repro.replication.transport import DirectTransport

#: event budget of the guard configuration with nothing instrumented —
#: the disabled-observability run must stay within 5% of it
PRE_INSTRUMENTATION_EVENTS = 27_222
GUARD_OPTIONS = dict(num_substations=2, poll_interval_ms=200.0, seed=7)
GUARD_RUN_MS = 3000.0


def _run(observability):
    deployment = SpireDeployment(SpireOptions(
        observability=observability, **GUARD_OPTIONS,
    ))
    deployment.start()
    deployment.run_for(GUARD_RUN_MS)
    return deployment


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
def test_observability_disabled_within_event_budget():
    deployment = _run(observability=False)
    events = deployment.simulator.events_processed
    assert abs(events - PRE_INSTRUMENTATION_EVENTS) <= (
        0.05 * PRE_INSTRUMENTATION_EVENTS
    ), f"disabled-observability run processed {events} events"
    # disabled means *disabled*: no metrics, no events, no spans
    assert deployment.obs.enabled is False
    assert deployment.obs.log.count() == 0
    assert deployment.obs.registry.snapshot() == {}


def test_observability_never_perturbs_the_simulation():
    disabled = _run(observability=False)
    enabled = _run(observability=True)
    assert (
        enabled.simulator.events_processed
        == disabled.simulator.events_processed
    )
    assert enabled.network.stats.sent == disabled.network.stats.sent
    # and the enabled run did measure things
    metrics = enabled.obs.registry.snapshot()
    assert metrics["sim.events_processed"] > 0
    assert any(name.startswith("prime.msgs.") for name in metrics)
    assert any(name.startswith("spines.") for name in metrics)


@pytest.mark.parametrize("crypto_kind, provider", [("fast", FastCrypto), ("real", RealCrypto)])
@pytest.mark.parametrize("observability", [False, True])
def test_a_deployment_signs_through_the_bare_provider(observability, crypto_kind, provider):
    deployment = SpireDeployment(SpireOptions(
        observability=observability, crypto_kind=crypto_kind, **GUARD_OPTIONS,
    ))
    assert type(deployment.crypto) is provider
    assert all(replica.crypto is deployment.crypto for replica in deployment.replicas)


def _kept_counts(deployment):
    """Every per-kind and transport count the replicas keep, by metric name."""
    counts = {}

    def add(name, value):
        counts[name] = counts.get(name, 0) + value

    for replica in deployment.replicas:
        for kind, value in replica.dispatcher.counts.items():
            add(f"prime.msgs.{kind.__name__}", value)
        for kind, value in replica.runtime.sent.items():
            add(f"prime.send.{kind.__name__}", value)
        add("prime.transport.overlay.sent", replica.transport.sent)
        add("prime.transport.overlay.sent_bytes", replica.transport.sent_bytes)
    return counts


def test_components_count_whether_or_not_obs_reads_them():
    disabled, enabled = _run(observability=False), _run(observability=True)
    counts = _kept_counts(disabled)
    assert counts["prime.msgs.Commit"] > 0 and counts["prime.send.Commit"] > 0
    assert counts["prime.transport.overlay.sent"] > 0
    assert _kept_counts(enabled) == counts
    # obs reads exactly what the components keep, and nothing when off
    metrics = enabled.obs.registry.snapshot()
    prefixes = ("prime.msgs.", "prime.send.", "prime.transport.overlay.")
    assert {n: v for n, v in metrics.items() if n.startswith(prefixes)} == counts
    assert disabled.obs.registry.snapshot() == {}


@pytest.mark.parametrize("observed", [False, True])
def test_direct_transport_counts_its_sends(observed):
    class Process:
        def send(self, dst, payload, size_bytes):
            return True

    obs = Observability() if observed else None
    transport = DirectTransport(Process(), obs=obs)
    transport.send("a", "x", size_bytes=10)
    transport.multicast(["b", "c"], "y", size_bytes=5)
    assert (transport.sent, transport.sent_bytes) == (3, 20)
    if observed:
        metrics = obs.registry.snapshot()
        assert metrics["prime.transport.direct.sent"] == 3
        assert metrics["prime.transport.direct.sent_bytes"] == 20


def test_legacy_recorders_are_registry_views():
    deployment = _run(observability=True)
    assert deployment.obs.registry.get("proxy.status_latency") \
        is deployment.status_recorder
    assert deployment.obs.registry.get("hmi.command_latency") \
        is deployment.command_recorder
    assert deployment.obs.registry.get("hmi.delivered_updates") \
        is deployment.delivery_series
    assert deployment.status_recorder.stats().count > 0


# ----------------------------------------------------------------------
# SpireOptions presets + validation
# ----------------------------------------------------------------------
def test_wan_lan_presets_pin_coupled_knobs():
    wan = SpireOptions.wan(seed=3)
    assert (wan.prime_preset, wan.overlay_mode) == ("wan", "flooding")
    lan = SpireOptions.lan(seed=3, num_substations=2)
    assert (lan.prime_preset, lan.overlay_mode) == ("lan", "shortest")
    assert lan.num_substations == 2
    # overrides still win
    assert SpireOptions.lan(overlay_mode="flooding").overlay_mode == "flooding"


def test_validate_rejects_bad_placement_with_actionable_error():
    options = SpireOptions(f=1, k=1, placement={"a": 2, "b": 2})
    with pytest.raises(ValueError) as excinfo:
        options.validate()
    message = str(excinfo.value)
    assert "3f+2k+1" in message and "6" in message and "4" in message


@pytest.mark.parametrize("bad", [
    dict(f=-1),
    dict(num_substations=0),
    dict(poll_interval_ms=0.0),
    dict(overlay_mode="broadcast"),
    dict(prime_preset="metro"),
    dict(crypto_kind="quantum"),
    dict(checkpoint_interval_seqs=0),
    dict(proactive_recovery=(1000.0, 1000.0)),
    dict(proactive_recovery=(0.0, 100.0)),
])
def test_validate_rejects_inconsistent_knobs(bad):
    with pytest.raises(ValueError):
        SpireOptions(**bad).validate()


def test_deployment_validates_options_on_construction():
    with pytest.raises(ValueError):
        SpireDeployment(SpireOptions(placement={"solo": 1}))


# ----------------------------------------------------------------------
# Scenario report
# ----------------------------------------------------------------------
def test_scenario_report_structure_and_rendering():
    deployment = _run(observability=True)
    report = ScenarioReport.from_deployment(deployment, title="guard")
    data = report.to_dict()
    assert data["title"] == "guard"
    assert data["events_processed"] == deployment.simulator.events_processed
    assert "proxy.status_latency" in data["latency_cdfs"]
    assert len(data["latency_cdfs"]["proxy.status_latency"]) == len(
        data["cdf_marks"]
    )
    assert data["metrics"]["sim.events_processed"] > 0
    # the trace's dropped counter is surfaced, not hidden
    assert data["events"]["dropped"] == 0
    json.loads(report.to_json())  # valid JSON

    text = report.text()
    assert "scenario report: guard" in text
    assert "proxy.status_latency" in text
    assert "0 dropped" in text


def test_scenario_report_surfaces_dropped_trace_events():
    deployment = _run(observability=True)
    deployment.obs.log.max_events = deployment.obs.log.count()
    deployment.obs.event("test", "overflow-a")
    deployment.obs.event("test", "overflow-b")
    report = ScenarioReport.from_deployment(deployment)
    assert report.to_dict()["events"]["dropped"] == 2
    assert "2 dropped" in report.text()
    assert "TRACE CLIPPED" in report.text()


def test_scenario_report_deterministic_json_across_same_seed():
    first = ScenarioReport.from_deployment(_run(True))
    second = ScenarioReport.from_deployment(_run(True))
    assert first.to_json(deterministic_only=True) == \
        second.to_json(deterministic_only=True)
