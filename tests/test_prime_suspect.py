"""Unit tests for the TAT suspect-leader monitor."""

import pytest

from repro.prime import PrimeConfig, SuspectMonitor


def monitor(f=1, k=1, n=6, **overrides):
    names = tuple(f"r{i}" for i in range(n))
    defaults = dict(
        tat_latency_factor=3.0,
        tat_slack_ms=15.0,
        tat_floor_ms=40.0,
        pre_prepare_interval_ms=20.0,
    )
    defaults.update(overrides)
    config = PrimeConfig(names, num_faults=f, num_recovering=k, **defaults)
    return SuspectMonitor(config, "r0")


def warm(mon, rtt=10.0):
    for i in range(1, 6):
        mon.record_rtt(f"r{i}", rtt)
    return mon


def test_no_judgement_before_enough_rtts():
    mon = monitor()
    mon.record_rtt("r1", 5.0)
    assert mon.acceptable_tat() is None
    assert mon.should_suspect(now=1000.0) is None


def test_acceptable_tat_formula():
    mon = warm(monitor(), rtt=10.0)
    # 3 * rtt_(f+k+1 = 3rd smallest = 10) + 20 interval + 15 slack
    assert mon.acceptable_tat() == pytest.approx(3 * 10.0 + 20.0 + 15.0)


def test_floor_applies_for_tiny_rtts():
    mon = warm(monitor(), rtt=0.1)
    assert mon.acceptable_tat() == pytest.approx(40.0)


def test_rtt_ewma_smooths():
    mon = monitor()
    alpha = PrimeConfig.rtt_ewma_alpha
    mon.record_rtt("r1", 10.0)
    mon.record_rtt("r1", 20.0)
    assert mon.rtt["r1"] == pytest.approx(10.0 + alpha * 10.0)


def test_quantile_ignores_slow_outliers():
    """The bound uses the (f+k+1)-th smallest RTT, so a DoS that inflates
    the current leader's RTT cannot raise the bound."""
    mon = monitor()
    rtts = {"r1": 10.0, "r2": 10.0, "r3": 12.0, "r4": 500.0, "r5": 900.0}
    for peer, rtt in rtts.items():
        mon.record_rtt(peer, rtt)
    assert mon.acceptable_tat() == pytest.approx(3 * 12.0 + 20.0 + 15.0)


def test_tat_sample_measured_on_inclusion():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=100.0)
    mon.note_pre_prepare(1, now=130.0)
    assert mon.current_tat(now=131.0) == pytest.approx(30.0)


def test_inclusion_settles_all_older_summaries():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=100.0)
    mon.note_summary_sent(2, now=110.0)
    mon.note_pre_prepare(2, now=140.0)
    # the oldest pending summary defines the sample
    assert mon.current_tat(now=141.0) == pytest.approx(40.0)
    assert mon.should_suspect(now=141.0) is None  # 40 < bound 65


def test_pending_summary_age_counts_as_ongoing_tat():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=100.0)
    assert mon.current_tat(now=500.0) == pytest.approx(400.0)
    assert mon.should_suspect(now=500.0) is not None


def test_suspect_when_sample_exceeds_bound():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=0.0)
    mon.note_pre_prepare(1, now=200.0)  # 200 > 65
    reason = mon.should_suspect(now=201.0)
    assert reason is not None and "tat" in reason


def test_old_samples_age_out_of_window():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=0.0)
    mon.note_pre_prepare(1, now=200.0)  # violation sample at t=200
    # 4 * tat_check_interval (25) = 100 ms window
    assert mon.should_suspect(now=310.0) is None


def test_reset_for_new_view_clears_samples_keeps_rtts():
    mon = warm(monitor())
    mon.note_summary_sent(1, now=0.0)
    mon.reset_for_new_view()
    assert mon.current_tat(now=1000.0) == 0.0
    assert mon.acceptable_tat() is not None
