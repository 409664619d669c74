"""The Modbus master (repro.scada.poller): its contract, and the
equivalence the three proxies that mount it rest on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.traditional import TraditionalProxy
from repro.core import RtuProxy
from repro.crypto import FastCrypto
from repro.fleet.deploy import RegionProxy
from repro.scada import (
    DeviceBinding,
    ExceptionResponse,
    ModbusPoller,
    ReadCoilsResponse,
    ReadResponse,
    RegionShard,
    RtuDevice,
    build_radial_field,
    encode_frame,
)
from repro.scada.modbus import FUNC_READ_HOLDING
from repro.simnet import LinkSpec, Network, Process, Simulator


class Master(Process):
    """A bare poller owner: every payload goes to the poller."""

    def __init__(self, simulator, network, bindings, timeout_ms=50.0):
        super().__init__("master", simulator, network)
        self.readings = []
        self.unhandled = []
        self.poller = ModbusPoller(
            self,
            lambda b, m, c: self.readings.append((b.substation, b.poll_seq, m, c)),
            bindings, timeout_ms,
        )

    def on_message(self, src, payload):
        if not self.poller.on_payload(payload):
            self.unhandled.append(payload)


def phase(poller, binding):
    """Where the binding's poll stands: idle, await_regs or await_coils."""
    transaction = poller.transactions.get(binding.substation)
    if transaction is None:
        return "idle"
    return "await_regs" if transaction.registers is None else "await_coils"


def build(num_substations=3):
    sim = Simulator(seed=4)
    net = Network(sim, LinkSpec(latency_ms=0.2))
    grid, rtus, bindings = build_radial_field(sim, net, num_substations, seed=4)
    master = Master(sim, net, bindings)
    sent = []
    net.add_filter(
        lambda src, dst, payload: (
            sent.append(dst) if src == "master" else None, payload
        )[1]
    )
    return sim, grid, rtus, master, sent


def frame(message):
    return RtuDevice.wrap(encode_frame(message))


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------

def test_poll_all_reads_registers_then_coils_of_every_device():
    sim, grid, rtus, master, sent = build()
    master.poller.poll_all()
    sim.run()
    assert [r[:2] for r in master.readings] == [(s, 1) for s in sorted(rtus)]
    substation, _, measurements, breakers = master.readings[0]
    assert [key for key, _ in measurements] == [
        "voltage_kv", "flow_mw", "frequency_hz", "energized",
    ]
    assert dict(breakers) == grid.breaker_states(substation)
    assert len(sent) == 2 * len(rtus)  # one registers + one coils request each
    assert master.unhandled == []


def test_one_transaction_in_flight_and_timeout_counted_once():
    sim, grid, rtus, master, sent = build()
    first = sorted(rtus)[0]
    binding = master.poller.devices[first]
    rtus[first].crash()
    master.poller.poll(binding)
    sim.run_for(30.0)
    master.poller.poll(binding)  # still inside the 50 ms timeout: guarded
    assert sent == [binding.device_name]
    assert master.poller.polls_timed_out == 0
    sim.run_for(30.0)
    master.poller.poll(binding)  # timed out: counted, and polled again
    assert sent == [binding.device_name] * 2
    assert master.poller.polls_timed_out == 1
    rtus[first].recover()  # in time to answer the second request
    sim.run()
    assert master.poller.polls_timed_out == 1
    assert master.readings == [(first, 1, *master.readings[0][2:])]


def test_a_field_link_slower_than_the_timeout_still_completes_polls():
    """Every frame takes 45 ms each way, so no transaction is answered
    within the 50 ms timeout. The transaction in flight is sent again and
    its late answer completes it; restarting the whole poll at each tick
    would throw away every registers answer and finish none."""
    sim = Simulator(seed=4)
    net = Network(sim, LinkSpec(latency_ms=45.0))
    grid, rtus, bindings = build_radial_field(sim, net, 2, seed=4)
    master = Master(sim, net, bindings)
    master.every(150.0, master.poller.poll_all)
    sim.run_for(3000.0)
    assert master.poller.polls_timed_out > 0
    assert min(b.poll_seq for b in master.poller.devices.values()) >= 9


def test_responses_that_match_no_transaction_are_ignored():
    sim, grid, rtus, master, sent = build()
    binding = master.poller.devices[sorted(rtus)[0]]
    late = frame(ReadResponse(binding.unit_id, (1, 2, 3, 4)))
    assert master.poller.on_payload(late) is True  # a field frame, consumed
    assert phase(master.poller, binding) == "idle" and sent == []
    rtus[binding.substation].crash()
    master.poller.poll(binding)
    coils = frame(ReadCoilsResponse(binding.unit_id, (True,) * len(binding.coil_ids)))
    assert master.poller.on_payload(coils) is True
    assert phase(master.poller, binding) == "await_regs"
    assert binding.poll_seq == 0 and master.readings == []


def test_garbage_from_the_field_never_raises_and_never_advances():
    sim, grid, rtus, master, sent = build()
    binding = master.poller.devices[sorted(rtus)[0]]
    rtus[binding.substation].crash()
    master.poller.poll(binding)
    good = encode_frame(ReadResponse(binding.unit_id, (1, 2, 3, 4)))
    corrupted = bytes([good[0] ^ 0xFF]) + good[1:]
    for payload in (
        frame(ReadResponse(99, (1, 2, 3, 4))),                       # unknown unit
        RtuDevice.wrap(corrupted),                                   # bad CRC
        RtuDevice.wrap(b""),                                         # too short
        frame(ExceptionResponse(binding.unit_id, FUNC_READ_HOLDING, 2)),
    ):
        assert master.poller.on_payload(payload) is True
    assert phase(master.poller, binding) == "await_regs"
    assert binding.poll_seq == 0 and master.readings == []
    assert len(sent) == 1  # nothing but the original request went out
    assert master.poller.on_payload("not a field frame") is False


def test_write_coil_operates_only_breakers_it_fronts():
    sim, grid, rtus, master, sent = build()
    substation = sorted(rtus)[1]
    breaker_id = sorted(grid.substations[substation].breakers)[0]
    assert master.poller.write_coil("nowhere", breaker_id, False) is False
    assert master.poller.write_coil(substation, "no-such-breaker", False) is False
    assert sent == [] and master.poller.writes_confirmed == 0
    assert master.poller.write_coil(substation, breaker_id, False) is True
    sim.run()
    assert grid.breaker_closed(substation, breaker_id) is False
    assert master.poller.writes_confirmed == 1


@pytest.mark.parametrize("make_proxy", ["classic", "traditional"])
def test_a_recovered_proxy_forgets_transactions_but_not_poll_seq(make_proxy):
    sim = Simulator(seed=4)
    net = Network(sim, LinkSpec(latency_ms=0.2))
    grid, rtus, bindings = build_radial_field(sim, net, 3, seed=4)
    proxy = {"classic": _classic, "traditional": _traditional}[make_proxy](
        sim, net, None, bindings
    )
    readings = []
    proxy.poller.on_reading = lambda b, m, c: readings.append((b.substation, b.poll_seq))
    proxy.poller.poll_all()
    sim.run()
    binding = proxy.poller.devices[sorted(rtus)[0]]
    rtus[binding.substation].crash()
    proxy.poller.poll(binding)
    assert phase(proxy.poller, binding) == "await_regs"
    proxy.crash()
    proxy.recover()
    assert phase(proxy.poller, binding) == "idle"
    assert binding.poll_seq == 1
    rtus[binding.substation].recover()
    proxy.poller.poll(binding)  # not guarded, not a timeout
    sim.run()
    assert proxy.poller.polls_timed_out == 0
    assert readings[-1] == (binding.substation, 2)


# ----------------------------------------------------------------------
# The three proxies hand over the same readings
# ----------------------------------------------------------------------

QUIET_LINK = LinkSpec(latency_ms=0.3, jitter_ms=0.0)


def _readings_of(make_proxy, seed, devices, run_ms=1050.0):
    """Run one proxy class over a star field built from ``seed`` and
    return what its poller handed to ``on_reading``.  Links carry no
    jitter, so frames reach the devices in the order they were sent and
    the grid's measurement noise is drawn in the same order everywhere."""
    sim = Simulator(seed=seed)
    net = Network(sim, QUIET_LINK)
    shard = RegionShard(
        "r", seed=seed, poll_intervals_ms=(100.0,), base_tick_ms=100.0
    )
    bindings = []
    for index in range(devices):
        slot = shard.add_slot(f"r/s{index}", "rtu", 0, load_mw=5.0 + index)
        device = shard.materialize(slot, sim, net, "proxy")
        net.set_link("proxy", device.name, QUIET_LINK)
        bindings.append(DeviceBinding(
            slot.substation, device.name, slot.unit_id, slot.coil_ids
        ))
    proxy = make_proxy(sim, net, shard, bindings)
    seen = []
    proxy.poller.on_reading = lambda binding, measurements, breakers: seen.append(
        (binding.substation, binding.poll_seq, measurements, breakers)
    )
    # halfway through, open the first device's feeder breaker
    sim.schedule_at(550.0, lambda: proxy.poller.write_coil(
        bindings[0].substation, bindings[0].coil_ids[0], False
    ))
    proxy.start()
    sim.run_until(run_ms)
    return seen


def _classic(sim, net, shard, bindings):
    return RtuProxy("proxy", sim, net, FastCrypto(seed="p"), ["replica:0"], bindings)


def _fleet(sim, net, shard, bindings):
    return RegionProxy("proxy", sim, net, FastCrypto(seed="p"), ["replica:0"], shard)


def _traditional(sim, net, shard, bindings):
    return TraditionalProxy("proxy", sim, net, "token", ["master:0"], bindings)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       devices=st.integers(min_value=1, max_value=5))
def test_classic_fleet_and_traditional_proxies_hand_over_the_same_readings(
    seed, devices
):
    classic = _readings_of(_classic, seed, devices)
    assert len(classic) == 10 * devices
    # the opened feeder shows up in the readings that follow it
    first = [r for r in classic if r[0] == "r/s0"]
    assert [dict(r[3]).popitem()[1] for r in first] == [True] * 5 + [False] * 5
    assert _readings_of(_fleet, seed, devices) == classic
    assert _readings_of(_traditional, seed, devices) == classic
