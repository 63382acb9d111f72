"""The per-simulation probe: symmetric subscribe/unsubscribe, detach in
any order, and observation that never changes what a run does."""

from __future__ import annotations

import itertools

import pytest

from repro import DIKNNProtocol, SimulationConfig, Vec2, build_simulation
from repro.core.query import KNNQuery
from repro.experiments.runner import run_query
from repro.net.beacons import BatchedBeaconEngine
from repro.obs import FlightRecorder, Telemetry
from repro.obs.events import TraceLog
from repro.sim import Probe
from repro.sim.probe import CHANNELS
from repro.validate.golden import (GOLDEN_SPECS, _make_protocol, run_golden,
                                   trace_digest)
from repro.validate.harness import ValidationHarness


def _handle(seed: int = 3, n_nodes: int = 80):
    return build_simulation(SimulationConfig(n_nodes=n_nodes, seed=seed),
                            DIKNNProtocol())


def _counter(telemetry: Telemetry, name: str) -> float:
    return telemetry.metrics.counter(name).value


def active(probe: Probe) -> list:
    """Names of the probe's channels that have subscribers."""
    return [channel for channel in CHANNELS if getattr(probe, channel)]


# -- the Probe itself --------------------------------------------------------

class TestProbe:
    def test_channels_start_empty(self):
        probe = Probe()
        assert active(probe) == []
        assert all(getattr(probe, c) == () for c in CHANNELS)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown probe channel"):
            Probe().subscribe("kernal", print)

    def test_unsubscribe_removes_one_registration(self):
        probe = Probe()
        probe.subscribe("trace", print)
        probe.subscribe("trace", repr)
        probe.subscribe("trace", print)
        probe.unsubscribe("trace", print)
        assert probe.trace == (repr, print)
        probe.unsubscribe("trace", len)      # never subscribed: no-op
        assert probe.trace == (repr, print)

    def test_fresh_bound_method_matches(self):
        log: list = []
        probe = Probe()
        probe.subscribe("beacon_batch", log.append)
        probe.unsubscribe("beacon_batch", log.append)
        assert probe.beacon_batch == ()


# -- detach order ------------------------------------------------------------

@pytest.mark.parametrize("attach_validation_first", [True, False])
def test_detaching_validation_keeps_telemetry_energy_counters(
        attach_validation_first):
    handle = _handle()
    harness = ValidationHarness()
    telemetry = Telemetry(profile_kernel=False, trace_events=False)
    for sub in ((harness, telemetry) if attach_validation_first
                else (telemetry, harness)):
        sub.attach_handle(handle)
    handle.warm_up()
    run_query(handle, Vec2(60, 60), k=10)
    tx0 = _counter(telemetry, "energy.tx_j")
    rx0 = _counter(telemetry, "energy.rx_j")
    assert tx0 > 0.0 and rx0 > 0.0
    harness.detach()
    run_query(handle, Vec2(60, 60), k=10)
    assert _counter(telemetry, "energy.tx_j") > tx0
    assert _counter(telemetry, "energy.rx_j") > rx0
    telemetry.detach()


def test_detaching_telemetry_keeps_validation_energy_shadow():
    handle = _handle()
    harness = ValidationHarness()
    harness.attach_handle(handle)
    telemetry = Telemetry(profile_kernel=False, trace_events=False)
    telemetry.attach_handle(handle)
    handle.warm_up()
    run_query(handle, Vec2(60, 60), k=10)
    telemetry.detach()
    energy = next(c for c in harness.checkers
                  if c.name == "energy-conservation")
    before = energy.checks_run
    run_query(handle, Vec2(60, 60), k=10)
    harness.check_now()      # shadow accounts still balance
    assert energy.checks_run > before
    harness.detach()


def test_itinerary_builds_stay_with_their_simulation():
    first = _handle(seed=3)
    first_obs = Telemetry(profile_kernel=False, trace_events=False)
    first_obs.attach_handle(first)
    first.warm_up()
    run_query(first, Vec2(60, 60), k=10)
    builds = _counter(first_obs, "itinerary.builds")
    assert builds > 0

    second = _handle(seed=5)
    second_obs = Telemetry(profile_kernel=False, trace_events=False)
    second_obs.attach_handle(second)
    second.warm_up()
    run_query(first, Vec2(60, 60), k=10)
    assert _counter(second_obs, "itinerary.builds") == 0
    assert _counter(first_obs, "itinerary.builds") > builds
    builds = _counter(first_obs, "itinerary.builds")

    run_query(second, Vec2(60, 60), k=10)
    assert _counter(second_obs, "itinerary.builds") > 0
    assert _counter(first_obs, "itinerary.builds") == builds
    second_builds = _counter(second_obs, "itinerary.builds")

    second_obs.detach()
    run_query(first, Vec2(60, 60), k=10)
    assert _counter(first_obs, "itinerary.builds") > builds
    assert _counter(second_obs, "itinerary.builds") == second_builds
    first_obs.detach()


# -- every attach/detach order ----------------------------------------------

def _attach_validation(handle):
    harness = ValidationHarness()
    harness.attach_handle(handle)
    return harness.detach


def _attach_full_telemetry(handle):
    telemetry = Telemetry()
    telemetry.attach_handle(handle)
    return telemetry.detach


def _attach_sampled_telemetry(handle):
    telemetry = Telemetry(profile_kernel=False, trace_events=False,
                          sample_every_n=10)
    telemetry.attach_handle(handle)
    return telemetry.detach


def _attach_flight(handle):
    return FlightRecorder().install(handle.sim,
                                    mac=handle.network.mac).uninstall


def _attach_trace_log(handle):
    return TraceLog(handle.network).detach


SUBSCRIBERS = (_attach_validation, _attach_full_telemetry,
               _attach_sampled_telemetry, _attach_flight, _attach_trace_log)
ORDERS = list(itertools.permutations(range(len(SUBSCRIBERS))))


def _cycle(handle, attach_order, detach_order) -> None:
    detach = {i: SUBSCRIBERS[i](handle) for i in attach_order}
    assert active(handle.sim.probe) != []
    for i in detach_order:
        detach[i]()
    assert active(handle.sim.probe) == []


def test_every_order_leaves_the_probe_empty():
    """All 120 attach orders, each detached in the same and in the
    reverse order, plus all 120 detach orders of one attach order."""
    handle = _handle(n_nodes=30)
    for order in ORDERS:
        _cycle(handle, order, order)
        _cycle(handle, order, order[::-1])
    for order in ORDERS:
        _cycle(handle, ORDERS[0], order)


def _golden_digest(spec, attach_order, detach_order) -> str:
    """``run_golden`` with the subscribers attached in ``attach_order``
    before warm-up and detached in ``detach_order`` halfway through the
    query window."""
    config = SimulationConfig(
        n_nodes=spec.n_nodes, field_size=spec.field_size,
        max_speed=spec.max_speed, seed=spec.seed,
        crash_rate=spec.crash_rate, node_downtime_s=spec.node_downtime_s)
    handle = build_simulation(config, _make_protocol(spec.protocol))
    trace = TraceLog(handle.network)
    detach = {i: SUBSCRIBERS[i](handle) for i in attach_order}
    handle.warm_up()
    query = KNNQuery(query_id=1, sink_id=handle.sink.id,
                     point=Vec2(*spec.point), k=spec.k,
                     issued_at=handle.sim.now)
    handle.protocol.issue(handle.sink, query, lambda _result: None)
    end = handle.sim.now + spec.timeout
    handle.sim.run(until=handle.sim.now + spec.timeout / 2)
    for i in detach_order:
        detach[i]()
    assert active(handle.sim.probe) == ["trace"]
    handle.sim.run(until=end)
    return trace_digest(trace.entries)


@pytest.mark.parametrize("name", ["rwp-diknn", "static-diknn-faults"])
@pytest.mark.parametrize("shift", range(len(SUBSCRIBERS)))
def test_any_order_gives_the_bare_golden_digest(name, shift):
    """Each subscriber attaches first once (the five rotations); the
    detach order is the attach order for even shifts, reversed for odd."""
    spec = next(s for s in GOLDEN_SPECS if s.name == name)
    order = tuple(range(shift, len(SUBSCRIBERS))) + tuple(range(shift))
    detach_order = order if shift % 2 == 0 else order[::-1]
    assert _golden_digest(spec, order, detach_order) \
        == run_golden(spec).digest


# -- the beacon-energy guard -------------------------------------------------

def _bulk_energy_calls(monkeypatch, attach) -> int:
    calls = []
    bulk = BatchedBeaconEngine._bulk_energy

    def spy(engine, *args):
        calls.append(1)
        return bulk(engine, *args)
    monkeypatch.setattr(BatchedBeaconEngine, "_bulk_energy", spy)
    handle = _handle(n_nodes=60)
    attach(handle)
    handle.warm_up()
    run_query(handle, Vec2(60, 60), k=10)
    return len(calls)


def test_sampled_telemetry_keeps_the_bulk_beacon_energy_path(monkeypatch):
    assert _bulk_energy_calls(monkeypatch, _attach_sampled_telemetry) > 0


def test_beacon_ledger_subscriber_takes_the_per_charge_path(monkeypatch):
    def watch_beacon_ledger(handle):
        handle.sim.probe.subscribe("beacon_charge",
                                   lambda node_id, kind, cost: None)
    assert _bulk_energy_calls(monkeypatch, watch_beacon_ledger) == 0
