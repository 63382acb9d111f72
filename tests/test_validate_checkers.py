"""The runtime invariant checkers: clean runs pass, corruption fails
loudly with a diagnostic naming node/time/invariant."""

from __future__ import annotations

import math

import pytest

from repro.core import DIKNNProtocol
from repro.core.query import KNNQuery, QueryResult
from repro.experiments import SimulationConfig, build_simulation, run_query
from repro.geometry import Vec2
from repro.metrics.outcome import QueryOutcome
from repro.mobility import StaticMobility
from repro.net import Network, SensorNode
from repro.net.mac import _ActiveTx
from repro.net.messages import Message
from repro.sim import Simulator
from repro.validate import (CausalityChecker, InvariantViolation,
                            SectorChecker, ValidationHarness,
                            check_sector_partition,
                            enable_validation, reset_validation,
                            validation_enabled)

CFG = SimulationConfig(n_nodes=50, field_size=(60.0, 60.0), seed=2,
                       max_speed=0.0)


@pytest.fixture
def validated_handle():
    reset_validation()
    enable_validation(True)
    handle = build_simulation(CFG, DIKNNProtocol())
    handle.warm_up()
    yield handle
    reset_validation()


# -- enable/attach plumbing -------------------------------------------------

def test_validation_off_by_default():
    reset_validation()
    assert not validation_enabled()
    handle = build_simulation(CFG, DIKNNProtocol())
    assert handle.validator is None


def test_validator_attaches_when_enabled(validated_handle):
    validator = validated_handle.validator
    assert validator is not None and validator.attached
    names = {c.name for c in validator.checkers}
    assert names == {"event-causality", "energy-conservation",
                     "neighbor-soundness", "mac-sanity", "sector-algebra"}


def test_clean_run_passes_every_checker(validated_handle):
    outcome = run_query(validated_handle, Vec2(30.0, 30.0), k=6,
                        timeout=10.0)
    assert outcome.completed
    summary = validated_handle.validator.summary()
    for name in ("event-causality", "energy-conservation",
                 "neighbor-soundness", "mac-sanity", "sector-algebra"):
        assert summary[name] > 0, f"{name} never actually checked anything"
    assert summary["checkpoints"] > 0
    assert summary["outcomes"] == 1


# -- energy conservation ----------------------------------------------------

def test_corrupted_ledger_detected(validated_handle):
    validated_handle.network.ledger.account(0).tx_j += 0.5
    with pytest.raises(InvariantViolation,
                       match=r"\[energy-conservation\].*node=0") as exc:
        validated_handle.validator.check_now()
    assert exc.value.node == 0


def test_negative_charge_detected(validated_handle):
    (observer,) = validated_handle.sim.probe.charge
    with pytest.raises(InvariantViolation, match="energy-conservation"):
        observer(3, "tx", -1e-3)


def test_beacon_ledger_also_watched(validated_handle):
    validated_handle.network.ledger.account(7, "beacon_charge").rx_j += 0.25
    with pytest.raises(InvariantViolation,
                       match=r"beacon ledger.*node=7|node=7.*beacon"):
        validated_handle.validator.check_now()


# -- neighbor soundness -----------------------------------------------------

def _write_cell(net, hearer, heard, at, position, speed,
                velocity=Vec2(0.0, 0.0)):
    """Write one neighbor-store cell behind the beacon kernel's back."""
    net.flush_beacons()
    table = net._neighbor_table
    table.store.update_cell(table.index[hearer], table.index[heard], at,
                            position.x, position.y, speed,
                            velocity.x, velocity.y)


def test_unbacked_neighbor_entry_detected(validated_handle):
    net = validated_handle.network
    node = net.nodes[0]
    here = node.position()
    # Static field: a node out of range after warm-up never beaconed to 0.
    stranger = max((n for n in net.nodes.values()
                    if n.id not in node.neighbor_table),
                   key=lambda n: n.position().distance_to(here))
    assert stranger.position().distance_to(here) > net.radio.range_m
    _write_cell(net, node.id, stranger.id, validated_handle.sim.now,
                stranger.position(), 0.0)
    with pytest.raises(InvariantViolation,
                       match="neighbor-soundness.*no delivered beacon"):
        validated_handle.validator.check_now()


def test_future_beacon_timestamp_detected(validated_handle):
    node = validated_handle.network.nodes[1]
    assert node.neighbor_table, "warm-up should have filled tables"
    nbr_id, entry = next(iter(node.neighbor_table.items()))
    _write_cell(validated_handle.network, node.id, nbr_id,
                validated_handle.sim.now + 100.0, entry.beacon_position,
                entry.speed, velocity=entry.velocity)
    with pytest.raises(InvariantViolation,
                       match="neighbor-soundness.*future"):
        validated_handle.validator.check_now()


# -- MAC sanity -------------------------------------------------------------

def test_self_delivery_detected(validated_handle):
    msg = Message(kind="x", src=5, dst=5, size_bytes=10)
    with pytest.raises(InvariantViolation,
                       match="mac-sanity.*self-delivery"):
        for fn in validated_handle.sim.probe.trace:
            fn("deliver", msg, 5)


def test_missstamped_send_detected(validated_handle):
    msg = Message(kind="x", src=5, dst=6, size_bytes=10)
    with pytest.raises(InvariantViolation, match="mac-sanity"):
        for fn in validated_handle.sim.probe.trace:
            fn("send", msg, 4)


def test_undrained_airtime_detected():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_node(SensorNode(0, StaticMobility(Vec2(0.0, 0.0))))
    harness = ValidationHarness()
    harness.attach(sim, net)
    net.mac._active.append(
        _ActiveTx(start=0.0, end=999.0, pos=Vec2(0.0, 0.0), sender=0))
    assert sim.pending_events == 0
    with pytest.raises(InvariantViolation,
                       match="mac-sanity.*did not drain"):
        harness.finalize()
    harness.detach()


def test_undrained_sender_queue_detected():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_node(SensorNode(0, StaticMobility(Vec2(0.0, 0.0))))
    harness = ValidationHarness()
    harness.attach(sim, net)
    net.mac._sender_busy_until[0] = 999.0
    with pytest.raises(InvariantViolation,
                       match="mac-sanity.*busy"):
        harness.finalize()
    harness.detach()


def test_inflight_frames_tolerated_while_events_pending():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_node(SensorNode(0, StaticMobility(Vec2(0.0, 0.0))))
    harness = ValidationHarness()
    harness.attach(sim, net)
    net.mac._active.append(
        _ActiveTx(start=0.0, end=999.0, pos=Vec2(0.0, 0.0), sender=0))
    sim.schedule_in(1.0, lambda: None)
    harness.finalize()  # queue not drained: no verdict, no violation
    harness.detach()


# -- event causality --------------------------------------------------------

def test_out_of_order_event_detected():
    checker = CausalityChecker()
    checker._last_time = 5.0
    with pytest.raises(InvariantViolation,
                       match="event-causality.*causality broken"):
        checker.on_event(4.0, None)


def test_non_finite_event_time_detected():
    checker = CausalityChecker()
    with pytest.raises(InvariantViolation, match="event-causality"):
        checker.on_event(float("nan"), None)


# -- sector algebra ---------------------------------------------------------

@pytest.mark.parametrize("sectors", list(range(1, 13)))
def test_sector_partition_holds(sectors):
    assert check_sector_partition(Vec2(10.0, 10.0), sectors) > 0


def test_sector_partition_rejects_bad_count():
    with pytest.raises(InvariantViolation):
        check_sector_partition(Vec2(0.0, 0.0), 0)


def _result_handler(handle):
    """The result-delivery handler as the router sees it: the protocol's
    own, which the sector checker observes through the probe."""
    return handle.router._delivery[DIKNNProtocol.KIND_RESULT]


def _bundle(query_id, sectors, cands=(), explored=3.0):
    return {"query_id": query_id, "sectors": list(sectors),
            "cands": list(cands), "voids": 0.0, "explored": explored,
            "radius": 5.0, "ts": 0.0}


def test_duplicate_bundle_suppression_regression(validated_handle):
    """Breaking the sink's duplicate-bundle suppression must trip the
    checker: clear ``_sectors_seen`` between two deliveries of the same
    bundle so the protocol double-counts exploration."""
    protocol = validated_handle.protocol
    query = KNNQuery(query_id=7777, sink_id=validated_handle.sink.id,
                     point=Vec2(30.0, 30.0), k=4,
                     issued_at=validated_handle.sim.now)
    protocol._register_query(query, protocol.config.sectors,
                             lambda result: None)
    deliver = _result_handler(validated_handle)
    deliver(validated_handle.sink, _bundle(7777, [0]))
    protocol._sectors_seen[7777].clear()   # sabotage the suppression
    with pytest.raises(InvariantViolation,
                       match="sector-algebra.*double-count") as exc:
        deliver(validated_handle.sink, _bundle(7777, [0]))
    assert exc.value.query_id == 7777


def test_duplicate_candidates_in_bundle_detected(validated_handle):
    protocol = validated_handle.protocol
    query = KNNQuery(query_id=7778, sink_id=validated_handle.sink.id,
                     point=Vec2(30.0, 30.0), k=4,
                     issued_at=validated_handle.sim.now)
    protocol._register_query(query, protocol.config.sectors,
                             lambda result: None)
    cand = (1, 1.0, 2.0, 0.0, 5.0, 0.0)
    with pytest.raises(InvariantViolation,
                       match="sector-algebra.*duplicate candidate"):
        _result_handler(validated_handle)(
            validated_handle.sink, _bundle(7778, [1], cands=[cand, cand]))


def test_out_of_range_sector_detected(validated_handle):
    protocol = validated_handle.protocol
    query = KNNQuery(query_id=7779, sink_id=validated_handle.sink.id,
                     point=Vec2(30.0, 30.0), k=4,
                     issued_at=validated_handle.sim.now)
    protocol._register_query(query, protocol.config.sectors,
                             lambda result: None)
    with pytest.raises(InvariantViolation,
                       match="sector-algebra.*outside"):
        _result_handler(validated_handle)(
            validated_handle.sink,
            _bundle(7779, [protocol.config.sectors + 3]))


def test_duplicate_bundle_correctly_suppressed_passes(validated_handle):
    """The intact protocol delivers the same bundle twice without a
    violation — the checker flags broken suppression, not retries."""
    protocol = validated_handle.protocol
    query = KNNQuery(query_id=7780, sink_id=validated_handle.sink.id,
                     point=Vec2(30.0, 30.0), k=4,
                     issued_at=validated_handle.sim.now)
    protocol._register_query(query, protocol.config.sectors,
                             lambda result: None)
    deliver = _result_handler(validated_handle)
    deliver(validated_handle.sink, _bundle(7780, [2]))
    deliver(validated_handle.sink, _bundle(7780, [2]))  # legitimate retry
    result = protocol._result_of(7780)
    assert result.sectors_reported == 1
    assert result.meta["explored"] == 3.0


def test_harnesses_detached_first_attached_first_leave_nothing_behind():
    """Two harnesses on one handle, detached in attach order: the
    protocol keeps its own ``issue`` and result handler, and neither
    detached sector checker sees a later query, while a live one does."""
    reset_validation()
    handle = build_simulation(SimulationConfig(n_nodes=80, seed=3),
                              DIKNNProtocol())
    protocol = handle.protocol
    first, second = ValidationHarness(), ValidationHarness()
    first.attach_handle(handle)
    second.attach_handle(handle)
    first.detach()
    second.detach()
    assert protocol.issue.__func__ is DIKNNProtocol.issue
    assert _result_handler(handle) == protocol._on_result
    live = ValidationHarness(checkers=[SectorChecker])
    live.attach_handle(handle)
    handle.warm_up()
    outcome = run_query(handle, Vec2(60.0, 60.0), k=10)
    assert outcome.completed
    detached = [c for h in (first, second) for c in h.checkers
                if isinstance(c, SectorChecker)]
    assert [c.checks_run for c in detached] == [0, 0]
    assert live.checkers[0].checks_run > 0


# -- differential outcome cross-check --------------------------------------

def test_out_of_range_accuracy_detected(validated_handle):
    outcome = QueryOutcome(query_id=1, k=4, completed=True, latency=0.1,
                           pre_accuracy=1.5, post_accuracy=0.5,
                           energy_j=0.0, meta={})
    with pytest.raises(InvariantViolation,
                       match=r"differential.*outside \[0, 1\]"):
        validated_handle.validator.observe_outcome(None, outcome)


def test_misscored_outcome_detected(validated_handle):
    query = KNNQuery(query_id=42, sink_id=validated_handle.sink.id,
                     point=Vec2(30.0, 30.0), k=4,
                     issued_at=validated_handle.sim.now)
    result = QueryResult(query=query, sectors_total=8)
    result.completed_at = validated_handle.sim.now
    outcome = QueryOutcome(query_id=42, k=4, completed=True, latency=0.1,
                           pre_accuracy=0.9, post_accuracy=0.9,
                           energy_j=0.0, meta={})
    # result holds no candidates, so the oracle re-score is 0.0 — the
    # claimed 0.9 accuracies must be rejected.
    with pytest.raises(InvariantViolation,
                       match="differential.*disagrees"):
        validated_handle.validator.observe_outcome(result, outcome)


def test_violation_message_names_the_scene():
    err = InvariantViolation("energy-conservation", "books diverged",
                             node=17, time=3.25, query_id=4)
    text = str(err)
    assert "[energy-conservation]" in text
    assert "node=17" in text and "t=3.250000" in text and "query=4" in text
    assert math.isclose(err.time, 3.25)
