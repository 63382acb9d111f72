"""Tests for in-network aggregate queries."""

import pytest

from repro.core import (AggregateQuery, AggregateQueryProtocol,
                        AggregateState, true_aggregate)
from repro.geometry import Rect
from repro.routing import GpsrRouter

from tests.conftest import build_mobile_network, build_static_network


def run_aggregate(sim, net, proto, sink, window, timeout=30.0):
    query = AggregateQuery.make(sim, sink.id, window)
    results = []
    proto.issue(sink, query, results.append)
    sim.run(until=sim.now + timeout)
    return results[0] if results else None


def install(net, **kwargs):
    proto = AggregateQueryProtocol(**kwargs)
    proto.install(net, GpsrRouter(net))
    return proto


class TestAggregateState:
    def test_running_aggregate(self):
        state = AggregateState()
        assert state.mean is None
        for reading in (3.0, 7.0, 5.0):
            state.add(reading)
        assert state.count == 3
        assert state.total == 15.0
        assert state.mean == 5.0
        assert state.minimum == 3.0
        assert state.maximum == 7.0

    def test_wire_roundtrip(self):
        state = AggregateState()
        state.add(1.5)
        state.add(-2.5)
        again = AggregateState.from_wire(state.to_wire())
        assert again.count == 2
        assert again.total == pytest.approx(-1.0)
        assert again.minimum == -2.5
        assert again.maximum == 1.5

    def test_empty_wire_roundtrip(self):
        again = AggregateState.from_wire(AggregateState().to_wire())
        assert again.count == 0
        assert again.minimum is None


class TestTrueAggregate:
    def test_matches_brute_force(self):
        sim, net = build_static_network(n=80, seed=3, warm=False)
        window = Rect(30, 30, 90, 90)
        truth = true_aggregate(net, window)
        inside = [n for n in net.nodes.values()
                  if window.contains(n.position(0.0))]
        assert truth.count == len(inside)
        assert truth.total == pytest.approx(
            sum(n.reading for n in inside))


class TestAggregateProtocol:
    def test_exact_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        window = Rect(40, 40, 80, 80)
        result = run_aggregate(sim, net, proto, net.nodes[0], window)
        assert result is not None
        truth = true_aggregate(net, window)
        assert result.state.count >= truth.count * 0.9
        assert result.state.minimum is not None
        assert result.state.minimum >= truth.minimum
        assert result.state.maximum <= truth.maximum

    def test_constant_size_result(self):
        """The whole point: the result doesn't grow with the region."""
        sizes = {}
        for span in (20.0, 60.0):
            sim, net = build_static_network(seed=5)
            proto = install(net)
            seen = []
            sim.probe.subscribe(
                "trace", lambda ev, m, nid: seen.append(m.size_bytes)
                if ev == "send" and m.kind == "gpsr"
                and m.payload.get("inner_kind") == "agg.result" else None)
            window = Rect(55 - span / 2, 55 - span / 2,
                          55 + span / 2, 55 + span / 2)
            result = run_aggregate(sim, net, proto, net.nodes[0], window,
                                   timeout=40.0)
            assert result is not None
            sizes[span] = max(seen)
        assert sizes[60.0] == sizes[20.0]  # size independent of region

    def test_under_mobility(self):
        sim, net, sink = build_mobile_network(seed=4, max_speed=10.0)
        proto = install(net)
        window = Rect(40, 40, 80, 80)
        result = run_aggregate(sim, net, proto, sink, window)
        assert result is not None
        truth = true_aggregate(net, window, t=result.query.issued_at)
        # Churn during the sweep: the count lands in the right ballpark.
        assert result.state.count >= truth.count * 0.5

    def test_abandon(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        query = AggregateQuery.make(sim, 0, Rect(40, 40, 80, 80))
        proto.issue(net.nodes[0], query, lambda r: pytest.fail("late"))
        partial = proto.abandon(query.query_id)
        assert partial is not None
        sim.run(until=sim.now + 20)  # late result is dropped silently
