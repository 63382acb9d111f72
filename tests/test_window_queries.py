"""Tests for the itinerary window-query protocol."""

import pytest

from repro.core import (WindowQuery, WindowQueryProtocol,
                        build_serpentine_itinerary, nodes_in_window,
                        window_recall)
from repro.geometry import Rect, Vec2, segment_point_distance
from repro.routing import GpsrRouter
from repro.sim import Simulator

from tests.conftest import build_mobile_network, build_static_network


def run_window(sim, net, proto, sink, window, timeout=25.0):
    query = WindowQuery.make(sim, sink.id, window)
    results = []
    proto.issue(sink, query, results.append)
    sim.run(until=sim.now + timeout)
    return results[0] if results else None


def install(net, **kwargs):
    proto = WindowQueryProtocol(**kwargs)
    proto.install(net, GpsrRouter(net))
    return proto


class TestSerpentine:
    def test_waypoints_inside_window_band(self):
        window = Rect(10, 10, 90, 60)
        wps = build_serpentine_itinerary(window, width=17.0, spacing=16.0)
        for p in wps:
            assert window.x_min - 1e-9 <= p.x <= window.x_max + 1e-9
            assert window.y_min <= p.y <= window.y_max + 1e-9

    def test_full_coverage_of_window(self):
        import random
        window = Rect(10, 10, 90, 60)
        width = 17.0
        wps = build_serpentine_itinerary(window, width=width, spacing=8.0)
        rng = random.Random(5)
        for _ in range(500):
            p = Vec2(rng.uniform(10, 90), rng.uniform(10, 60))
            d = min(segment_point_distance(wps[i], wps[i + 1], p)
                    for i in range(len(wps) - 1))
            assert d <= width / 2.0 + 1e-6

    def test_strip_count(self):
        window = Rect(0, 0, 100, 50)
        wps = build_serpentine_itinerary(window, width=17.0, spacing=50.0)
        ys = sorted({round(p.y, 6) for p in wps})
        # ceil(50 / 17) = 3 strips.
        assert len(ys) == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_serpentine_itinerary(Rect(0, 0, 10, 10), width=0.0,
                                       spacing=5.0)


class TestWindowProtocol:
    def test_perfect_recall_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        window = Rect(40, 40, 80, 80)
        result = run_window(sim, net, proto, net.nodes[0], window)
        assert result is not None
        assert window_recall(net, result) >= 0.95
        # No false positives: every reported node truly was in (or within
        # a beacon-staleness sliver of) the window.
        truth = set(nodes_in_window(net, window))
        extras = set(result.node_ids()) - truth
        assert len(extras) <= 2

    def test_small_window(self):
        sim, net = build_static_network(seed=5)
        proto = install(net)
        window = Rect(55, 55, 70, 70)
        result = run_window(sim, net, proto, net.nodes[0], window)
        assert result is not None
        assert window_recall(net, result) >= 0.9

    def test_empty_window(self):
        sim, net = build_static_network(n=40, seed=7)
        proto = install(net)
        # Find an empty cell to query.
        cells = Rect.from_size(115, 115).grid_cells(8, 8)
        positions = [n.position() for n in net.nodes.values()]
        empty = min(cells, key=lambda c: sum(
            1 for p in positions if c.contains(p)))
        result = run_window(sim, net, proto, net.nodes[0], empty)
        if result is not None:
            assert window_recall(net, result) == pytest.approx(
                1.0 if not nodes_in_window(net, empty) else
                window_recall(net, result))

    def test_under_mobility(self):
        sim, net, sink = build_mobile_network(seed=4, max_speed=10.0)
        proto = install(net)
        window = Rect(40, 40, 80, 80)
        result = run_window(sim, net, proto, sink, window)
        assert result is not None
        # Nodes move during the sweep; recall at *completion* time stays
        # decent, early-swept strips may have churned.
        assert window_recall(net, result,
                             t=result.query.issued_at) >= 0.5

    def test_max_report_caps_result(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, max_report=10)
        window = Rect(20, 20, 100, 100)
        result = run_window(sim, net, proto, net.nodes[0], window,
                            timeout=40.0)
        assert result is not None
        assert len(result.candidates) <= 10 + 5  # cap applies per token

    def test_window_ids_unique(self):
        sim = Simulator(seed=1)
        a = WindowQuery.make(sim, 0, Rect(0, 0, 1, 1))
        b = WindowQuery.make(sim, 0, Rect(0, 0, 1, 1))
        assert a.query_id != b.query_id
