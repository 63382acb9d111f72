"""Unit tests of KPT's internal mechanics (tree timing, orphan flow)."""

import pytest

from repro.baselines import KPTConfig, KPTProtocol
from repro.baselines.base import candidate_from_wire
from repro.core import KNNQuery, per_run_allocator
from repro.geometry import Vec2
from repro.routing import GpsrRouter

from tests.conftest import build_static_network


def installed(net, config=None):
    proto = KPTProtocol(config)
    proto.install(net, GpsrRouter(net))
    return proto


class TestTiming:
    def test_max_depth_scales_with_radius(self):
        sim, net = build_static_network(n=30, seed=3, warm=False)
        proto = installed(net)
        shallow = proto._max_depth(15.0)
        deep = proto._max_depth(60.0)
        assert deep > shallow >= 1

    def test_level_time_scales_with_k(self):
        sim, net = build_static_network(n=30, seed=3, warm=False)
        proto = installed(net)
        assert proto._level_time(100) > proto._level_time(10)

    def test_hold_time_deeper_fires_earlier(self):
        sim, net = build_static_network(n=30, seed=3, warm=False)
        proto = installed(net)
        # Average out the de-sync jitter.
        def mean_hold(depth):
            return sum(proto._hold_time(5, depth, 20)
                       for _ in range(50)) / 50
        assert mean_hold(4) < mean_hold(1) < mean_hold(0)

    def test_hold_time_never_negative(self):
        sim, net = build_static_network(n=30, seed=3, warm=False)
        proto = installed(net)
        # Node deeper than the estimate (void detours) still schedules.
        assert proto._hold_time(3, 10, 20) > 0.0


class TestTreeMembership:
    def test_build_message_joins_in_boundary_nodes(self):
        sim, net = build_static_network(seed=5)
        proto = installed(net)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(60, 60), k=20, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 3)
        members = [key for key in proto._members
                   if key[1] == query.query_id]
        assert len(members) >= 10
        # Every member is inside the boundary (plus slack).
        radius = proto._initial_radius[query.query_id]
        for node_id, _qid in members:
            d = net.nodes[node_id].position().distance_to(Vec2(60, 60))
            assert d <= radius + proto.config.boundary_slack \
                + 15.0  # mobility + build-time drift allowance

    def test_duplicate_home_delivery_ignored(self):
        sim, net = build_static_network(seed=5)
        proto = installed(net)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(60, 60), k=10, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 0.2)
        # Simulate a duplicate delivery of the same routed query.
        home_ctx = proto._roots.get(query.query_id)
        assert home_ctx is not None
        proto._on_query_delivered(net.nodes[home_ctx["node_id"]], {
            "query_id": query.query_id, "k": 10, "g": 0.1,
            "point": (60, 60), "sink_id": 0, "sink_pos": (0, 0),
            "L": {"locs": [], "encs": []}})
        sim.run(until=sim.now + 10)
        assert len(results) == 1


class TestMerge:
    def test_merge_caps_and_orders(self):
        merged = KPTProtocol._merge(
            [(1, 10.0, 0.0, 0.0, 0.0, 0.0)],
            [(2, 1.0, 0.0, 0.0, 0.0, 0.0), (3, 5.0, 0.0, 0.0, 0.0, 0.0)],
            Vec2(0, 0), cap=2)
        ids = [c[0] for c in merged]
        assert ids == [2, 3]

    def test_wire_roundtrip(self):
        cand = candidate_from_wire((7, 1.5, 2.5, 0.3, 42.0, 9.9))
        assert cand.node_id == 7
        assert cand.position == Vec2(1.5, 2.5)
        assert cand.reading == 42.0


class TestConfig:
    def test_custom_config_respected(self):
        config = KPTConfig(level_time_base_s=0.3)
        sim, net = build_static_network(n=30, seed=3, warm=False)
        proto = installed(net, config)
        assert proto._level_time(0) == pytest.approx(0.3)
