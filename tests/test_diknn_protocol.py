"""End-to-end tests of the DIKNN protocol."""

import pytest

from repro.core import (DIKNNConfig, DIKNNProtocol, KNNQuery,
                        near_sector_border, per_run_allocator, sector_of)
from repro.geometry import Vec2
from repro.metrics import post_accuracy, pre_accuracy, true_knn
from repro.routing import GpsrRouter

from tests.conftest import build_mobile_network, build_static_network


def run_one(sim, net, proto, sink, point, k, timeout=15.0, g=0.1):
    query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                     sink_id=sink.id,
                     point=point, k=k, issued_at=sim.now,
                     assurance_gain=g)
    results = []
    proto.issue(sink, query, results.append)
    sim.run(until=sim.now + timeout)
    return results[0] if results else None


def install(net, config=None):
    router = GpsrRouter(net)
    proto = DIKNNProtocol(config)
    proto.install(net, router)
    return proto, router


class TestSectorGeometryHelpers:
    def test_sector_of_quadrants(self):
        q = Vec2(0, 0)
        assert sector_of(Vec2(1, 0.1), q, 4) == 0
        assert sector_of(Vec2(-1, 0.1), q, 4) == 1
        assert sector_of(Vec2(-1, -0.1), q, 4) == 2
        assert sector_of(Vec2(1, -0.1), q, 4) == 3
        assert sector_of(q, q, 4) == 0

    def test_near_sector_border(self):
        q = Vec2(0, 0)
        # Point right on the 0-angle border, far out.
        assert near_sector_border(Vec2(50, 0.1), q, 8, width=17.0)
        # Point on a bisector, far out.
        bisect = Vec2.from_polar(50.0, (2 * 3.14159 / 8) / 2)
        assert not near_sector_border(bisect, q, 8, width=10.0)
        # Single sector has no borders.
        assert not near_sector_border(Vec2(5, 5), q, 1, width=17.0)
        # Near the center everything is near a border.
        assert near_sector_border(Vec2(1, 1), q, 8, width=17.0)


class TestStaticNetwork:
    def test_exact_result_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto, _router = install(net)
        result = run_one(sim, net, proto, net.nodes[0], Vec2(70, 70), k=20)
        assert result is not None
        assert result.sectors_reported == 8
        truth = true_knn(net, Vec2(70, 70), 20)
        assert pre_accuracy(net, result) >= 0.9
        assert set(result.top_k_ids()) <= set(
            true_knn(net, Vec2(70, 70), 60))

    def test_various_k(self):
        sim, net = build_static_network(seed=5)
        proto, _ = install(net)
        for k in (1, 5, 50):
            result = run_one(sim, net, proto, net.nodes[0],
                             Vec2(60, 55), k=k)
            assert result is not None
            assert len(result.top_k_ids()) == k
            assert pre_accuracy(net, result) >= 0.8

    def test_k_exceeding_population_returns_everyone_reachable(self):
        sim, net = build_static_network(n=30, seed=7)
        proto, _ = install(net)
        result = run_one(sim, net, proto, net.nodes[0], Vec2(60, 60),
                         k=60, timeout=30.0)
        assert result is not None
        # A 30-node field at this size is barely connected; the query must
        # still complete and return whatever partition it could reach.
        assert len(result.top_k_ids()) >= 5
        assert len(result.top_k_ids()) <= 30

    def test_sink_far_corner(self):
        sim, net = build_static_network(seed=9)
        proto, _ = install(net)
        corner = min(net.nodes.values(),
                     key=lambda n: n.position().norm())
        result = run_one(sim, net, proto, corner, Vec2(100, 100), k=10)
        assert result is not None
        assert pre_accuracy(net, result) >= 0.8

    def test_latency_is_subsecond_for_small_k(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        result = run_one(sim, net, proto, net.nodes[0], Vec2(60, 60), k=10)
        assert result.latency < 1.5

    def test_sector_count_configurable(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net, DIKNNConfig(sectors=4))
        result = run_one(sim, net, proto, net.nodes[0], Vec2(70, 70), k=20)
        assert result is not None
        assert result.sectors_total == 4
        assert result.sectors_reported == 4

    def test_meta_reports_boundary_and_exploration(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        result = run_one(sim, net, proto, net.nodes[0], Vec2(70, 70), k=20)
        assert result.meta["radius"] >= net.radio.range_m
        assert result.meta["explored"] >= 20
        assert result.meta["initial_radius"] > 0


class TestMobileNetwork:
    def test_completes_under_default_mobility(self):
        sim, net, sink = build_mobile_network(seed=4, max_speed=10.0)
        proto, _ = install(net)
        result = run_one(sim, net, proto, sink, Vec2(65, 60), k=40)
        assert result is not None
        assert pre_accuracy(net, result) >= 0.6
        assert post_accuracy(net, result) >= 0.6

    def test_survives_high_mobility(self):
        sim, net, sink = build_mobile_network(seed=6, max_speed=30.0)
        proto, _ = install(net)
        ok = 0
        for i in range(4):
            result = run_one(sim, net, proto, sink,
                             Vec2(40 + 10 * i, 60), k=20, timeout=10.0)
            if result is not None and pre_accuracy(net, result) >= 0.5:
                ok += 1
        assert ok >= 3

    def test_assurance_gain_expands_boundary(self):
        """Identical networks (same seed), differing only in g: the
        assured run must not end with a smaller boundary."""
        radii = {}
        for g in (0.0, 1.0):
            sim, net, sink = build_mobile_network(seed=8, max_speed=20.0)
            proto, _ = install(net)
            result = run_one(sim, net, proto, sink, Vec2(60, 60), k=30,
                             g=g)
            assert result is not None
            radii[g] = (result.meta["radius"],
                        result.meta["initial_radius"])
        # Same network, same query: the KNNB estimate matches; only the
        # assurance expansion differs.
        assert radii[1.0][1] == pytest.approx(radii[0.0][1])
        assert radii[1.0][0] >= radii[0.0][0] - 1e-6


class TestRendezvousMechanism:
    def test_disabled_rendezvous_never_extends_boundary(self):
        sim, net = build_static_network(n=80, seed=11)  # sparse field
        proto, _ = install(net, DIKNNConfig(rendezvous=False))
        result = run_one(sim, net, proto, net.nodes[0], Vec2(60, 60), k=40,
                         g=0.0)
        assert result is not None
        assert result.meta["radius"] == pytest.approx(
            result.meta["initial_radius"])

    def test_rendezvous_extends_on_sparse_field(self):
        """KNNB underestimates on a sparse irregular field; rendezvous
        must push the boundary out."""
        sim, net = build_static_network(n=80, seed=11)
        base = install(net, DIKNNConfig(rendezvous=True))[0]
        result = run_one(sim, net, base, net.nodes[0], Vec2(60, 60), k=60,
                         g=0.0, timeout=25.0)
        assert result is not None
        assert result.meta["radius"] > result.meta["initial_radius"]

    def test_rendezvous_improves_accuracy_on_sparse_field(self):
        accuracies = {}
        for flag in (False, True):
            sim, net = build_static_network(n=80, seed=13)
            proto, _ = install(net, DIKNNConfig(rendezvous=flag))
            result = run_one(sim, net, proto, net.nodes[0], Vec2(60, 60),
                             k=50, g=0.0, timeout=25.0)
            accuracies[flag] = pre_accuracy(net, result) if result else 0.0
        assert accuracies[True] >= accuracies[False]


class TestQueryBookkeeping:
    def test_duplicate_completion_suppressed(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        calls = []
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(70, 70), k=10, issued_at=sim.now)
        proto.issue(net.nodes[0], query, lambda r: calls.append(r))
        sim.run(until=sim.now + 15)
        assert len(calls) == 1

    def test_abandon_returns_partial(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(70, 70), k=10, issued_at=sim.now)
        proto.issue(net.nodes[0], query, lambda r: None)
        sim.run(until=sim.now + 0.3)  # mid-flight
        partial = proto.abandon(query.query_id)
        assert partial is not None
        assert not partial.completed
        # After abandoning, late sector arrivals are ignored silently.
        sim.run(until=sim.now + 10)

    def test_late_bundle_after_abandon_does_not_mutate_result(self):
        """Regression: a delayed ``diknn.result`` landing after the sink
        timeout-abandoned the query must neither raise nor mutate the
        partial result already handed to the caller."""
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(70, 70), k=10, issued_at=sim.now)
        proto.issue(net.nodes[0], query, lambda r: None)
        # Intercept bundle deliveries so we can replay one late.
        bundles = []
        original = proto._on_result

        def tap(node, inner):
            bundles.append((node, dict(inner)))
            original(node, inner)

        proto.router.on_deliver(proto.KIND_RESULT, tap)
        while not bundles and sim.step():
            pass
        assert bundles
        partial = proto.abandon(query.query_id)
        assert partial is not None
        snapshot = (partial.sectors_reported, len(partial.candidates),
                    dict(partial.meta))
        node, inner = bundles[0]
        original(node, dict(inner))  # the straggler arrives post-abandon
        assert (partial.sectors_reported, len(partial.candidates),
                dict(partial.meta)) == snapshot

    def test_late_bundle_after_completion_does_not_mutate_result(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        bundles = []
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(70, 70), k=10, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        original = proto._on_result

        def tap(node, inner):
            bundles.append((node, dict(inner)))
            original(node, inner)

        proto.router.on_deliver(proto.KIND_RESULT, tap)
        sim.run(until=sim.now + 15)
        assert results and bundles
        delivered = results[0]
        snapshot = (delivered.sectors_reported, len(delivered.candidates))
        node, inner = bundles[0]
        original(node, dict(inner))  # replay after delivery
        assert (delivered.sectors_reported,
                len(delivered.candidates)) == snapshot
        assert len(results) == 1

    def test_concurrent_queries_do_not_interfere(self):
        sim, net = build_static_network(seed=3)
        proto, _ = install(net)
        results = {}
        for i, point in enumerate((Vec2(40, 40), Vec2(80, 80))):
            query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                             sink_id=i,
                             point=point, k=15, issued_at=sim.now)
            proto.issue(net.nodes[i], query,
                        lambda r, tag=i: results.setdefault(tag, r))
        sim.run(until=sim.now + 15)
        assert set(results) == {0, 1}
        for result in results.values():
            assert pre_accuracy(net, result) >= 0.8
