"""Tests for the oracle, accuracy metrics, and outcome aggregation."""

import math

import pytest

from repro.core import Candidate, KNNQuery, QueryResult, per_run_allocator
from repro.geometry import Vec2
from repro.metrics import (QueryOutcome, RunMetrics, accuracy_against,
                           mean_ignoring_nan, post_accuracy, pre_accuracy,
                           true_knn)

from tests.conftest import build_mobile_network, build_static_network


class TestOracle:
    def test_matches_brute_force_static(self):
        sim, net = build_static_network(n=100, warm=False)
        q = Vec2(60, 60)
        got = true_knn(net, q, 10)
        want = sorted(net.nodes,
                      key=lambda nid: (net.nodes[nid].position(0.0)
                                       .distance_sq_to(q), nid))[:10]
        assert got == want

    def test_k_clamped_to_population(self):
        sim, net = build_static_network(n=5, warm=False)
        assert len(true_knn(net, Vec2(0, 0), 50)) == 5

    def test_exclusion(self):
        sim, net = build_static_network(n=20, warm=False)
        q = Vec2(60, 60)
        full = true_knn(net, q, 5)
        reduced = true_knn(net, q, 5, exclude={full[0]})
        assert full[0] not in reduced

    def test_historical_time_is_exact(self):
        sim, net, sink = build_mobile_network(n=50, seed=4)
        q = Vec2(60, 60)
        early = true_knn(net, q, 5, t=0.5)
        sim.run(until=sim.now + 20)
        again = true_knn(net, q, 5, t=0.5)
        assert early == again


class TestAccuracy:
    def test_accuracy_against(self):
        assert accuracy_against([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
        assert accuracy_against([], [1]) == 0.0
        assert accuracy_against([1], []) == 0.0
        assert accuracy_against([1, 1, 2], [1, 2]) == 1.0

    def make_result(self, net, ids, k, issued=1.0, completed=2.0):
        q = KNNQuery(query_id=per_run_allocator(net.sim).allocate(), sink_id=0,
                     point=Vec2(60, 60), k=k, issued_at=issued)
        result = QueryResult(query=q)
        for nid in ids:
            pos = net.nodes[nid].position(completed)
            result.candidates.append(Candidate(nid, pos, 0.0, 0.0,
                                               completed))
        result.completed_at = completed
        return result

    def test_pre_and_post_perfect_on_static(self):
        sim, net = build_static_network(n=100, warm=False)
        truth = true_knn(net, Vec2(60, 60), 10)
        result = self.make_result(net, truth, k=10)
        assert pre_accuracy(net, result) == 1.0
        assert post_accuracy(net, result) == 1.0

    def test_post_accuracy_requires_time(self):
        sim, net = build_static_network(n=10, warm=False)
        result = self.make_result(net, [0], k=1)
        result.completed_at = None
        with pytest.raises(ValueError):
            post_accuracy(net, result)
        assert post_accuracy(net, result, at=2.0) in (0.0, 1.0)

    def test_pre_post_differ_under_mobility(self):
        sim, net, sink = build_mobile_network(n=100, seed=5,
                                              max_speed=25.0)
        sim.run(until=5.0)
        truth_now = true_knn(net, Vec2(60, 60), 10, t=5.0)
        result = self.make_result(net, truth_now, k=10, issued=0.5,
                                  completed=5.0)
        assert post_accuracy(net, result) == 1.0
        assert pre_accuracy(net, result) < 1.0


class TestRunMetrics:
    def outcome(self, completed=True, latency=1.0, pre=0.9, post=0.8):
        return QueryOutcome(query_id=1, k=10,
                            completed=completed, latency=latency,
                            pre_accuracy=pre, post_accuracy=post,
                            energy_j=0.01)

    def test_aggregates(self):
        run = RunMetrics(protocol="x", outcomes=[
            self.outcome(latency=1.0), self.outcome(latency=3.0),
            self.outcome(completed=False, latency=None, pre=0.0, post=0.0),
        ])
        assert run.queries_issued == 3
        assert run.completion_rate == pytest.approx(2 / 3)
        assert run.mean_latency == pytest.approx(2.0)
        assert run.mean_pre_accuracy == pytest.approx((0.9 + 0.9) / 3)

    def test_empty_run(self):
        run = RunMetrics(protocol="x")
        assert run.completion_rate == 0.0
        assert math.isnan(run.mean_latency)
        assert math.isnan(run.mean_pre_accuracy)

    def test_mean_ignoring_nan(self):
        assert mean_ignoring_nan([1.0, float("nan"), 3.0]) == 2.0
        assert math.isnan(mean_ignoring_nan([float("nan")]))
        assert math.isnan(mean_ignoring_nan([]))
