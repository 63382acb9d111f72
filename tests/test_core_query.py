"""Tests for query/result types and candidate merging."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (Candidate, KNNQuery, QueryIdAllocator, QueryResult,
                        merge_candidates, per_run_allocator)
from repro.geometry import Vec2
from repro.sim import QueryError, Simulator


def cand(node_id, x, y, t=0.0):
    return Candidate(node_id=node_id, position=Vec2(x, y), speed=0.0,
                     reading=0.0, reported_at=t)


class TestKNNQuery:
    def test_valid(self):
        q = KNNQuery(query_id=1, sink_id=0, point=Vec2(1, 2), k=5,
                     issued_at=0.0)
        assert q.k == 5

    def test_invalid_k(self):
        with pytest.raises(QueryError):
            KNNQuery(query_id=1, sink_id=0, point=Vec2(0, 0), k=0,
                     issued_at=0.0)

    def test_invalid_gain(self):
        with pytest.raises(QueryError):
            KNNQuery(query_id=1, sink_id=0, point=Vec2(0, 0), k=1,
                     issued_at=0.0, assurance_gain=1.5)


class TestQueryIdAllocator:
    def test_ids_start_at_one_and_increment(self):
        alloc = QueryIdAllocator()
        assert alloc.last == 0
        assert [alloc.allocate() for _ in range(3)] == [1, 2, 3]
        assert alloc.last == 3

    def test_invalid_start(self):
        with pytest.raises(QueryError):
            QueryIdAllocator(start=0)

    def test_per_run_allocator_is_cached_on_the_simulator(self):
        sim = Simulator(seed=1)
        alloc = per_run_allocator(sim)
        alloc.allocate()
        assert per_run_allocator(sim) is alloc
        assert per_run_allocator(sim).allocate() == 2

    def test_runs_are_isolated(self):
        """Two simulations in one process see identical id sequences —
        the old process-global counter leaked ids across runs."""
        first = [per_run_allocator(Simulator(seed=1)).allocate()
                 for _ in range(3)]
        fresh = Simulator(seed=2)
        second = [per_run_allocator(fresh).allocate() for _ in range(3)]
        assert second == [1, 2, 3]
        assert first == [1, 1, 1]


class TestQueryResult:
    def make(self, k=3):
        q = KNNQuery(query_id=1, sink_id=0,
                     point=Vec2(0, 0), k=k, issued_at=10.0)
        return QueryResult(query=q)

    def test_latency_requires_completion(self):
        r = self.make()
        assert r.latency is None
        assert not r.completed
        r.completed_at = 12.5
        assert r.completed
        assert r.latency == pytest.approx(2.5)

    def test_top_k_ids_sorted_by_distance(self):
        r = self.make(k=2)
        r.candidates = [cand(1, 5, 0), cand(2, 1, 0), cand(3, 3, 0)]
        assert r.top_k_ids() == [2, 3]

    def test_top_k_dedupes(self):
        r = self.make(k=3)
        r.candidates = [cand(1, 5, 0), cand(1, 1, 0), cand(2, 3, 0)]
        assert r.top_k_ids() == [1, 2]

    def test_top_k_tie_break_by_id(self):
        r = self.make(k=2)
        r.candidates = [cand(9, 1, 0), cand(4, 1, 0)]
        assert r.top_k_ids() == [4, 9]


class TestMergeCandidates:
    def test_merge_caps_and_sorts(self):
        a = [cand(1, 10, 0), cand(2, 1, 0)]
        b = [cand(3, 5, 0), cand(4, 2, 0)]
        merged = merge_candidates(a, b, Vec2(0, 0), cap=3)
        assert [c.node_id for c in merged] == [2, 4, 3]

    def test_merge_keeps_freshest_duplicate(self):
        old = cand(1, 1, 0, t=1.0)
        new = cand(1, 8, 0, t=2.0)
        merged = merge_candidates([old], [new], Vec2(0, 0), cap=5)
        assert len(merged) == 1
        assert merged[0].reported_at == 2.0
        assert merged[0].position == Vec2(8, 0)

    def test_merge_empty(self):
        assert merge_candidates([], [], Vec2(0, 0), cap=5) == []

    @given(st.lists(st.tuples(st.floats(-100, 100, allow_nan=False),
                              st.floats(-100, 100, allow_nan=False)),
                    max_size=40),
           st.integers(min_value=1, max_value=10))
    def test_merge_properties(self, raw, cap):
        cands = [cand(i, x, y) for i, (x, y) in enumerate(raw)]
        merged = merge_candidates(cands, [], Vec2(0, 0), cap=cap)
        # Capped, deduped, and sorted by distance.
        assert len(merged) <= cap
        ids = [c.node_id for c in merged]
        assert len(ids) == len(set(ids))
        dists = [c.distance_to(Vec2(0, 0)) for c in merged]
        assert dists == sorted(dists)
        # The closest input candidate always survives.
        if cands:
            best = min(c.distance_to(Vec2(0, 0)) for c in cands)
            assert dists and dists[0] == pytest.approx(best)
