"""Tests for the trace log, statistics helpers, and workload generators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import DIKNNProtocol, KNNQuery, per_run_allocator
from repro.experiments import (HotspotWorkload, MovingTargetWorkload,
                               SimulationConfig, UniformWorkload,
                               run_workload)
from repro.geometry import Rect, Vec2
from repro.metrics import (Summary, overlaps, significantly_less,
                           summarize, t_quantile_95)
from repro.obs.events import TraceLog
from repro.routing import GpsrRouter

from tests.conftest import build_static_network

FIELD = Rect.from_size(115.0, 115.0)


def traced_query(seed=3, kinds=None):
    sim, net = build_static_network(seed=seed)
    log = TraceLog(net, kinds=kinds)
    proto = DIKNNProtocol()
    proto.install(net, GpsrRouter(net))
    query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                     point=Vec2(60, 60), k=15, issued_at=sim.now)
    proto.issue(net.nodes[0], query, lambda r: None)
    sim.run(until=sim.now + 10)
    return log, query


class TestTraceLog:
    def test_records_protocol_events(self):
        log, query = traced_query()
        counts = log.counts_by_kind()
        assert counts.get("diknn.probe", 0) > 0
        assert counts.get("diknn.data", 0) > 0
        assert "gpsr:diknn.query" in counts
        assert "beacon" not in counts  # beacons bypass the trace hooks

    def test_kind_filter(self):
        log, query = traced_query(kinds={"diknn.token"})
        assert set(log.counts_by_kind()) <= {"diknn.token"}

    def test_query_timeline(self):
        log, query = traced_query()
        events = log.for_query(query.query_id)
        assert events
        times = [e.time for e in events]
        assert times == sorted(times)
        assert log.query_span(query.query_id) > 0
        assert log.query_span(999_999) is None

    def test_bytes_accounting(self):
        log, query = traced_query()
        bytes_ = log.bytes_by_kind()
        counts = log.counts_by_kind()
        for kind in counts:
            assert bytes_[kind] > 0

    def test_jsonl_roundtrip(self, tmp_path):
        log, query = traced_query()
        path = str(tmp_path / "trace.jsonl")
        n = log.to_jsonl(path)
        assert n == len(log)
        again = TraceLog.read_jsonl(path)
        assert len(again) == n
        assert again[0] == log.entries[0]

    def test_max_entries_cap(self):
        sim, net = build_static_network(n=50, seed=3)
        log = TraceLog(net, max_entries=5)
        net.register_handler("app", lambda n, m: None)
        for _ in range(10):
            net.nodes[0].broadcast("app", {}, 4)
        sim.run(until=sim.now + 1)
        assert len(log) == 5
        assert log.truncated

    def test_filtered(self):
        log, query = traced_query()
        sends = log.filtered(lambda e: e.event == "send")
        delivers = log.filtered(lambda e: e.event == "deliver")
        assert len(sends) + len(delivers) == len(log)


class TestQueryIdExtraction:
    """``_query_id_of`` must find the query through arbitrary nesting —
    a GPSR frame wrapped in another GPSR frame (re-routing a dropped
    bundle) still belongs to its query."""

    @staticmethod
    def _msg(payload):
        from repro.net.messages import Message
        return Message(kind="gpsr", src=0, dst=1, size_bytes=8,
                       payload=payload)

    def test_top_level(self):
        from repro.obs.events import _query_id_of
        assert _query_id_of(self._msg({"query_id": 4})) == 4

    def test_single_inner(self):
        from repro.obs.events import _query_id_of
        assert _query_id_of(
            self._msg({"inner": {"query_id": 5}})) == 5

    def test_deeply_nested_inner(self):
        from repro.obs.events import _query_id_of
        payload = {"query_id": 9}
        for _ in range(4):
            payload = {"inner": payload, "inner_kind": "gpsr"}
        assert _query_id_of(self._msg(payload)) == 9

    def test_token_inside_nested_inner(self):
        from repro.obs.events import _query_id_of
        payload = {"inner": {"inner": {"token": {"query_id": 11}}}}
        assert _query_id_of(self._msg(payload)) == 11

    def test_absent_and_non_dict_payloads(self):
        from repro.obs.events import _query_id_of
        assert _query_id_of(self._msg({"inner": {"x": 1}})) is None
        assert _query_id_of(self._msg({})) is None

    def test_depth_bounded(self):
        from repro.obs.events import _MAX_PAYLOAD_DEPTH, _query_id_of
        payload = {"query_id": 3}
        for _ in range(_MAX_PAYLOAD_DEPTH + 2):
            payload = {"inner": payload}
        # past the recursion bound the id is (deliberately) not found
        assert _query_id_of(self._msg(payload)) is None

    def test_cyclic_payload_terminates(self):
        from repro.obs.events import _query_id_of
        payload = {}
        payload["inner"] = payload
        assert _query_id_of(self._msg(payload)) is None


class TestStats:
    def test_t_quantiles(self):
        assert t_quantile_95(1) == pytest.approx(12.706)
        assert t_quantile_95(10) == pytest.approx(2.228)
        assert t_quantile_95(1000) == pytest.approx(1.96)
        assert 2.042 >= t_quantile_95(35) >= 2.021
        with pytest.raises(ValueError):
            t_quantile_95(0)

    def test_summarize_basic(self):
        s = summarize([2.0, 4.0])
        assert s.mean == 3.0
        assert s.n == 2
        assert s.low < 3.0 < s.high

    def test_summarize_edge_cases(self):
        assert summarize([]).n == 0
        assert math.isnan(summarize([]).mean)
        single = summarize([5.0])
        assert single.mean == 5.0
        assert math.isinf(single.half_width_95)
        assert summarize([1.0, float("nan"), 3.0]).mean == 2.0

    def test_overlap_logic(self):
        a = Summary(1.0, 0.1, 5)
        b = Summary(1.15, 0.1, 5)
        c = Summary(2.0, 0.1, 5)
        assert overlaps(a, b)
        assert not overlaps(a, c)
        assert significantly_less(a, c)
        assert not significantly_less(a, b)
        assert not significantly_less(c, a)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    def test_property_mean_inside_interval(self, values):
        s = summarize(values)
        assert s.low <= s.mean <= s.high


class TestWorkloads:
    def gen(self, workload, seed=1, duration=200.0):
        rng = np.random.default_rng(seed)
        return workload.generate(FIELD, start=5.0, duration=duration,
                                 rng=rng)

    def test_uniform_times_and_margin(self):
        events = self.gen(UniformWorkload(mean_interval=4.0,
                                          margin_fraction=0.15))
        assert len(events) > 20
        for t, p in events:
            assert 5.0 <= t < 205.0
            assert FIELD.x_min + 0.15 * FIELD.width <= p.x \
                <= FIELD.x_max - 0.15 * FIELD.width
        times = [t for t, _p in events]
        assert times == sorted(times)

    def test_uniform_interval_mean(self):
        events = self.gen(UniformWorkload(mean_interval=2.0),
                          duration=2000.0)
        assert len(events) == pytest.approx(1000, rel=0.2)

    def test_hotspot_concentration(self):
        spot = (60.0, 60.0)
        events = self.gen(HotspotWorkload(mean_interval=1.0,
                                          hotspots=[spot],
                                          hotspot_fraction=0.9,
                                          spread_fraction=0.03))
        near = sum(1 for _t, p in events
                   if p.distance_to(Vec2(*spot)) < 15.0)
        assert near / len(events) > 0.7

    def test_moving_target_correlated(self):
        events = self.gen(MovingTargetWorkload(mean_interval=2.0),
                          duration=100.0)
        assert len(events) > 10
        # Consecutive points are much closer than the field diagonal.
        gaps = [a[1].distance_to(b[1])
                for a, b in zip(events, events[1:])]
        assert sum(gaps) / len(gaps) < 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformWorkload(mean_interval=0.0)
        with pytest.raises(ValueError):
            HotspotWorkload(hotspot_fraction=2.0)
        with pytest.raises(ValueError):
            HotspotWorkload(n_hotspots=0)

    def test_run_workload_accepts_custom_workload(self):
        metrics = run_workload(
            SimulationConfig(seed=5),
            lambda c: DIKNNProtocol(), k=10, duration=12.0,
            workload=HotspotWorkload(mean_interval=2.5,
                                     hotspots=[(60.0, 60.0)]))
        assert metrics.queries_issued >= 1
        assert metrics.mean_pre_accuracy >= 0.5
