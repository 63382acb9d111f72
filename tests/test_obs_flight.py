"""Flight recorder: ring bounds, kernel/MAC taps, dump bundles, triggers.

The recorder is the always-on black box: a fixed ring of recent kernel
events and structured notes, resolved to labels only when a dump is
written, with trigger records from invariant violations and the service
layer's breaker.  ``.gz`` dump paths compress transparently.
"""

from __future__ import annotations

import pytest

from repro.obs import (FlightRecorder, SpanTracker, active_recorders,
                       notify_violation, reset_recorders)
from repro.obs.flight import (TRIGGER_INVARIANT, TRIGGER_MANUAL,
                              instant_to_wire, span_to_wire)
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _clean_recorders():
    reset_recorders()
    yield
    reset_recorders()


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.note(float(i), "test", i=i)
        assert rec.recorded == 20
        assert rec.dropped == 12
        records = rec.records()
        assert len(records) == 8
        # oldest entries were overwritten; the tail survives in order
        assert [r["i"] for r in records] == list(range(12, 20))

    def test_kernel_events_are_labeled_lazily(self):
        rec = FlightRecorder(capacity=4)

        def handler():
            pass

        rec.record_event(1.5, handler)
        (record,) = rec.records()
        assert record["category"] == "kernel"
        assert "handler" in record["event"]
        assert record["time"] == 1.5


class TestInstall:
    def test_kernel_tap_records_executed_events(self):
        sim = Simulator(seed=1)
        rec = FlightRecorder(capacity=64).install(sim)
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1, 2]
        assert rec.recorded == 2
        assert all(r["category"] == "kernel" for r in rec.records())
        assert rec in active_recorders()
        rec.uninstall()
        assert sim.probe.kernel == ()
        assert rec not in active_recorders()
        # uninstalled: further kernel events are not recorded
        sim.schedule_at(6.0, lambda: None)
        sim.run(until=7.0)
        assert rec.recorded == 2

    def test_violation_notifies_every_active_recorder(self):
        sim = Simulator(seed=1)
        rec = FlightRecorder().install(sim)
        from repro.validate.base import InvariantViolation
        with pytest.raises(InvariantViolation):
            raise InvariantViolation("causality", "tachyon detected",
                                     time=3.0, node=7)
        assert rec.triggers
        trig = rec.triggers[-1]
        assert trig["reason"] == TRIGGER_INVARIANT
        assert trig["invariant"] == "causality"
        assert "tachyon" in trig["detail"]


class TestDump:
    def _spans(self):
        spans = SpanTracker()
        root = spans.begin("query q1", "query", at=0.0, node=0,
                          query_id=1)
        spans.end(root, at=2.0, status="completed")
        spans.instant("alert", at=1.0, category="service", burn=2.5)
        return spans

    @pytest.mark.parametrize("name", ["bundle.jsonl", "bundle.jsonl.gz"])
    def test_dump_round_trip(self, tmp_path, name):
        rec = FlightRecorder(capacity=16)
        rec.note(0.5, "mac", kind="DATA", lost_collision=2)
        rec.trigger(TRIGGER_MANUAL, 1.0, note="test")
        spans = self._spans()
        path = rec.dump(tmp_path / name, spans=spans,
                        query_spans={"s1": list(spans.spans)},
                        extra={"service_id": 1})
        assert str(path) in rec.dumps_written
        bundle = FlightRecorder.read_bundle(path)
        (header,) = bundle["header"]
        assert header["capacity"] == 16
        assert header["service_id"] == 1
        assert header["triggers"] == 1
        (trig,) = bundle["trigger"]
        assert trig["reason"] == TRIGGER_MANUAL
        (event,) = bundle["event"]
        assert event["category"] == "mac" and event["kind"] == "DATA"
        # one span from the tracker, one tagged copy from the tree
        assert len(bundle["span"]) == 2
        tree = [s for s in bundle["span"] if s.get("tree") == "s1"]
        assert tree and tree[0]["name"] == "query q1"
        (inst,) = bundle["instant"]
        assert inst["category"] == "service"

    def test_wire_forms_are_json_safe(self):
        spans = self._spans()
        span = spans.spans[0]
        wire = span_to_wire(span)
        assert wire["span_id"] == span.span_id
        assert wire["end"] == 2.0
        inst = instant_to_wire(spans.instants[0])
        assert inst["attrs"]["burn"] == 2.5
