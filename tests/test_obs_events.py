"""Raw-event layer: JSONL round-trip fidelity and query_span semantics.

Regression coverage for two subtle bugs: payload-derived fields arriving
as numpy scalars (not JSON-serializable, and int/float drift on re-read),
and ``query_span`` conflating a single-event query with an unseen one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import entry_from_wire, entry_to_wire
from repro.obs.events import TraceEntry, TraceLog
from repro.validate import trace_digest


def test_tracelog_shim_is_gone():
    """The deprecated ``repro.net.tracelog`` compat shim was removed;
    ``repro.obs.events`` is the only home of the trace-log types."""
    with pytest.raises(ModuleNotFoundError):
        import repro.net.tracelog  # noqa: F401
    import repro.net
    assert not hasattr(repro.net, "TraceLog")


def test_roundtrip_preserves_field_types(tmp_path):
    entries = [
        TraceEntry(time=1.25, event="send", kind="diknn_query", node=3,
                   src=3, dst=7, size_bytes=64, query_id=2),
        TraceEntry(time=1.5, event="deliver", kind="gpsr:knn_result",
                   node=7, src=3, dst=7, size_bytes=128, query_id=None),
    ]
    path = tmp_path / "trace.jsonl"
    log = TraceLog.__new__(TraceLog)   # bypass network attachment
    log.entries = entries
    assert log.to_jsonl(str(path)) == 2
    back = TraceLog.read_jsonl(str(path))
    assert back == entries
    for entry in back:
        assert type(entry.time) is float
        assert type(entry.node) is int and type(entry.size_bytes) is int
    # the canonical digest survives the round trip bit-for-bit
    assert trace_digest(back) == trace_digest(entries)


def test_numpy_scalars_are_coerced_on_the_wire(tmp_path):
    entry = TraceEntry(time=np.float64(2.5), event="send", kind="x",
                       node=np.int64(4), src=np.int64(4),
                       dst=np.int64(9), size_bytes=np.int32(10),
                       query_id=np.int64(1))
    wire = entry_to_wire(entry)
    assert type(wire["time"]) is float
    assert all(type(wire[f]) is int
               for f in ("node", "src", "dst", "size_bytes", "query_id"))
    back = entry_from_wire(wire)
    assert type(back.node) is int and back.node == 4
    assert type(back.query_id) is int and back.query_id == 1
    # np.int64 would have crashed json.dumps without the coercion
    path = tmp_path / "np.jsonl"
    log = TraceLog.__new__(TraceLog)
    log.entries = [entry]
    log.to_jsonl(str(path))
    assert TraceLog.read_jsonl(str(path))[0].dst == 9


def test_query_span_single_event_vs_no_events():
    log = TraceLog.__new__(TraceLog)
    log.entries = [
        TraceEntry(time=3.0, event="send", kind="x", node=0, src=0,
                   dst=1, size_bytes=8, query_id=5),
        TraceEntry(time=3.0, event="send", kind="x", node=0, src=0,
                   dst=1, size_bytes=8, query_id=None),
        TraceEntry(time=7.5, event="deliver", kind="x", node=1, src=0,
                   dst=1, size_bytes=8, query_id=6),
        TraceEntry(time=9.0, event="deliver", kind="x", node=1, src=0,
                   dst=1, size_bytes=8, query_id=6),
    ]
    # a single logged event is a zero-width span, not "unknown query"
    assert log.query_span(5) == 0.0
    assert log.query_span(6) == 1.5
    assert log.query_span(404) is None


def test_detach_stops_recording(static_net):
    sim, net = static_net
    log = TraceLog(net)
    assert log._hook in sim.probe.trace
    log.detach()
    assert log._hook not in sim.probe.trace
    log.detach()   # idempotent
