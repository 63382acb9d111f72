"""The flight recorder: an always-on ring buffer for post-mortems.

Debugging a failure inside a 50k-node soak by re-running under full
``--obs`` is impractical; the flight recorder is the black box instead.
It keeps a fixed-size ring of recent activity — kernel events, MAC
trouble frames, service state transitions — at near-zero steady-state
cost: recording is one deque append, and event labels are resolved
lazily (via the profiler's code-object labeling) only when a dump is
actually written.

A *trigger* (invariant violation, unaccounted outcome, breaker open, or
an explicit CLI/service hook) marks the moment worth explaining; the
recorder then dumps a JSONL bundle — header, triggers, the resolved
ring, and optionally the full-fidelity span trees the tail sampler
promoted for the triggering query.  Paths ending in ``.gz`` are
gzip-compressed transparently.

:meth:`FlightRecorder.install` subscribes the recorder to the
simulator probe's ``kernel`` channel (and, with a MAC layer, to
``mac_frame``); an uninstalled run pays one empty-channel test per
event.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from .profiler import _label_of

#: trigger reasons the subsystems fire
TRIGGER_INVARIANT = "invariant_violation"
TRIGGER_BREAKER = "breaker_open"
TRIGGER_UNACCOUNTED = "unaccounted_outcome"
TRIGGER_MANUAL = "manual"


class FlightRecorder:
    """Bounded ring of recent activity, dumped on trigger."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: (time, category, kernel-callback-or-None, fields-or-None)
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0
        self.triggers: List[dict] = []
        self.dumps_written: List[str] = []
        self._sim = None
        self._taps: List[tuple] = []

    # -- recording (hot paths) ------------------------------------------

    def record_event(self, time: float, callback) -> None:
        """Kernel tap: one append per executed event."""
        self._ring.append((time, "kernel", callback, None))
        self.recorded += 1

    def note(self, time: float, category: str, **fields) -> None:
        """Structured tap for service transitions."""
        self._ring.append((time, category, None, fields))
        self.recorded += 1

    def note_mac(self, time: float, **fields) -> None:
        """MAC tap: one trouble frame (loss or exhausted ARQ)."""
        self.note(time, "mac", **fields)

    # -- installation ---------------------------------------------------

    def install(self, sim, mac=None) -> "FlightRecorder":
        """Subscribe to ``sim``'s kernel events (and, when a MAC layer
        of it is given, to its trouble frames); registers for violation
        notify."""
        if self._sim is not None:
            raise RuntimeError("flight recorder is already installed")
        self._sim = sim
        self._taps = [("kernel", self.record_event)]
        if mac is not None:
            self._taps.append(("mac_frame", self.note_mac))
        for channel, tap in self._taps:
            sim.probe.subscribe(channel, tap)
        if self not in _ACTIVE:
            _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        if self._sim is not None:
            for channel, tap in self._taps:
                self._sim.probe.unsubscribe(channel, tap)
        self._sim = None
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # -- triggers and dumps ---------------------------------------------

    @property
    def dropped(self) -> int:
        """Ring entries overwritten since install."""
        return max(0, self.recorded - self.capacity)

    def trigger(self, reason: str, at: float, **context) -> dict:
        """Mark a dump-worthy moment; returns the trigger record."""
        record = {"reason": reason, "time": float(at)}
        record.update(context)
        self.triggers.append(record)
        return record

    def records(self) -> List[dict]:
        """The ring resolved to JSON-safe dicts, oldest first.  Kernel
        callbacks are labeled here, not at record time."""
        label_cache: Dict[int, str] = {}
        out: List[dict] = []
        for time, category, callback, fields in self._ring:
            rec: Dict[str, object] = {"time": float(time),
                                      "category": category}
            if callback is not None:
                key = id(callback)
                label = label_cache.get(key)
                if label is None:
                    label = label_cache[key] = _label_of(callback)
                rec["event"] = label
            if fields:
                rec.update(fields)
            out.append(rec)
        return out

    def dump(self, path, spans=None, query_spans: Optional[dict] = None,
             extra: Optional[dict] = None) -> Path:
        """Write the post-mortem bundle as JSON lines.

        ``spans`` (a SpanTracker) contributes full span/instant records;
        ``query_spans`` maps a label to a list of Span objects (e.g. the
        promoted tree of the query that fired the trigger).  A ``.gz``
        suffix compresses the bundle.
        """
        from .events import open_text

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = 0
        with open_text(path, "w") as handle:
            def emit(record: dict) -> None:
                nonlocal lines
                handle.write(json.dumps(record) + "\n")
                lines += 1

            header = {"record": "header", "capacity": self.capacity,
                      "recorded": self.recorded, "dropped": self.dropped,
                      "triggers": len(self.triggers)}
            if extra:
                header.update(extra)
            emit(header)
            for trig in self.triggers:
                emit({"record": "trigger", **trig})
            for rec in self.records():
                emit({"record": "event", **rec})
            for source in ([spans] if spans is not None else []):
                for span in source.spans:
                    emit({"record": "span", **span_to_wire(span)})
                for inst in source.instants:
                    emit({"record": "instant", **instant_to_wire(inst)})
            for label, tree in (query_spans or {}).items():
                for span in tree:
                    emit({"record": "span", "tree": label,
                          **span_to_wire(span)})
        self.dumps_written.append(str(path))
        return path

    @staticmethod
    def read_bundle(path) -> Dict[str, List[dict]]:
        """Load a dump bundle back, grouped by record type."""
        from .events import open_text

        out: Dict[str, List[dict]] = {}
        with open_text(path, "r") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                out.setdefault(record.get("record", "?"), []).append(record)
        return out


def _safe_attrs(attrs: dict) -> dict:
    return {key: (value if isinstance(value, (int, float, str, bool,
                                              type(None)))
                  else repr(value))
            for key, value in attrs.items()}


def span_to_wire(span) -> dict:
    return {"span_id": int(span.span_id), "name": span.name,
            "category": span.category, "start": float(span.start),
            "end": (None if span.end is None else float(span.end)),
            "node": (None if span.node is None else int(span.node)),
            "query_id": (None if span.query_id is None
                         else int(span.query_id)),
            "parent_id": (None if span.parent_id is None
                          else int(span.parent_id)),
            "attrs": _safe_attrs(span.attrs)}


def instant_to_wire(inst) -> dict:
    return {"name": inst.name, "time": float(inst.time),
            "node": (None if inst.node is None else int(inst.node)),
            "query_id": (None if inst.query_id is None
                         else int(inst.query_id)),
            "category": inst.category, "attrs": _safe_attrs(inst.attrs)}


# ---------------------------------------------------------------------------
# process-wide registry (how repro.validate finds the recorders)
# ---------------------------------------------------------------------------

_ACTIVE: List[FlightRecorder] = []


def active_recorders() -> List[FlightRecorder]:
    return list(_ACTIVE)


def notify_violation(violation) -> None:
    """Called by ``InvariantViolation.__init__``: every installed
    recorder gets a trigger so the ring survives the raise."""
    for recorder in list(_ACTIVE):
        recorder.trigger(
            TRIGGER_INVARIANT,
            getattr(violation, "time", None) or 0.0,
            invariant=getattr(violation, "invariant", "?"),
            detail=str(violation),
            node=getattr(violation, "node", None),
            query_id=getattr(violation, "query_id", None))


def reset_recorders() -> None:
    """Uninstall every recorder (tests)."""
    for recorder in list(_ACTIVE):
        recorder.uninstall()
