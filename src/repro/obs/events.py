"""Raw-event layer of the telemetry subsystem (the ns-2 trace file).

The paper visualized query execution by modifying ns-2's trace format
(§5.2).  ``TraceLog`` is the equivalent here: it hooks the network's
send/deliver events, records them as structured entries with timestamps,
and can export JSON-lines for external analysis.  Query tools on top of
the in-memory log answer the questions the figures need (per-kind counts,
per-query timelines, hop chains).

This module is the bottom of the ``repro.obs`` stack: spans, metrics and
the exporters are all derived views; ``TraceLog`` is the ground truth
stream the golden-trace digests fingerprint.  (It originally lived at
``repro.net.tracelog``, which remains as a compatibility re-export.)
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional


def open_text(path, mode: str = "r", newline: Optional[str] = None):
    """Open a text file, transparently gzip-compressed when the path
    ends in ``.gz`` — 50k-node soak artifacts compress ~20x, and every
    exporter/reader in ``repro.obs`` routes through here so ``.jsonl``
    and ``.jsonl.gz`` are interchangeable."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8",
                         newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.messages import Message
    from ..net.network import Network


@dataclass(frozen=True)
class TraceEntry:
    """One logged event."""

    time: float
    event: str        # "send" | "deliver"
    kind: str         # message kind; GPSR frames use "gpsr:<inner-kind>"
    node: int         # acting node (sender or receiver)
    src: int
    dst: int
    size_bytes: int
    query_id: Optional[int] = None


_MAX_PAYLOAD_DEPTH = 8


def _query_id_of(message: Message) -> Optional[int]:
    """Extract the query id, descending through arbitrarily nested
    ``inner``/``token`` payloads (a GPSR frame wrapped in another GPSR
    frame still belongs to its query)."""
    payload = message.payload
    depth = 0
    while isinstance(payload, dict) and depth < _MAX_PAYLOAD_DEPTH:
        if "query_id" in payload:
            return payload["query_id"]
        token = payload.get("token")
        if isinstance(token, dict) and "query_id" in token:
            return token["query_id"]
        payload = payload.get("inner")
        depth += 1
    return None


def _kind_of(message: Message) -> str:
    if message.kind == "gpsr":
        return f"gpsr:{message.payload.get('inner_kind', '?')}"
    return message.kind


def entry_to_wire(entry: TraceEntry) -> dict:
    """Entry as a JSON-safe dict with the declared field types enforced.

    Payload values extracted from protocol dicts can arrive as numpy
    scalars (``np.int64`` is not JSON-serializable) or as int-valued
    Python ints where the dataclass declares float; coercing here keeps
    the wire format — and therefore digests of re-read traces — stable.
    """
    return {
        "time": float(entry.time),
        "event": str(entry.event),
        "kind": str(entry.kind),
        "node": int(entry.node),
        "src": int(entry.src),
        "dst": int(entry.dst),
        "size_bytes": int(entry.size_bytes),
        "query_id": (None if entry.query_id is None
                     else int(entry.query_id)),
    }


def entry_from_wire(data: dict) -> TraceEntry:
    """Inverse of :func:`entry_to_wire`, with the same type coercion so a
    round trip through JSON preserves ints-vs-floats exactly."""
    return TraceEntry(
        time=float(data["time"]), event=str(data["event"]),
        kind=str(data["kind"]), node=int(data["node"]),
        src=int(data["src"]), dst=int(data["dst"]),
        size_bytes=int(data["size_bytes"]),
        query_id=(None if data.get("query_id") is None
                  else int(data["query_id"])))


class TraceLog:
    """In-memory structured trace of a network's messages (a subscriber
    of its simulator probe's ``trace`` channel)."""

    def __init__(self, network: "Network",
                 kinds: Optional[Iterable[str]] = None,
                 max_entries: int = 1_000_000):
        """
        Args:
            network: the network to trace.
            kinds: restrict logging to these (post-expansion) kinds;
                None logs everything except beacons.
            max_entries: hard cap (oldest entries are NOT evicted; logging
                simply stops — a trace that silently rotates is worse than
                one that visibly ends).
        """
        self.network = network
        self.kinds = set(kinds) if kinds is not None else None
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self.truncated = False
        network.sim.probe.subscribe("trace", self._hook)

    def _hook(self, event: str, message: Message, node_id: int) -> None:
        if len(self.entries) >= self.max_entries:
            self.truncated = True
            return
        kind = _kind_of(message)
        if self.kinds is not None and kind not in self.kinds:
            return
        self.entries.append(TraceEntry(
            time=self.network.sim.now, event=event, kind=kind,
            node=node_id, src=message.src, dst=message.dst,
            size_bytes=message.size_bytes,
            query_id=_query_id_of(message)))

    def detach(self) -> None:
        """Stop recording (unsubscribes from the probe; idempotent)."""
        self.network.sim.probe.unsubscribe("trace", self._hook)

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def counts_by_kind(self, event: str = "send") -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries:
            if entry.event == event:
                out[entry.kind] = out.get(entry.kind, 0) + 1
        return out

    def bytes_by_kind(self, event: str = "send") -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries:
            if entry.event == event:
                out[entry.kind] = out.get(entry.kind, 0) + entry.size_bytes
        return out

    def for_query(self, query_id: int) -> List[TraceEntry]:
        """Chronological events of one query."""
        return [e for e in self.entries if e.query_id == query_id]

    def query_span(self, query_id: int) -> Optional[float]:
        """Simulated time from a query's first to last logged event.

        A query with a single logged event has a span of ``0.0``; only a
        query with *no* logged events yields ``None``.
        """
        events = self.for_query(query_id)
        if not events:
            return None
        return events[-1].time - events[0].time

    def filtered(self, predicate: Callable[[TraceEntry], bool]
                 ) -> List[TraceEntry]:
        return [e for e in self.entries if predicate(e)]

    # -- export ---------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Write all entries as JSON lines (gzipped for ``.gz`` paths);
        returns the entry count."""
        with open_text(path, "w") as handle:
            for entry in self.entries:
                handle.write(json.dumps(entry_to_wire(entry)) + "\n")
        return len(self.entries)

    @staticmethod
    def read_jsonl(path: str) -> List[TraceEntry]:
        """Load entries written by :meth:`to_jsonl` (``.gz`` aware)."""
        out = []
        with open_text(path, "r") as handle:
            for line in handle:
                if line.strip():
                    out.append(entry_from_wire(json.loads(line)))
        return out
