"""Itinerary-based window (range) queries.

The paper's itinerary machinery descends from Xu et al.'s window-query
work ([31], ICDE 2006), the only prior infrastructure-free spatial query
technique it cites.  This module provides that sibling protocol on the
same substrate: report every node inside a rectangle.  The traversal is
:class:`~repro.core.region.RegionQueryProtocol`'s single serpentine
itinerary; this module is its enumerating reducer, whose token collects
one candidate per in-window node.

Included both as a useful query primitive in its own right and as the
degenerate-parallelism reference point for DIKNN's sectored itineraries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..geometry import Rect, Vec2
from ..net.node import SensorNode
from .query import Candidate
from .region import RegionQueryProtocol, WindowQuery


@dataclass
class WindowResult:
    """What the sink receives for a window query."""

    query: WindowQuery
    candidates: List[Candidate] = field(default_factory=list)
    completed_at: Optional[float] = None
    voids: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.query.issued_at

    def node_ids(self) -> List[int]:
        return sorted({c.node_id for c in self.candidates})


def nodes_in_window(network, window: Rect,
                    t: Optional[float] = None) -> List[int]:
    """Ground truth: ids of nodes truly inside ``window`` at time ``t``."""
    return sorted(nid for nid, pos in network.true_positions(t).items()
                  if window.contains(pos))


def window_recall(network, result: WindowResult,
                  t: Optional[float] = None) -> float:
    """|returned ∩ truth| / |truth| at time ``t`` (default: issue time)."""
    time = t if t is not None else result.query.issued_at
    truth = set(nodes_in_window(network, result.query.window, time))
    if not truth:
        return 1.0 if not result.node_ids() else 0.0
    return len(truth & set(result.node_ids())) / len(truth)


class WindowQueryProtocol(RegionQueryProtocol):
    """Single-itinerary window query processing (after [31]): the token
    enumerates every in-window node, at most ``max_report`` of them."""

    name = "window"
    result_type = WindowResult

    KIND_QUERY = "wq.query"
    KIND_TOKEN = "wq.token"
    KIND_PROBE = "wq.probe"
    KIND_DATA = "wq.data"
    KIND_RESULT = "wq.result"

    def __init__(self, width: Optional[float] = None,
                 spacing_factor: float = 0.8,
                 time_unit_s: float = 0.018,
                 max_detours: int = 4,
                 max_report: int = 256):
        super().__init__(width=width, spacing_factor=spacing_factor,
                         time_unit_s=time_unit_s, max_detours=max_detours)
        self.max_report = max_report

    def _start(self) -> dict:
        return {"cands": []}

    def _add_self(self, node: SensorNode, token: dict) -> None:
        token["cands"].append(self._candidate(node))

    def _reply(self, node: SensorNode):
        return self._candidate(node), 10

    def _fold(self, token: dict, replies: list) -> None:
        cands = token["cands"] + [list(c) for c in replies]
        token["cands"] = cands[:self.max_report]

    def _token_bytes(self, token: dict) -> int:
        return 24 + 10 * len(token["cands"]) + 2 * len(token["visited"])

    def _answer(self, token: dict):
        return token["cands"], 16 + 10 * len(token["cands"])

    def _decode(self, result: WindowResult, answer) -> None:
        for c in answer:
            result.candidates.append(Candidate(
                node_id=int(c[0]), position=Vec2(float(c[1]), float(c[2])),
                speed=float(c[3]), reading=float(c[4]),
                reported_at=float(c[5])))

    @staticmethod
    def _candidate(node: SensorNode) -> list:
        pos = node.position()
        now = node.network.sim.now
        return [node.id, pos.x, pos.y, node.speed(), node.reading, now]
