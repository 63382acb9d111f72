"""In-network aggregate queries along an itinerary.

The counterpart to shipping candidates around: for questions like "how
many sensors are in this area" or "what is the mean reading there", the
itinerary token carries only a constant-size aggregate state
(count / sum / min / max), updated at each Q-node from the collected
D-node replies.  The result message is a few bytes no matter how large
the region — the classic argument for in-network aggregation.  The
traversal is :class:`~repro.core.region.RegionQueryProtocol`'s, the same
serpentine itinerary the window queries walk; this module is its
folding reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..geometry import Rect
from ..net.node import SensorNode
from .region import RegionQueryProtocol, WindowQuery


@dataclass
class AggregateState:
    """Constant-size running aggregate of sensor readings."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def add(self, reading: float) -> None:
        self.count += 1
        self.total += reading
        self.minimum = (reading if self.minimum is None
                        else min(self.minimum, reading))
        self.maximum = (reading if self.maximum is None
                        else max(self.maximum, reading))

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def to_wire(self) -> tuple:
        return (self.count, self.total, self.minimum, self.maximum)

    @staticmethod
    def from_wire(data: tuple) -> "AggregateState":
        return AggregateState(count=int(data[0]), total=float(data[1]),
                             minimum=data[2], maximum=data[3])

    WIRE_BYTES = 14  # count(2) + three float readings(4 each)


#: an aggregate query names its region exactly as a window query does
AggregateQuery = WindowQuery


@dataclass
class AggregateResult:
    """What the sink receives: the aggregate, never the raw readings."""

    query: AggregateQuery
    state: AggregateState = field(default_factory=AggregateState)
    completed_at: Optional[float] = None
    voids: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.query.issued_at


def true_aggregate(network, window: Rect,
                   t: Optional[float] = None) -> AggregateState:
    """Ground truth aggregate over nodes inside ``window`` at time ``t``."""
    state = AggregateState()
    positions = network.true_positions(t)
    for nid, pos in positions.items():
        if window.contains(pos):
            state.add(network.nodes[nid].reading)
    return state


class AggregateQueryProtocol(RegionQueryProtocol):
    """Serpentine-itinerary aggregation over a rectangular region."""

    name = "aggregate"
    result_type = AggregateResult

    KIND_QUERY = "agg.query"
    KIND_TOKEN = "agg.token"
    KIND_PROBE = "agg.probe"
    KIND_DATA = "agg.data"
    KIND_RESULT = "agg.result"

    def _start(self) -> dict:
        return {"agg": AggregateState().to_wire()}

    def _add_self(self, node: SensorNode, token: dict) -> None:
        self._fold(token, [node.reading])

    def _reply(self, node: SensorNode):
        return node.reading, 6

    def _fold(self, token: dict, replies: list) -> None:
        agg = AggregateState.from_wire(token["agg"])
        for reading in replies:
            agg.add(float(reading))
        token["agg"] = agg.to_wire()

    def _token_bytes(self, token: dict) -> int:
        return 24 + AggregateState.WIRE_BYTES

    def _answer(self, token: dict):
        return token["agg"], 16 + AggregateState.WIRE_BYTES

    def _decode(self, result: AggregateResult, answer) -> None:
        result.state = AggregateState.from_wire(answer)
