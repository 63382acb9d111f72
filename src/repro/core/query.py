"""KNN query and result types (paper §3.1, Definition 1)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..geometry import Vec2
from ..sim.errors import QueryError

class QueryIdAllocator:
    """Allocates query ids unique within one run (simulation instance).

    Run isolation: a process-global counter leaks ids across runs — the
    second run of a sweep starts numbering where the first stopped, so
    per-query artifacts (outcome rows, span trees, trace entries keyed by
    query id) are not comparable run-to-run.  Every simulation owns one
    allocator instead; ids always start at 1.
    """

    __slots__ = ("_ids", "_last")

    def __init__(self, start: int = 1):
        if start < 1:
            raise QueryError(f"query ids start at >= 1, got {start}")
        self._ids = itertools.count(start)
        self._last = start - 1

    def allocate(self) -> int:
        """The next unused query id of this run."""
        self._last = next(self._ids)
        return self._last

    @property
    def last(self) -> int:
        """Highest id handed out so far (``start - 1`` when none)."""
        return self._last


#: well-known attribute the per-simulator allocator is stashed under
_SIM_ALLOCATOR_ATTR = "_query_id_allocator"


def per_run_allocator(sim) -> QueryIdAllocator:
    """The :class:`QueryIdAllocator` of one ``Simulator``, created on
    first use.  Every query id is allocated through this (experiment
    runner, continuous monitors, the query service, region queries), so
    two runs in one process produce identical id sequences."""
    alloc = getattr(sim, _SIM_ALLOCATOR_ATTR, None)
    if alloc is None:
        alloc = QueryIdAllocator()
        setattr(sim, _SIM_ALLOCATOR_ATTR, alloc)
    return alloc


@dataclass(frozen=True)
class KNNQuery:
    """A snapshot KNN query.

    Find the ``k`` sensor nodes nearest to ``point``; issued by node
    ``sink_id`` at ``issued_at``.  ``assurance_gain`` is the paper's
    ``g`` in [0, 1] controlling mobility-driven boundary expansion (§4.3).
    """

    query_id: int
    sink_id: int
    point: Vec2
    k: int
    issued_at: float
    assurance_gain: float = 0.1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.assurance_gain <= 1.0:
            raise QueryError("assurance gain must lie in [0, 1]")


@dataclass(frozen=True)
class Candidate:
    """One node's query response: identity, claimed location, reading."""

    node_id: int
    position: Vec2
    speed: float
    reading: float
    reported_at: float

    def distance_to(self, point: Vec2) -> float:
        return self.position.distance_to(point)


@dataclass
class QueryResult:
    """What the sink ends up with."""

    query: KNNQuery
    candidates: List[Candidate] = field(default_factory=list)
    completed_at: Optional[float] = None
    sectors_reported: int = 0
    sectors_total: int = 0
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.query.issued_at

    def top_k_ids(self) -> List[int]:
        """Ids of the k candidates closest to the query point (as reported)."""
        ranked = sorted(self.candidates,
                        key=lambda c: (c.distance_to(self.query.point),
                                       c.node_id))
        seen = set()
        out: List[int] = []
        for cand in ranked:
            if cand.node_id in seen:
                continue
            seen.add(cand.node_id)
            out.append(cand.node_id)
            if len(out) == self.query.k:
                break
        return out


def merge_candidates(existing: List[Candidate], new: List[Candidate],
                     point: Vec2, cap: int) -> List[Candidate]:
    """Merge candidate lists, dedupe by node id (keep freshest report),
    and keep only the ``cap`` closest to ``point``.

    Within one dissemination sector no more than ``k`` candidates can be
    in the global result, so capping bounds message growth (§3.3).
    """
    by_id: Dict[int, Candidate] = {}
    for cand in itertools.chain(existing, new):
        held = by_id.get(cand.node_id)
        if held is None or cand.reported_at > held.reported_at:
            by_id[cand.node_id] = cand
    ranked = sorted(by_id.values(),
                    key=lambda c: (c.distance_to(point), c.node_id))
    return ranked[:cap]
