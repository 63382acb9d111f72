"""DIKNN core: query types, KNNB estimation, itineraries, dissemination."""

from .base import CompletionFn, QueryProtocol
from .collection import (SCHEMES, CollectionPlan, build_precedence,
                         expected_new_responders, reply_delay,
                         scheme_reply_delay, should_reply,
                         token_ring_delay)
from .aggregate import (AggregateQuery, AggregateQueryProtocol,
                        AggregateResult, AggregateState, true_aggregate)
from .continuous import ContinuousKNNMonitor, MonitorRound, MonitorState
from .diknn import DIKNNConfig, DIKNNProtocol, near_sector_border, sector_of
from .dissemination import (NextHop, TokenState, advance_past_reached,
                            choose_next_qnode)
from .itinerary import (SectorItinerary, adj_segments_length,
                        build_itineraries, build_sector_itinerary,
                        extend_sector_itinerary, full_coverage_width,
                        init_segment_length, peri_segments_length)
from .knnb import (InfoList, conservative_radius, count_new_neighbors,
                   knnb_radius, optimal_radius)
from .query import (Candidate, KNNQuery, QueryIdAllocator, QueryResult,
                    merge_candidates, per_run_allocator)
from .rendezvous import (BoundaryDecision, SectorStats, evaluate_boundary,
                         merge_stats)
from .region import WindowQuery, build_serpentine_itinerary
from .window import (WindowQueryProtocol, WindowResult, nodes_in_window,
                     window_recall)

__all__ = [
    "CompletionFn", "QueryProtocol", "SCHEMES", "CollectionPlan",
    "build_precedence", "expected_new_responders", "reply_delay",
    "scheme_reply_delay", "should_reply", "token_ring_delay",
    "AggregateQuery", "AggregateQueryProtocol", "AggregateResult",
    "AggregateState", "true_aggregate",
    "ContinuousKNNMonitor", "MonitorRound", "MonitorState",
    "WindowQuery", "WindowQueryProtocol", "WindowResult",
    "build_serpentine_itinerary", "nodes_in_window", "window_recall",
    "DIKNNConfig",
    "DIKNNProtocol", "near_sector_border", "sector_of", "NextHop",
    "TokenState", "advance_past_reached", "choose_next_qnode",
    "SectorItinerary", "adj_segments_length", "build_itineraries",
    "build_sector_itinerary", "extend_sector_itinerary",
    "full_coverage_width", "init_segment_length", "peri_segments_length",
    "InfoList", "conservative_radius", "count_new_neighbors", "knnb_radius",
    "optimal_radius", "Candidate", "KNNQuery", "QueryResult",
    "merge_candidates", "QueryIdAllocator",
    "per_run_allocator", "BoundaryDecision", "SectorStats",
    "evaluate_boundary", "merge_stats",
]
