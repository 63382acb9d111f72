"""DIKNN: Density-aware Itinerary KNN query processing (the paper's §3–4).

Execution phases:

1. **Routing phase** — the query is GPSR-routed from the sink to the home
   node (nearest node to the query point q); each hop appends its location
   and newly-encountered-neighbor count to the information list L (§4.1).
2. **KNN boundary estimation** — the home node runs the linear KNNB
   algorithm over L to get the boundary radius R (§4.2).
3. **Query dissemination** — the boundary is split into S cone-shaped
   sectors traversed by concurrent sub-itineraries.  Q-nodes broadcast
   probes; D-nodes reply with angle-spread contention timers; partial
   results ride the token to the next Q-node.  Rendezvous gossip at sector
   borders feeds dynamic boundary adjustment (§4.3); the last Q-node of a
   sector applies the mobility assurance expansion R' = R + g(te-ts)µ and
   finally routes the sector's bundle back to the sink.

The sink merges the S sector bundles into the query result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..geometry import TWO_PI, Vec2, normalize_angle
from ..net.messages import Message
from ..net.node import SensorNode
from ..sim.engine import EventHandle
from .base import CompletionFn, QueryProtocol
from .collection import (CollectionPlan, build_precedence,
                         expected_new_responders, scheme_reply_delay,
                         should_reply)
from .dissemination import NextHop, TokenState, choose_next_qnode
from .itinerary import SectorItinerary, full_coverage_width
from .knnb import InfoList, count_new_neighbors, knnb_radius
from .query import Candidate, KNNQuery, QueryResult, merge_candidates
from .rendezvous import (SectorStats, evaluate_boundary,
                         merge_stats)


@dataclass(frozen=True)
class DIKNNConfig:
    """Tunables of the DIKNN protocol (paper defaults from §5.1)."""

    sectors: int = 8
    width: Optional[float] = None      # default: sqrt(3)/2 * radio range
    spacing_factor: float = 0.8        # waypoint spacing as fraction of r
    time_unit_s: float = 0.018         # m, the data-collection time unit
    collection_scheme: str = "hybrid"  # footnote 1: contention, token_ring,
                                       # or the hybrid of both
    rendezvous: bool = True            # dynamic boundary adjustment (§4.3)
    lookahead: int = 4                 # void-bypass waypoint lookahead
    max_detours: int = 4               # consecutive no-progress hops before
                                       # a sector gives up (empty region)
    link_margin: float = 0.9           # next-Q-node link safety margin
    max_boundary_extensions: int = 1
    extend_cap_factor: float = 1.6     # max extension multiple of initial R
    boundary_slack_factor: float = 0.5  # D-nodes reply within R + slack*w
    query_base_bytes: int = 20
    probe_bytes: int = 24
    data_base_bytes: int = 10
    rendezvous_base_bytes: int = 12
    result_base_bytes: int = 16
    requery_base_bytes: int = 22
    #: sink-side per-sector watchdog: after this many seconds without a
    #: sector's result bundle, a fresh sub-itinerary token is re-dispatched
    #: into the missing sectors (None/0 disables self-healing).
    sector_watchdog_s: Optional[float] = 2.5
    max_sector_retries: int = 2

    def __post_init__(self) -> None:
        if self.sectors < 1:
            raise ValueError("sector count must be >= 1")
        if self.time_unit_s <= 0:
            raise ValueError("time unit must be positive")
        if self.sector_watchdog_s is not None and self.sector_watchdog_s < 0:
            raise ValueError("sector watchdog must be >= 0 or None")
        if self.max_sector_retries < 0:
            raise ValueError("max sector retries must be >= 0")


def sector_of(point: Vec2, center: Vec2, sectors: int) -> int:
    """Which of the S sectors (CCW from angle 0) contains ``point``."""
    if point == center:
        return 0
    angle = normalize_angle((point - center).angle())
    return min(int(angle / (TWO_PI / sectors)), sectors - 1)


def near_sector_border(point: Vec2, center: Vec2, sectors: int,
                       width: float) -> bool:
    """True when ``point`` is within ~w of a sector border line — the
    rendezvous areas of Figure 6."""
    if sectors < 2:
        return False
    rho = point.distance_to(center)
    if rho <= 1e-9:
        return True
    angle = normalize_angle((point - center).angle())
    sector_angle = TWO_PI / sectors
    offset = math.fmod(angle, sector_angle)
    to_border = min(offset, sector_angle - offset)
    return rho * math.sin(to_border) <= width


class _QNodeSession:
    """Transient per-Q-node collection state (lives on the current host)."""

    __slots__ = ("node_id", "query_id", "sector", "token", "plan",
                 "prev_pos", "replies", "gossip", "deadline")

    def __init__(self, node_id: int, query_id: int, sector: int,
                 token: Optional[TokenState], plan: CollectionPlan,
                 prev_pos: Optional[Vec2]):
        self.node_id = node_id
        self.query_id = query_id
        self.sector = sector
        self.token = token
        self.plan = plan
        self.prev_pos = prev_pos
        self.replies: List[tuple] = []
        self.gossip: Dict[int, SectorStats] = {}
        self.deadline: Optional[EventHandle] = None


class DIKNNProtocol(QueryProtocol):
    """The paper's contribution, as a pluggable query protocol."""

    name = "diknn"

    KIND_QUERY = "diknn.query"
    KIND_TOKEN = "diknn.token"
    KIND_PROBE = "diknn.probe"
    KIND_DATA = "diknn.data"
    KIND_RDV = "diknn.rdv"
    KIND_RESULT = "diknn.result"
    KIND_REQUERY = "diknn.requery"

    HOME_SECTOR = -1

    def __init__(self, config: Optional[DIKNNConfig] = None):
        super().__init__()
        self.config = config or DIKNNConfig()
        self._sessions: Dict[Tuple[int, int], _QNodeSession] = {}
        self._responded: Dict[int, Set[int]] = {}
        self._rdv_cache: Dict[int, Dict[int, Dict[int, SectorStats]]] = {}
        self._homes_seen: Set[int] = set()
        self._initial_radius: Dict[int, float] = {}
        self._qnode_hops: Dict[int, int] = {}
        # Sink-side self-healing state: which sectors have reported
        # (duplicate-bundle suppression) and the per-query watchdog.
        self._sectors_seen: Dict[int, Set[int]] = {}
        self._watchdogs: Dict[int, dict] = {}
        self._requeries_seen: Set[Tuple[int, int]] = set()
        #: sector re-dispatches performed (diagnostics/tests)
        self.redispatches = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _install_handlers(self) -> None:
        self.router.on_hop(self.KIND_QUERY, self._on_query_hop)
        self.router.on_deliver(self.KIND_QUERY, self._on_query_delivered)
        self.router.on_hop(self.KIND_REQUERY, self._on_query_hop)
        self.router.on_deliver(self.KIND_REQUERY, self._on_requery_delivered)
        self.router.on_deliver(self.KIND_RESULT, self._on_result)
        self.network.register_handler(self.KIND_TOKEN, self._on_token)
        self.network.register_handler(self.KIND_PROBE, self._on_probe)
        self.network.register_handler(self.KIND_DATA, self._on_data)
        self.network.register_handler(self.KIND_RDV, self._on_rendezvous)

    @property
    def _width(self) -> float:
        if self.config.width is not None:
            return self.config.width
        return full_coverage_width(self.network.radio.range_m)

    @property
    def _spacing(self) -> float:
        return self.config.spacing_factor * self.network.radio.range_m

    @property
    def _link_reach(self) -> float:
        return self.config.link_margin * self.network.radio.range_m

    def _extend_cap(self, initial_radius: float) -> float:
        """Hard bound for dynamic extensions: a multiple of the first
        estimate (the network diameter would also bound anything sensible,
        but is unknown to the nodes)."""
        return self.config.extend_cap_factor * initial_radius

    # ------------------------------------------------------------------
    # phase 1: issue + routing with information gathering
    # ------------------------------------------------------------------

    #: route-drop retries for the query and per-sector result bundles
    MAX_ROUTE_RETRIES = 2
    RETRY_PAUSE_S = 0.25

    def issue(self, sink: SensorNode, query: KNNQuery,
              on_complete: CompletionFn) -> None:
        self._register_query(query, self.config.sectors, on_complete)
        for obs in self.network.sim.probe.protocol:
            obs.query_issued(query, sink.id, self.network.sim.now)
        if self.config.sector_watchdog_s:
            self._watchdogs[query.query_id] = {
                "sink": sink, "query": query, "retries": 0,
                "handle": self.network.sim.schedule_in(
                    self.config.sector_watchdog_s,
                    lambda: self._watchdog_fire(query.query_id)),
            }
        self._send_query(sink, query, attempt=0)

    def _send_query(self, sink: SensorNode, query: KNNQuery,
                    attempt: int) -> None:
        for obs in self.network.sim.probe.protocol:
            obs.route_attempt(query.query_id, attempt,
                              self.network.sim.now)
        payload = {
            "query_id": query.query_id,
            "k": query.k,
            "g": query.assurance_gain,
            "point": (query.point.x, query.point.y),
            "sink_id": sink.id,
            "sink_pos": (sink.position().x, sink.position().y),
            "L": {"locs": [], "encs": []},
        }

        def _on_drop(_inner: dict, _node) -> None:
            # The routing phase died mid-network (mobility): re-issue after
            # a beat, with a fresh information list.
            if attempt >= self.MAX_ROUTE_RETRIES or not sink.alive:
                return
            self.network.sim.schedule_in(
                self.RETRY_PAUSE_S,
                lambda: self._send_query(sink, query, attempt + 1))

        self.router.send(sink, query.point, self.KIND_QUERY, payload,
                         self.config.query_base_bytes, on_drop=_on_drop)

    def _on_query_hop(self, node: SensorNode, inner: dict) -> Optional[int]:
        """Routing-phase information gathering (§4.1): append loc_i, enc_i."""
        pos = node.position()
        locs = inner["L"]["locs"]
        encs = inner["L"]["encs"]
        prev = Vec2(*locs[-1]) if locs else None
        neighbor_positions = [e.position for e in node.neighbors()]
        enc = count_new_neighbors(neighbor_positions, prev,
                                  self.network.radio.range_m)
        locs.append((pos.x, pos.y))
        encs.append(enc)
        return (self.config.query_base_bytes
                + len(locs) * InfoList.ENTRY_BYTES)

    # ------------------------------------------------------------------
    # phase 2: home node — KNNB + initial collection
    # ------------------------------------------------------------------

    def _on_query_delivered(self, node: SensorNode, inner: dict) -> None:
        query_id = inner["query_id"]
        if query_id in self._homes_seen:
            return
        self._homes_seen.add(query_id)
        q = Vec2(*inner["point"])
        info = InfoList.from_payload(inner["L"])
        radius = knnb_radius(info, q, self.network.radio.range_m,
                             inner["k"])
        self._initial_radius[query_id] = radius
        for obs in self.network.sim.probe.protocol:
            obs.home_reached(query_id, node.id, radius,
                             inner.get("_route_hops",
                                       len(inner["L"]["locs"])),
                             self.network.sim.now)
        # Dissemination starts immediately: the home node fans the sector
        # tokens out in parallel; collection happens at the sector Q-nodes
        # (keeping the home from serializing a collection window of its
        # own ahead of everything else).
        self._dispatch_sectors(node, query_id, inner, q, radius)

    def _make_plan(self, node: SensorNode, q: Vec2, radius: float,
                   prev_pos: Optional[Vec2]) -> CollectionPlan:
        scheme = self.config.collection_scheme
        boundary = radius + self.config.boundary_slack_factor * self._width
        entries = node.neighbors()
        ref = (q - node.position()).angle() if q != node.position() else 0.0
        # Pure contention never suppresses previously-covered nodes.
        suppress_prev = prev_pos if scheme == "hybrid" else None
        expected = expected_new_responders(
            [e.position for e in entries], q, boundary, suppress_prev,
            self.network.radio.range_m)
        precedence = ()
        if scheme == "token_ring":
            b_sq = boundary * boundary
            in_boundary = [e for e in entries
                           if e.position.distance_sq_to(q) <= b_sq]
            precedence = build_precedence(node.position(), ref, in_boundary)
        return CollectionPlan(reference_angle=ref,
                              expected_responders=expected,
                              time_unit_s=self.config.time_unit_s,
                              scheme=scheme, precedence=precedence)

    def _send_probe(self, node: SensorNode, session: _QNodeSession,
                    q: Vec2, radius: float) -> None:
        pos = node.position()
        plan = session.plan
        suppress = (session.prev_pos
                    if plan.scheme == "hybrid" else None)
        node.broadcast(self.KIND_PROBE, {
            "query_id": session.query_id,
            "sector": session.sector,
            "qnode": node.id,
            "qnode_pos": (pos.x, pos.y),
            "point": (q.x, q.y),
            "radius": radius,
            "ref_angle": plan.reference_angle,
            "expected": plan.expected_responders,
            "m": plan.time_unit_s,
            "scheme": plan.scheme,
            "precedence": list(plan.precedence),
            "prev_pos": ((suppress.x, suppress.y)
                         if suppress is not None else None),
        }, plan.wire_bytes(self.config.probe_bytes))

    def _dispatch_sectors(self, node: SensorNode, query_id: int,
                          inner: dict, q: Vec2, radius: float,
                          sectors: Optional[List[int]] = None) -> None:
        """Fan sub-itinerary tokens out of ``node`` (the home node).

        ``sectors`` restricts dispatch to those sector indices (used by
        the sink watchdog's re-dispatch); default is all of them.
        """
        if not node.alive:
            return
        cfg = self.config
        now = self.network.sim.now
        pos = node.position()
        targets = (list(range(cfg.sectors)) if sectors is None
                   else [j for j in sectors if 0 <= j < cfg.sectors])

        # The home node contributes its own response to its sector's
        # token; everyone else is collected by the sector Q-nodes.
        per_sector: Dict[int, List[tuple]] = {j: [] for j in targets}
        home_sector = sector_of(pos, q, cfg.sectors)
        if home_sector in per_sector and \
                query_id not in self._responded.get(node.id, set()):
            self._mark_responded(node.id, query_id)
            per_sector[home_sector].append(self._candidate_tuple(node, now))

        finished: List[TokenState] = []
        neighbors = node.neighbors()
        for j in targets:
            for obs in self.network.sim.probe.protocol:
                obs.sector_dispatched(query_id, j, node.id, now)
            token = TokenState(
                query_id=query_id, sink_id=inner["sink_id"],
                sink_pos=Vec2(*inner["sink_pos"]), point=q, k=inner["k"],
                assurance_gain=inner["g"], sectors_total=cfg.sectors,
                sector=j,
                width=self._width, spacing=self._spacing,
                inverted=(cfg.rendezvous and j % 2 == 1),
                radius_history=[radius], started_at=now)
            token.candidates = self._merge_wire([], per_sector[j], q,
                                                inner["k"])
            token.explored = len(per_sector[j])
            token.record_visit(node.id)
            token.stats[j] = SectorStats(
                explored=token.explored,
                progress_radius=min(pos.distance_to(q)
                                    + self.network.radio.range_m,
                                    radius)).to_wire()
            itinerary = self._itinerary(token)
            hop = choose_next_qnode(pos, neighbors, itinerary.waypoints,
                                    token.waypoint_index, token.width,
                                    token.visited, cfg.lookahead,
                                    max_reach=self._link_reach)
            self._note_hop(token, hop, node)
            if hop.node_id is None:
                self._note_finish(node, token, hop, itinerary)
                finished.append(token)
            else:
                self._send_token(node, hop.node_id, token,
                                 first_hop=True)

        if finished:
            self._send_result_bundle(node, finished)

    def _note_hop(self, token: TokenState, hop: NextHop,
                  node: Optional[SensorNode] = None) -> None:
        """Update waypoint progress and the void-detour budget."""
        token.waypoint_index = hop.waypoint_index
        if hop.void_detour:
            token.voids += 1
            token.consecutive_detours += 1
            if node is not None:
                for obs in self.network.sim.probe.protocol:
                    obs.sector_void(token.query_id, token.sector, node.id,
                                    token.voids, token.consecutive_detours,
                                    self.network.sim.now)
        else:
            token.consecutive_detours = 0

    def _note_finish(self, node: SensorNode, token: TokenState,
                     hop: NextHop, itinerary) -> None:
        """Observer note of why a sector traversal ended here."""
        observers = self.network.sim.probe.protocol
        if not observers:
            return
        if token.consecutive_detours > self.config.max_detours:
            reason = "detours_exhausted"
        elif hop.dead_end:
            reason = "dead_end"
        else:
            reason = "plan_complete"
        progress = itinerary.progress_fraction(token.waypoint_index)
        for obs in observers:
            obs.sector_finished(token.query_id, token.sector, node.id,
                                reason, token.waypoint_index, token.voids,
                                progress, self.network.sim.now)

    def _itinerary(self, token: TokenState) -> SectorItinerary:
        """Rebuild ``token``'s waypoint plan and announce it on the
        probe's ``itinerary`` channel."""
        itinerary = token.build_itinerary()
        for fn in self.network.sim.probe.itinerary:
            fn(itinerary)
        return itinerary

    def _hop_exhausted(self, token: TokenState, hop: NextHop) -> bool:
        """True when the traversal should end here: plan complete, dead
        end, or too many consecutive detours (the sector is empty)."""
        return (hop.node_id is None
                or token.consecutive_detours > self.config.max_detours)

    # ------------------------------------------------------------------
    # phase 3: itinerary traversal
    # ------------------------------------------------------------------

    def _send_token(self, node: SensorNode, next_id: int,
                    token: TokenState, first_hop: bool = False) -> None:
        # A dispatching home node has not collected its neighborhood, so
        # the first Q-node must not suppress it as already-covered.
        pos = None if first_hop else node.position()

        def _on_fail(_msg: Message) -> None:
            # The chosen Q-node moved away: evict it and pick another.
            node.forget_neighbor(next_id)
            self._retry_token(node, token)

        node.send(next_id, self.KIND_TOKEN,
                  {"token": token.to_payload(),
                   "prev_pos": (pos.x, pos.y) if pos is not None else None},
                  token.wire_bytes(), on_fail=_on_fail)

    def _retry_token(self, node: SensorNode, token: TokenState) -> None:
        if not node.alive:
            return
        for obs in self.network.sim.probe.protocol:
            obs.token_retry(token.query_id, token.sector, node.id,
                            self.network.sim.now)
        itinerary = self._itinerary(token)
        hop = choose_next_qnode(node.position(), node.neighbors(),
                                itinerary.waypoints, token.waypoint_index,
                                token.width, token.visited,
                                self.config.lookahead,
                                max_reach=self._link_reach)
        self._note_hop(token, hop, node)
        if self._hop_exhausted(token, hop):
            self._note_finish(node, token, hop, itinerary)
            self._send_result_bundle(node, [token])
        else:
            self._send_token(node, hop.node_id, token)

    def _on_token(self, node: SensorNode, message: Message) -> None:
        token = TokenState.from_payload(message.payload["token"])
        prev_raw = message.payload["prev_pos"]
        prev_pos = Vec2(*prev_raw) if prev_raw is not None else None
        token.record_visit(node.id)
        self._qnode_hops[token.query_id] = \
            self._qnode_hops.get(token.query_id, 0) + 1
        now = self.network.sim.now
        for obs in self.network.sim.probe.protocol:
            obs.token_hop(token.query_id, token.sector, node.id, now)
        # The Q-node contributes its own response.
        if token.query_id not in self._responded.get(node.id, set()):
            self._mark_responded(node.id, token.query_id)
            token.candidates = self._merge_wire(
                token.candidates, [self._candidate_tuple(node, now)],
                token.point, token.k)
            token.explored += 1
        token.max_speed = max(token.max_speed, node.speed())

        session = _QNodeSession(
            node.id, token.query_id, token.sector, token,
            plan=self._make_plan(node, token.point, token.radius,
                                 prev_pos=prev_pos),
            prev_pos=prev_pos)
        # Merge any rendezvous gossip this node heard earlier.
        cached = self._rdv_cache.get(node.id, {}).get(token.query_id)
        if cached:
            merge_stats(session.gossip, cached)
        self._sessions[(token.query_id, token.sector)] = session
        self._send_probe(node, session, token.point, token.radius)
        session.deadline = self.network.sim.schedule_in(
            session.plan.window_s, lambda: self._advance(node, session))

    def _on_probe(self, node: SensorNode, message: Message) -> None:
        p = message.payload
        if node.id == p["qnode"]:
            return
        query_id = p["query_id"]
        pos = node.position()
        q = Vec2(*p["point"])
        prev_pos = Vec2(*p["prev_pos"]) if p["prev_pos"] else None
        already = query_id in self._responded.get(node.id, set())
        slack = self.config.boundary_slack_factor * self._width
        if not should_reply(pos, q, p["radius"] + slack, prev_pos,
                            self.network.radio.range_m, already):
            return
        qnode_pos = Vec2(*p["qnode_pos"])
        delay = scheme_reply_delay(p.get("scheme", "hybrid"),
                                   p["ref_angle"], p["expected"], p["m"],
                                   p.get("precedence", ()), node.id,
                                   qnode_pos, pos)
        if delay is None:
            return  # token ring: not polled, stay silent
        self._mark_responded(node.id, query_id)
        qnode_id = p["qnode"]
        sector = p["sector"]

        def _reply() -> None:
            if not node.alive:
                return
            now = self.network.sim.now
            cached = self._rdv_cache.get(node.id, {}).get(query_id, {})
            stats_wire = {s: st.to_wire() for s, st in cached.items()}
            node.send(qnode_id, self.KIND_DATA, {
                "query_id": query_id,
                "sector": sector,
                "candidate": self._candidate_tuple(node, now),
                "stats": stats_wire,
            }, self.config.data_base_bytes
               + TokenState.STAT_BYTES * len(stats_wire))

        self.network.sim.schedule_in(delay, _reply)

    def _on_data(self, node: SensorNode, message: Message) -> None:
        p = message.payload
        session = self._sessions.get((p["query_id"], p["sector"]))
        if session is None or session.node_id != node.id:
            return  # window closed or token moved on — reply wasted
        session.replies.append(tuple(p["candidate"]))
        gossip = {int(s): SectorStats.from_wire(w)
                  for s, w in p["stats"].items()}
        merge_stats(session.gossip, gossip)

    def _on_rendezvous(self, node: SensorNode, message: Message) -> None:
        p = message.payload
        query_id = p["query_id"]
        stats = {int(s): SectorStats.from_wire(w)
                 for s, w in p["stats"].items()}
        cache = self._rdv_cache.setdefault(node.id, {}) \
                               .setdefault(query_id, {})
        merge_stats(cache, stats)
        # Live Q-node sessions on this node also absorb the gossip.
        for (qid, _sector), session in self._sessions.items():
            if qid == query_id and session.node_id == node.id:
                merge_stats(session.gossip, stats)

    # ------------------------------------------------------------------
    # Q-node advancement
    # ------------------------------------------------------------------

    def _advance(self, node: SensorNode, session: _QNodeSession) -> None:
        if self._sessions.get((session.query_id, session.sector)) is not session:
            return
        del self._sessions[(session.query_id, session.sector)]
        if not node.alive:
            return
        token = session.token
        cfg = self.config
        now = self.network.sim.now
        pos = node.position()
        q = token.point
        for obs in self.network.sim.probe.protocol:
            obs.window_closed(session.query_id, session.sector,
                              node.id, len(session.replies), now)

        # Fold collected replies into the partial result.
        token.explored += len(session.replies)
        token.candidates = self._merge_wire(token.candidates,
                                            session.replies, q, token.k)
        for cand in session.replies:
            token.max_speed = max(token.max_speed, float(cand[3]))

        # Update own-sector statistics and absorb gossip.
        progress = max(pos.distance_to(q),
                       SectorStats.from_wire(
                           token.stats.get(token.sector, (0, 0.0))
                       ).progress_radius)
        own = SectorStats(explored=token.explored, progress_radius=progress)
        stats = {int(s): SectorStats.from_wire(w)
                 for s, w in token.stats.items()}
        merge_stats(stats, session.gossip)
        stats[token.sector] = own
        token.stats = {s: st.to_wire() for s, st in stats.items()}

        # Rendezvous: near a sector border, gossip our statistics so the
        # adjacent sub-itinerary can pick them up (§4.3).
        if cfg.rendezvous and near_sector_border(pos, q,
                                                 token.sectors_total,
                                                 token.width):
            node.broadcast(self.KIND_RDV, {
                "query_id": token.query_id,
                "stats": dict(token.stats),
            }, cfg.rendezvous_base_bytes
               + TokenState.STAT_BYTES * len(token.stats))

        # Dynamic boundary adjustment from the gossiped global picture.
        if cfg.rendezvous:
            decision = evaluate_boundary(
                stats, token.sectors_total, token.k, token.radius,
                progress_radius=progress,
                extend_cap=self._extend_cap(token.radius_history[0]))
            if decision.action == "stop":
                self._send_result_bundle(node, [token])
                return
            if (decision.action == "extend"
                    and token.boundary_extensions
                    < cfg.max_boundary_extensions):
                token.radius_history.append(decision.new_radius)
                token.boundary_extensions += 1

        self._forward_or_finish(node, token, now)

    def _forward_or_finish(self, node: SensorNode, token: TokenState,
                           now: float) -> None:
        cfg = self.config
        itinerary = self._itinerary(token)
        hop = choose_next_qnode(node.position(), node.neighbors(),
                                itinerary.waypoints, token.waypoint_index,
                                token.width, token.visited, cfg.lookahead,
                                max_reach=self._link_reach)
        if hop.node_id is None and not hop.dead_end \
                and not token.assurance_extended \
                and token.assurance_gain > 0.0 and token.max_speed > 0.0:
            # Mobility assurance (§4.3): the last Q-node expands the
            # boundary by the maximum node displacement seen so far.
            expansion = (token.assurance_gain * (now - token.started_at)
                         * token.max_speed)
            if expansion > token.width / 4.0:
                token.assurance_extended = True
                token.radius_history.append(token.radius + expansion)
                itinerary = self._itinerary(token)
                hop = choose_next_qnode(node.position(), node.neighbors(),
                                        itinerary.waypoints,
                                        token.waypoint_index, token.width,
                                        token.visited, cfg.lookahead,
                                        max_reach=self._link_reach)
        self._note_hop(token, hop, node)
        if self._hop_exhausted(token, hop):
            self._note_finish(node, token, hop, itinerary)
            self._send_result_bundle(node, [token])
        else:
            self._send_token(node, hop.node_id, token)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _send_result_bundle(self, node: SensorNode,
                            tokens: List[TokenState]) -> None:
        first = tokens[0]
        for obs in self.network.sim.probe.protocol:
            obs.bundle_sent(first.query_id,
                            [t.sector for t in tokens], node.id,
                            self.network.sim.now)
        merged: List[tuple] = []
        for token in tokens:
            merged = self._merge_wire(merged, token.candidates, first.point,
                                      first.k)
        payload = {
            "query_id": first.query_id,
            "sectors": [t.sector for t in tokens],
            "cands": merged,
            "voids": sum(t.voids for t in tokens),
            "explored": sum(t.explored for t in tokens),
            "radius": max(t.radius for t in tokens),
            "ts": first.started_at,
        }
        self._route_result(node, first.sink_pos, first.sink_id, payload,
                           attempt=0)

    def _route_result(self, node: SensorNode, sink_pos: Vec2, sink_id: int,
                      payload: dict, attempt: int) -> None:
        size = (self.config.result_base_bytes
                + TokenState.CANDIDATE_BYTES * len(payload["cands"]))

        def _on_drop(inner: dict, drop_node) -> None:
            # The bundle died en route (mobility): retry from wherever it
            # got to, once neighbor tables have had a beat to refresh.
            if attempt >= self.MAX_ROUTE_RETRIES:
                return
            origin = drop_node if drop_node is not None else node
            if not origin.alive:
                return
            self.network.sim.schedule_in(
                self.RETRY_PAUSE_S,
                lambda: self._route_result(origin, sink_pos, sink_id,
                                           payload, attempt + 1))

        self.router.send(node, sink_pos, self.KIND_RESULT, payload, size,
                         dst_id=sink_id, on_drop=_on_drop)

    # ------------------------------------------------------------------
    # sink-side self-healing: per-sector watchdog + re-dispatch
    # ------------------------------------------------------------------

    def _watchdog_fire(self, query_id: int) -> None:
        """Re-dispatch fresh sub-itinerary tokens into sectors whose
        result bundle never arrived (bounded retries)."""
        wd = self._watchdogs.get(query_id)
        if wd is None or self._is_finalized(query_id):
            return
        result = self._result_of(query_id)
        if result is None:
            return
        sink: SensorNode = wd["sink"]
        missing = sorted(set(range(result.sectors_total))
                         - self._sectors_seen.get(query_id, set()))
        if not missing or not sink.alive \
                or wd["retries"] >= self.config.max_sector_retries:
            return  # healthy, sink dead, or out of retries: let the
                    # runner's timeout finalize the partial result
        wd["retries"] += 1
        self.redispatches += len(missing)
        for obs in self.network.sim.probe.protocol:
            obs.requery_dispatched(query_id, missing,
                                   self.network.sim.now)
        self._send_requery(sink, wd["query"], missing, wd["retries"])
        wd["handle"] = self.network.sim.schedule_in(
            self.config.sector_watchdog_s,
            lambda: self._watchdog_fire(query_id))

    def _send_requery(self, sink: SensorNode, query: KNNQuery,
                      sectors: List[int], attempt: int) -> None:
        """Route a sector-restricted re-query toward q.  Like the
        original query it gathers a fresh information list en route, so
        the (possibly different) home node can recompute the KNN boundary
        if the sink has no radius hint yet."""
        result = self._result_of(query.query_id)
        hint = None
        if result is not None and result.meta.get("radius"):
            hint = result.meta["radius"]
        self.router.send(sink, query.point, self.KIND_REQUERY, {
            "query_id": query.query_id,
            "k": query.k,
            "g": query.assurance_gain,
            "point": (query.point.x, query.point.y),
            "sink_id": sink.id,
            "sink_pos": (sink.position().x, sink.position().y),
            "sectors": list(sectors),
            "attempt": attempt,
            "radius_hint": hint,
            "L": {"locs": [], "encs": []},
        }, self.config.requery_base_bytes)

    def _on_requery_delivered(self, node: SensorNode, inner: dict) -> None:
        query_id = inner["query_id"]
        key = (query_id, inner["attempt"])
        if key in self._requeries_seen:
            return
        self._requeries_seen.add(key)
        if self._is_finalized(query_id):
            return
        q = Vec2(*inner["point"])
        radius = inner.get("radius_hint")
        if not radius:
            info = InfoList.from_payload(inner["L"])
            radius = knnb_radius(info, q, self.network.radio.range_m,
                                 inner["k"])
        self._dispatch_sectors(node, query_id, inner, q, radius,
                               sectors=inner["sectors"])

    def _on_result(self, node: SensorNode, inner: dict) -> None:
        query_id = inner["query_id"]
        if self._is_finalized(query_id):
            return  # late bundle after completion/abandon: drop
        result = self._result_of(query_id)
        if result is None:
            return
        for obs in self.network.sim.probe.protocol:
            obs.bundle_received(query_id, inner["sectors"],
                                self.network.sim.now)
        self._merge_bundle(query_id, result, inner)
        for obs in self.network.sim.probe.protocol:
            obs.bundle_merged(query_id, inner, node.id, self.network.sim.now)

    def _merge_bundle(self, query_id: int, result: QueryResult,
                      inner: dict) -> None:
        """Merge one live result bundle into the sink's answer; the
        bundle that reports the last sector completes the query."""
        new = [self._from_wire(c) for c in inner["cands"]]
        result.candidates = merge_candidates(
            result.candidates, new, result.query.point,
            cap=max(result.query.k * 4, 64))
        # Idempotent duplicate-bundle suppression: a retried sector that
        # also delivered its original bundle may merge candidates (the
        # merge dedupes by node id) but must not double-count sectors,
        # exploration counters or voids.
        seen = self._sectors_seen.setdefault(query_id, set())
        new_sectors = [s for s in inner["sectors"] if s not in seen]
        if not new_sectors:
            return
        seen.update(new_sectors)
        result.sectors_reported = len(seen)
        meta = result.meta
        meta["voids"] = meta.get("voids", 0.0) + inner["voids"]
        meta["explored"] = meta.get("explored", 0.0) + inner["explored"]
        meta["radius"] = max(meta.get("radius", 0.0), inner["radius"])
        meta["initial_radius"] = self._initial_radius.get(query_id, 0.0)
        meta["qnode_hops"] = float(self._qnode_hops.get(query_id, 0))
        if result.sectors_reported >= result.sectors_total:
            self._complete(query_id)

    def _on_finalize(self, query_id: int) -> None:
        """Cancel the watchdog and drop sink-side sector bookkeeping the
        moment a query completes or is abandoned."""
        wd = self._watchdogs.pop(query_id, None)
        if wd is not None and wd.get("handle") is not None:
            wd["handle"].cancel()
        self._sectors_seen.pop(query_id, None)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def sectors_seen(self, query_id: int) -> frozenset:
        """Sector indices whose result bundle the sink has accounted for
        (read-only; diagnostics and the validation layer)."""
        return frozenset(self._sectors_seen.get(query_id, ()))

    def _mark_responded(self, node_id: int, query_id: int) -> None:
        self._responded.setdefault(node_id, set()).add(query_id)

    @staticmethod
    def _candidate_tuple(node: SensorNode, now: float) -> tuple:
        pos = node.position()
        return (node.id, pos.x, pos.y, node.speed(), node.reading, now)

    @staticmethod
    def _from_wire(data: tuple) -> Candidate:
        return Candidate(node_id=int(data[0]),
                         position=Vec2(float(data[1]), float(data[2])),
                         speed=float(data[3]), reading=float(data[4]),
                         reported_at=float(data[5]))

    @staticmethod
    def _to_wire(cand: Candidate) -> tuple:
        return (cand.node_id, cand.position.x, cand.position.y, cand.speed,
                cand.reading, cand.reported_at)

    @classmethod
    def _merge_wire(cls, existing: List[tuple], new, point: Vec2,
                    cap: int) -> List[tuple]:
        merged = merge_candidates([cls._from_wire(c) for c in existing],
                                  [cls._from_wire(c) for c in new],
                                  point, cap)
        return [cls._to_wire(c) for c in merged]
