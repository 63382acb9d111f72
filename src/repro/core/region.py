"""One itinerary traversal for queries over a rectangular region.

A region query is routed to the node nearest the window center, which
becomes the first Q-node.  The token then walks a single serpentine
itinerary that sweeps the window in strips of the itinerary width w
(after Xu et al.'s window-query work, [31]).  At each Q-node the
in-window neighbors answer a probe in contention-timed slots (§3.3), the
replies fold into the token, and the token moves on; the last Q-node
routes the result to the sink.

:class:`RegionQueryProtocol` owns that traversal.  What the token
carries is decided by a subclass, the *reducer*: the window query
enumerates candidates (:mod:`repro.core.window`), the aggregate query
folds readings into a constant-size state (:mod:`repro.core.aggregate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..geometry import Rect, Vec2
from ..net.messages import Message
from ..net.node import SensorNode
from .collection import CollectionPlan, reply_delay
from .dissemination import choose_next_qnode
from .itinerary import full_coverage_width
from .query import per_run_allocator


def build_serpentine_itinerary(window: Rect, width: float,
                               spacing: float) -> List[Vec2]:
    """Waypoints sweeping ``window`` in horizontal strips spaced ``width``.

    The first strip runs w/2 above the bottom edge so the whole window is
    within w/2 of the path; strips alternate direction (boustrophedon).
    """
    if width <= 0 or spacing <= 0:
        raise ValueError("width and spacing must be positive")
    waypoints: List[Vec2] = []
    y = window.y_min + width / 2.0
    leftward = False
    while y - width / 2.0 < window.y_max - 1e-9:
        yy = min(y, window.y_max)
        n = max(2, int(math.ceil(window.width / spacing)) + 1)
        xs = [window.x_min + window.width * i / (n - 1) for i in range(n)]
        if leftward:
            xs.reverse()
        for x in xs:
            p = Vec2(x, yy)
            if not waypoints or waypoints[-1].distance_to(p) > 1e-9:
                waypoints.append(p)
        leftward = not leftward
        y += width
    return waypoints


@dataclass(frozen=True)
class WindowQuery:
    """A query over every node inside ``window`` as of execution time."""

    query_id: int
    sink_id: int
    window: Rect
    issued_at: float

    @staticmethod
    def make(sim, sink_id: int, window: Rect) -> "WindowQuery":
        """A query issued now, with the next query id of ``sim``'s run."""
        return WindowQuery(query_id=per_run_allocator(sim).allocate(),
                           sink_id=sink_id, window=window,
                           issued_at=sim.now)


class _Session:
    """One Q-node's collection round: the token it holds and the replies
    its probe has drawn so far."""

    __slots__ = ("node_id", "query_id", "token", "replies")

    def __init__(self, node_id: int, query_id: int, token: dict):
        self.node_id = node_id
        self.query_id = query_id
        self.token = token
        self.replies: list = []


class RegionQueryProtocol:
    """Serpentine-itinerary traversal of a rectangular region.

    Subclasses set the message kinds, ``name`` and ``result_type``, and
    implement the reducer methods below the traversal.
    """

    name = ""
    result_type: type = object

    KIND_QUERY = ""
    KIND_TOKEN = ""
    KIND_PROBE = ""
    KIND_DATA = ""
    KIND_RESULT = ""

    MAX_ROUTE_RETRIES = 2
    RETRY_PAUSE_S = 0.25

    def __init__(self, width: Optional[float] = None,
                 spacing_factor: float = 0.8,
                 time_unit_s: float = 0.018,
                 max_detours: int = 4):
        self.network = None
        self.router = None
        self.width = width
        self.spacing_factor = spacing_factor
        self.time_unit_s = time_unit_s
        self.max_detours = max_detours
        self._pending: Dict[int, object] = {}
        self._callbacks: Dict[int, object] = {}
        self._responded: Dict[int, Set[int]] = {}
        self._sessions: Dict[int, _Session] = {}
        self._homes_seen: Set[int] = set()

    # -- lifecycle ---------------------------------------------------------

    def install(self, network, router) -> None:
        self.network = network
        self.router = router
        router.on_deliver(self.KIND_QUERY, self._on_query_delivered)
        router.on_deliver(self.KIND_RESULT, self._on_result)
        network.register_handler(self.KIND_TOKEN, self._on_token)
        network.register_handler(self.KIND_PROBE, self._on_probe)
        network.register_handler(self.KIND_DATA, self._on_data)

    def setup(self) -> None:
        """Infrastructure-free: nothing to build."""

    @property
    def _width(self) -> float:
        if self.width is not None:
            return self.width
        return full_coverage_width(self.network.radio.range_m)

    @property
    def _spacing(self) -> float:
        return self.spacing_factor * self.network.radio.range_m

    # -- issue -------------------------------------------------------------

    def issue(self, sink: SensorNode, query: WindowQuery,
              on_complete) -> None:
        self._pending[query.query_id] = self.result_type(query=query)
        self._callbacks[query.query_id] = on_complete
        self._route_query(sink, query, attempt=0)

    def abandon(self, query_id: int):
        """Forget a query; returns its (empty) result, or None."""
        self._callbacks.pop(query_id, None)
        return self._pending.pop(query_id, None)

    def _route_query(self, sink: SensorNode, query: WindowQuery,
                     attempt: int) -> None:
        w = query.window
        payload = {
            "query_id": query.query_id,
            "window": (w.x_min, w.y_min, w.x_max, w.y_max),
            "sink_id": sink.id,
            "sink_pos": (sink.position().x, sink.position().y),
        }

        def _on_drop(_inner, _node) -> None:
            if attempt >= self.MAX_ROUTE_RETRIES or not sink.alive:
                return
            self.network.sim.schedule_in(
                self.RETRY_PAUSE_S,
                lambda: self._route_query(sink, query, attempt + 1))

        self.router.send(sink, w.center(), self.KIND_QUERY, payload, 20,
                         on_drop=_on_drop)

    # -- traversal ---------------------------------------------------------

    def _on_query_delivered(self, node: SensorNode, inner: dict) -> None:
        query_id = inner["query_id"]
        if query_id in self._homes_seen:
            return
        self._homes_seen.add(query_id)
        token = {
            "query_id": query_id,
            "window": inner["window"],
            "sink_id": inner["sink_id"],
            "sink_pos": inner["sink_pos"],
            "wp_idx": 0,
            "visited": [],
            "voids": 0,
            "detours": 0,
        }
        token.update(self._start())
        self._become_qnode(node, token)

    def _become_qnode(self, node: SensorNode, token: dict) -> None:
        query_id = token["query_id"]
        token["visited"] = (token["visited"] + [node.id])[-24:]
        window = Rect(*token["window"])
        if query_id not in self._responded.get(node.id, set()) and \
                window.contains(node.position()):
            self._responded.setdefault(node.id, set()).add(query_id)
            self._add_self(node, token)
        plan = self._make_plan(node, window)
        session = _Session(node.id, query_id, token)
        self._sessions[query_id] = session
        pos = node.position()
        node.broadcast(self.KIND_PROBE, {
            "query_id": query_id,
            "qnode": node.id,
            "qnode_pos": (pos.x, pos.y),
            "window": token["window"],
            "ref_angle": plan.reference_angle,
            "expected": plan.expected_responders,
            "m": plan.time_unit_s,
        }, 24)
        self.network.sim.schedule_in(
            plan.window_s, lambda: self._advance(node, session))

    def _make_plan(self, node: SensorNode, window: Rect) -> CollectionPlan:
        entries = node.neighbors()
        expected = sum(1 for e in entries if window.contains(e.position))
        ref = (window.center() - node.position()).angle() \
            if window.center() != node.position() else 0.0
        return CollectionPlan(reference_angle=ref,
                              expected_responders=expected,
                              time_unit_s=self.time_unit_s)

    def _on_probe(self, node: SensorNode, message: Message) -> None:
        p = message.payload
        if node.id == p["qnode"]:
            return
        query_id = p["query_id"]
        if query_id in self._responded.get(node.id, set()):
            return
        pos = node.position()
        if not Rect(*p["window"]).contains(pos):
            return
        self._responded.setdefault(node.id, set()).add(query_id)
        delay = reply_delay(p["ref_angle"], p["expected"], p["m"],
                            Vec2(*p["qnode_pos"]), pos)
        qnode = p["qnode"]

        def _reply() -> None:
            if node.alive:
                reply, size = self._reply(node)
                node.send(qnode, self.KIND_DATA,
                          {"query_id": query_id, "reply": reply}, size)

        self.network.sim.schedule_in(delay, _reply)

    def _on_data(self, node: SensorNode, message: Message) -> None:
        p = message.payload
        session = self._sessions.get(p["query_id"])
        if session is None or session.node_id != node.id:
            return
        session.replies.append(p["reply"])

    def _advance(self, node: SensorNode, session: _Session) -> None:
        if self._sessions.get(session.query_id) is not session:
            return
        del self._sessions[session.query_id]
        if not node.alive:
            return
        token = session.token
        self._fold(token, session.replies)
        waypoints = build_serpentine_itinerary(Rect(*token["window"]),
                                               self._width, self._spacing)
        hop = choose_next_qnode(node.position(), node.neighbors(),
                                waypoints, token["wp_idx"], self._width,
                                token["visited"],
                                max_reach=0.9 * self.network.radio.range_m)
        token["wp_idx"] = hop.waypoint_index
        if hop.void_detour:
            token["voids"] += 1
            token["detours"] += 1
        else:
            token["detours"] = 0
        if hop.node_id is None or token["detours"] > self.max_detours:
            self._finish(node, token)
            return
        size = self._token_bytes(token)

        def _on_fail(_msg: Message) -> None:
            node.forget_neighbor(hop.node_id)
            retry = choose_next_qnode(
                node.position(), node.neighbors(), waypoints,
                token["wp_idx"], self._width, token["visited"])
            if retry.node_id is None:
                self._finish(node, token)
            else:
                node.send(retry.node_id, self.KIND_TOKEN, dict(token),
                          size)

        node.send(hop.node_id, self.KIND_TOKEN, dict(token), size,
                  on_fail=_on_fail)

    def _on_token(self, node: SensorNode, message: Message) -> None:
        self._become_qnode(node, dict(message.payload))

    # -- results -----------------------------------------------------------

    def _finish(self, node: SensorNode, token: dict,
                attempt: int = 0) -> None:
        answer, size = self._answer(token)
        payload = {"query_id": token["query_id"], "answer": answer,
                   "voids": token["voids"]}

        def _on_drop(_inner, drop_node) -> None:
            if attempt >= self.MAX_ROUTE_RETRIES:
                return
            origin = drop_node if drop_node is not None else node
            if origin.alive:
                self.network.sim.schedule_in(
                    self.RETRY_PAUSE_S,
                    lambda: self._finish(origin, token, attempt + 1))

        self.router.send(node, Vec2(*token["sink_pos"]), self.KIND_RESULT,
                         payload, size, dst_id=token["sink_id"],
                         on_drop=_on_drop)

    def _on_result(self, node: SensorNode, inner: dict) -> None:
        result = self._pending.pop(inner["query_id"], None)
        callback = self._callbacks.pop(inner["query_id"], None)
        if result is None:
            return
        self._decode(result, inner["answer"])
        result.voids = inner["voids"]
        result.completed_at = self.network.sim.now
        if callback is not None:
            callback(result)

    # -- the reducer -------------------------------------------------------

    def _start(self) -> dict:
        """The answer fields a fresh token starts with."""
        raise NotImplementedError

    def _add_self(self, node: SensorNode, token: dict) -> None:
        """Fold the in-window Q-node ``node`` itself into ``token``."""
        raise NotImplementedError

    def _reply(self, node: SensorNode) -> Tuple[object, int]:
        """What responder ``node`` sends its Q-node, and its size."""
        raise NotImplementedError

    def _fold(self, token: dict, replies: list) -> None:
        """Fold one collection round's replies into ``token``."""
        raise NotImplementedError

    def _token_bytes(self, token: dict) -> int:
        """Wire size of ``token``."""
        raise NotImplementedError

    def _answer(self, token: dict) -> Tuple[object, int]:
        """The result's answer field and the result message's size."""
        raise NotImplementedError

    def _decode(self, result, answer) -> None:
        """Fill ``result`` from the answer the sink received."""
        raise NotImplementedError
