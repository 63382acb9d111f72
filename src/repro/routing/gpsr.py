"""GPSR: Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).

The geographic routing substrate the paper runs DIKNN on (§5.1).  Each hop
uses only the local beacon-maintained neighbor table:

* greedy mode: forward to the neighbor geographically closest to the
  destination, if strictly closer than the current node;
* perimeter mode: on a local maximum, traverse the Gabriel-planarized
  neighbor graph by the right-hand rule until a node closer to the
  destination than the point of entry is found.

Two delivery semantics are supported: route-to-node (``dst_id`` given) and
route-to-location, which delivers at the first node that is a local minimum
of distance-to-destination — the paper's *home node*.

Link failures (MAC ARQ exhaustion, e.g. the neighbor moved away) cause the
stale entry to be dropped and the hop re-evaluated, so mobility costs
latency rather than silently losing queries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..geometry import (Vec2, gabriel_neighbors, normalize_angle,
                        rng_neighbors)
from ..net.messages import Message
from ..net.network import Network
from ..net.node import SensorNode
from .base import DeliveryFn, DropFn, HopFn, Router

_GREEDY = 0
_PERIMETER = 1


@dataclass(frozen=True)
class GpsrConfig:
    """GPSR tunables."""

    max_hops: int = 128
    max_link_retries: int = 8      # stale-neighbor evictions per hop
    per_hop_entry_bytes: int = 6   # wire size of one info-list entry
    header_bytes: int = 12         # GPSR header inside the payload
    link_margin: float = 0.9       # greedy ignores neighbors believed to be
                                   # beyond this fraction of the radio range
    planarization: str = "gabriel"  # perimeter-mode subgraph: gabriel | rng


class GpsrRouter(Router):
    """GPSR implementation as a network-wide message handler."""

    KIND = "gpsr"

    def __init__(self, network: Network,
                 config: Optional[GpsrConfig] = None):
        self.network = network
        self.config = config or GpsrConfig()
        if self.config.planarization not in ("gabriel", "rng"):
            raise ValueError(
                f"unknown planarization {self.config.planarization!r}")
        self._delivery: Dict[str, DeliveryFn] = {}
        self._per_hop: Dict[str, HopFn] = {}
        self._drop_handlers: Dict[int, DropFn] = {}
        self.drops = 0
        self.drop_reasons: Dict[str, int] = {}
        self.deliveries = 0
        self._route_ids = itertools.count(1)
        # Hop forwards, link retries, mode flips, deliveries and drops go
        # out on the probe's ``route`` channel.
        self._probe = network.sim.probe
        network.register_handler(self.KIND, self._handle)

    # -- registration --------------------------------------------------------

    def on_deliver(self, inner_kind: str, handler: DeliveryFn) -> None:
        self._delivery[inner_kind] = handler

    def on_hop(self, inner_kind: str, handler: HopFn) -> None:
        """Register a per-hop payload mutator (e.g. DIKNN's info list L).

        The handler may return a new ``size_bytes`` for the packet, or
        ``None`` to leave it unchanged.
        """
        self._per_hop[inner_kind] = handler

    # -- sending -------------------------------------------------------------

    def send(self, src: SensorNode, dst_pos: Vec2, inner_kind: str,
             payload: Dict[str, Any], size_bytes: int,
             dst_id: Optional[int] = None,
             on_drop: Optional[DropFn] = None,
             ttl: Optional[int] = None) -> None:
        route_id = next(self._route_ids)
        if on_drop is not None:
            self._drop_handlers[route_id] = on_drop
        wrapped = {
            "route_id": route_id,
            "dst_pos": dst_pos,
            "dst_id": dst_id,
            "ttl": ttl,
            "inner_kind": inner_kind,
            "inner": payload,
            "mode": _GREEDY,
            "entry_pos": None,     # position where perimeter mode began
            "first_edge": None,    # (from, to) first perimeter edge
            "prev_id": None,
            "route_hops": 0,
            "trace": [src.id],
        }
        message = Message(kind=self.KIND, src=src.id, dst=src.id,
                          size_bytes=size_bytes + self.config.header_bytes,
                          payload=wrapped)
        # Process locally first: src might itself be the destination.
        self._process(src, message)

    # -- forwarding core -----------------------------------------------------

    def _handle(self, node: SensorNode, message: Message) -> None:
        self._process(node, message)

    def _process(self, node: SensorNode, message: Message) -> None:
        state = message.payload
        dst_pos: Vec2 = state["dst_pos"]
        dst_id: Optional[int] = state["dst_id"]

        hop_fn = self._per_hop.get(state["inner_kind"])
        if hop_fn is not None:
            new_size = hop_fn(node, state["inner"])
            if new_size is not None:
                message.size_bytes = new_size + self.config.header_bytes

        if dst_id is not None and node.id == dst_id:
            self._deliver(node, state)
            return

        hop_limit = state.get("ttl") or self.config.max_hops
        if state["route_hops"] >= hop_limit:
            self._drop(state, node, "max_hops")
            return

        neighbors = node.neighbors()
        my_pos = node.position()
        my_d = my_pos.distance_to(dst_pos)

        if state["mode"] == _PERIMETER:
            entry_pos: Vec2 = state["entry_pos"]
            if my_d < entry_pos.distance_to(dst_pos):
                state["mode"] = _GREEDY
                state["entry_pos"] = None
                state["first_edge"] = None
                self._note_mode(node, state, "perimeter", "greedy", my_d)

        if state["mode"] == _GREEDY:
            nxt = self._greedy_next(node, neighbors, dst_pos, my_pos, my_d,
                                    dst_id)
            if nxt is not None:
                self._forward(node, nxt, message, retries=0)
                return
            # Local maximum.
            if dst_id is None:
                # Route-to-location: if truly no neighbor is closer we are
                # the home node; but a void may hide closer nodes, so probe
                # the perimeter unless we are already very close.
                if my_d <= self.network.radio.range_m:
                    self._deliver(node, state, "greedy_local_min")
                    return
            state["mode"] = _PERIMETER
            state["entry_pos"] = my_pos
            state["first_edge"] = None
            self._note_mode(node, state, "greedy", "perimeter", my_d)

        # Perimeter mode forwarding.
        nxt = self._perimeter_next(node, neighbors, state, dst_pos, my_pos)
        if nxt is None:
            if dst_id is None:
                # Nowhere to go around the void: current node is the best
                # reachable approximation of the home node.
                self._deliver(node, state, "perimeter_dead_end")
            else:
                self._drop(state, node, "perimeter_dead_end")
            return
        edge = (node.id, nxt)
        if state["first_edge"] is None:
            state["first_edge"] = edge
        elif edge == tuple(state["first_edge"]):
            # Completed a full face tour without progress.
            if dst_id is None:
                self._deliver(node, state, "perimeter_loop")
            else:
                self._drop(state, node, "perimeter_loop")
            return
        self._forward(node, nxt, message, retries=0)

    def _greedy_next(self, node: SensorNode, neighbors, dst_pos: Vec2,
                     my_pos: Vec2, my_d: float,
                     dst_id: Optional[int]) -> Optional[int]:
        # Neighbors believed to sit at the very edge of the radio range are
        # the ones most likely to have left it; prefer links with margin.
        reach = self.network.radio.range_m * self.config.link_margin
        best_id = None
        best_d = my_d
        fallback_id = None
        fallback_d = my_d
        for entry in neighbors:
            if dst_id is not None and entry.node_id == dst_id:
                return entry.node_id
            d = entry.position.distance_to(dst_pos)
            if d < fallback_d:
                fallback_d = d
                fallback_id = entry.node_id
            if entry.position.distance_to(my_pos) > reach:
                continue
            if d < best_d:
                best_d = d
                best_id = entry.node_id
        return best_id if best_id is not None else fallback_id

    def _perimeter_next(self, node: SensorNode, neighbors, state,
                        dst_pos: Vec2, my_pos: Vec2) -> Optional[int]:
        rule = (rng_neighbors if self.config.planarization == "rng"
                else gabriel_neighbors)
        planar = rule(
            node.id, my_pos,
            [(e.node_id, e.position) for e in neighbors])
        if not planar:
            return None
        pos_of = {e.node_id: e.position for e in neighbors}
        prev_id = state["prev_id"]
        if prev_id is not None and prev_id in pos_of:
            ref_angle = (pos_of[prev_id] - my_pos).angle()
        else:
            ref_angle = (dst_pos - my_pos).angle()
        # Right-hand rule: first planar edge counterclockwise from the
        # reference edge.
        best_id = None
        best_turn = math.inf
        for nid in planar:
            if nid == prev_id and len(planar) > 1:
                continue
            turn = normalize_angle((pos_of[nid] - my_pos).angle() - ref_angle)
            if turn <= 1e-12:
                turn += 2.0 * math.pi
            if turn < best_turn:
                best_turn = turn
                best_id = nid
        return best_id

    def _forward(self, node: SensorNode, next_id: int, message: Message,
                 retries: int) -> None:
        state = message.payload
        fwd = message.forwarded(node.id, next_id)
        fwd.payload = state  # keep shared mutable route state
        state["prev_id"] = node.id
        state["route_hops"] += 1
        state["trace"].append(next_id)
        for obs in self._probe.route:
            obs.route_hop(state["inner_kind"],
                          perimeter=(state["mode"] == _PERIMETER))

        def _on_fail(_msg: Message) -> None:
            # Stale neighbor: evict and re-route from this node.
            node.forget_neighbor(next_id)
            for obs in self._probe.route:
                obs.route_link_retry(state["inner_kind"])
            state["prev_id"] = None
            state["route_hops"] -= 1
            state["trace"].pop()
            if retries + 1 > self.config.max_link_retries:
                self._drop(state, node, "link_retries")
                return
            replacement = self._reroute(node, message, retries + 1)
            if not replacement:
                self._drop(state, node, "no_route")

        self.network.send(node, fwd, on_fail=_on_fail)

    def _reroute(self, node: SensorNode, message: Message,
                 retries: int) -> bool:
        """After a link failure, try the next best hop. Returns success."""
        state = message.payload
        dst_pos: Vec2 = state["dst_pos"]
        neighbors = node.neighbors()
        if not neighbors:
            return False
        my_pos = node.position()
        my_d = my_pos.distance_to(dst_pos)
        nxt = self._greedy_next(node, neighbors, dst_pos, my_pos, my_d,
                                state["dst_id"])
        if nxt is None:
            nxt = self._perimeter_next(node, neighbors, state, dst_pos,
                                       my_pos)
        if nxt is None:
            if state["dst_id"] is None:
                self._deliver(node, state, "reroute_dead_end")
                return True
            return False
        self._forward(node, nxt, message, retries)
        return True

    # -- terminal outcomes ----------------------------------------------------

    def _note_mode(self, node: SensorNode, state: Dict[str, Any],
                   old: str, new: str, dist_m: float) -> None:
        """Pure observer note of a greedy<->perimeter transition."""
        for obs in self._probe.route:
            obs.route_mode(state["inner_kind"],
                           state["inner"].get("query_id"),
                           node.id, old, new, dist_m, self.network.sim.now)

    def _deliver(self, node: SensorNode, state: Dict[str, Any],
                 anchor_reason: Optional[str] = None) -> None:
        self.deliveries += 1
        route = self._probe.route
        if route:
            for obs in route:
                obs.route_delivered(state["inner_kind"], state["route_hops"])
            if anchor_reason is not None and state["dst_id"] is None:
                # Route-to-location terminal: this node declares itself
                # the home anchor.  Report how it got there (greedy local
                # minimum vs. perimeter give-up) and how far from the
                # geometric target it actually is — the post-mortem
                # engine's anchor-displacement evidence.
                offset = node.position().distance_to(state["dst_pos"])
                mode = ("perimeter" if state["mode"] == _PERIMETER
                        else "greedy")
                for obs in route:
                    obs.route_anchor(state["inner_kind"],
                                     state["inner"].get("query_id"),
                                     node.id, offset, mode, anchor_reason,
                                     self.network.sim.now)
        self._drop_handlers.pop(state["route_id"], None)
        handler = self._delivery.get(state["inner_kind"])
        if handler is not None:
            inner = dict(state["inner"])
            inner["_route_hops"] = state["route_hops"]
            inner["_route_trace"] = list(state["trace"])
            handler(node, inner)

    def _drop(self, state: Dict[str, Any], node: Optional[SensorNode],
              reason: str) -> None:
        self.drops += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        for obs in self._probe.route:
            obs.route_dropped(state["inner_kind"], reason)
        on_drop = self._drop_handlers.pop(state["route_id"], None)
        if on_drop is not None:
            on_drop(dict(state["inner"]), node)
