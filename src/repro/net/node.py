"""Sensor node: position, neighbor table, local reading, message handlers.

The paper's network model (§3.1): every node is location-aware, broadcasts
periodic beacons with its location and id, and keeps a table of neighbors
heard within radio range.  That table is the node's row of the network's
one neighbor store (``repro.net.neighbor_store``); the node itself holds
no neighbor state.  Protocol behaviour is attached by registering
message-kind handlers; the node itself is protocol-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..geometry import Vec2
from ..mobility.base import MobilityModel
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .neighbor_store import NeighborTable
    from .network import Network

Handler = Callable[["SensorNode", Message], None]


class NeighborEntry:
    """What a node knows about one neighbor, as of the last beacon heard.

    ``position`` is dead-reckoned: the beaconed location advanced along the
    beaconed velocity to the read time, which keeps neighbor tables usable
    between beacons even at high node speeds.  ``beacon_position`` preserves
    the raw reported location.

    Only ``position`` is stored as a ``Vec2``; the beaconed location and
    velocity are kept as floats and built on access, since a neighbor
    read makes one entry per row cell and protocols rarely look at them.
    """

    __slots__ = ("node_id", "position", "speed", "heard_at",
                 "_bx", "_by", "_vx", "_vy")

    def __init__(self, node_id: int, position: Vec2, speed: float,
                 heard_at: float, beacon_position: Optional[Vec2] = None,
                 velocity: Vec2 = Vec2(0.0, 0.0)):
        self.node_id = node_id
        self.position = position
        self.speed = speed
        self.heard_at = heard_at
        self._bx, self._by = (position if beacon_position is None
                              else beacon_position)
        self._vx, self._vy = velocity

    @property
    def beacon_position(self) -> Vec2:
        return Vec2(self._bx, self._by)

    @property
    def velocity(self) -> Vec2:
        return Vec2(self._vx, self._vy)

    def _key(self) -> tuple:
        return (self.node_id, self.position, self.speed, self.heard_at,
                self._bx, self._by, self._vx, self._vy)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]  # mutable: not hashable

    def __repr__(self) -> str:
        return (f"NeighborEntry(node_id={self.node_id!r}, "
                f"position={self.position!r}, speed={self.speed!r}, "
                f"heard_at={self.heard_at!r}, "
                f"beacon_position={self.beacon_position!r}, "
                f"velocity={self.velocity!r})")

    def predicted_position(self, now: float) -> Vec2:
        age = max(0.0, now - self.heard_at)
        return Vec2(self._bx + self._vx * age, self._by + self._vy * age)


def _entry(node_id: int, x: float, y: float, speed: float, heard_at: float,
           bx: float, by: float, vx: float, vy: float) -> NeighborEntry:
    """A :class:`NeighborEntry` from one store row cell's floats, without
    the public constructor's ``Vec2`` unpacking."""
    entry = object.__new__(NeighborEntry)
    entry.node_id = node_id
    entry.position = Vec2(x, y)
    entry.speed = speed
    entry.heard_at = heard_at
    entry._bx = bx
    entry._by = by
    entry._vx = vx
    entry._vy = vy
    return entry


class SensorNode:
    """One sensor node in the network."""

    def __init__(self, node_id: int, mobility: MobilityModel,
                 reading: float = 0.0):
        self.id = node_id
        self._mobility = mobility
        self.reading = reading
        self.network: Optional["Network"] = None
        self._handlers: Dict[str, Handler] = {}
        self._alive = True

    def __repr__(self) -> str:
        return f"SensorNode({self.id})"

    def _beacon_engine(self):
        net = self.network
        return None if net is None else getattr(net, "_beacon_engine", None)

    @property
    def mobility(self) -> MobilityModel:
        return self._mobility

    @mobility.setter
    def mobility(self, model: MobilityModel) -> None:
        engine = self._beacon_engine()
        if engine is not None:
            # Settle beacon state under the old trajectory, then drop the
            # cached mobility-bank row so the new model takes effect.
            engine.on_mobility_change(self, model)
        self._mobility = model

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        if value != self._alive:
            engine = self._beacon_engine()
            if engine is not None:
                # Settle beacon state under the old liveness, then log
                # the transition (delivery-time alive checks need it).
                engine.on_liveness(self, value)
        self._alive = value

    @property
    def neighbor_table(self) -> Dict[int, NeighborEntry]:
        """A snapshot of the node's row of the neighbor store, keyed by
        neighbor id in ascending order: every entry not yet evicted, as
        last beaconed (no dead reckoning, no pruning).  The read settles
        the row up to now first, so external readers (validation
        checkers, fault tooling) see every beacon delivered to the node
        up to now, whenever they look.  Writing to it changes nothing."""
        row = None if self.network is None else self._row()
        return {} if row is None else {e.node_id: e
                                       for e in self._entries(row)}

    # -- kinematics ----------------------------------------------------------

    def position(self, t: Optional[float] = None) -> Vec2:
        """Exact position at time ``t`` (defaults to the network's clock)."""
        if t is None:
            if self.network is None:
                raise RuntimeError("node is not attached to a network")
            t = self.network.sim.now
        return self.mobility.position_at(t)

    def speed(self, t: Optional[float] = None) -> float:
        if t is None:
            if self.network is None:
                raise RuntimeError("node is not attached to a network")
            t = self.network.sim.now
        return self.mobility.speed_at(t)

    # -- neighbor table ------------------------------------------------------

    def _table(self) -> Optional["NeighborTable"]:
        """The network's neighbor table, with the node's row settled up
        to now; ``None`` off a network or before beacons first start."""
        net = self.network
        if net is None:
            return None
        if net._beacon_engine is not None:
            net._beacon_engine.settle_row(self)
        return net._neighbor_table

    def _row(self) -> Optional[Tuple[np.ndarray, ...]]:
        """The node's store row as of now: (cols, t, bx, by, sp, vx, vy),
        neighbor ids ``ids[cols]`` ascending."""
        engine = self.network._beacon_engine
        if engine is not None:
            return engine.sync_node_table(self)
        table = self.network._neighbor_table
        return None if table is None else table.store.row(
            table.index[self.id])

    def _prune(self, row: Tuple[np.ndarray, ...], now: float,
               max_age: float) -> Tuple[np.ndarray, ...]:
        """``row`` without its cells older than ``max_age``, which are
        dropped from the store."""
        stale = now - row[1] > max_age
        if not stale.any():
            return row
        table = self.network._neighbor_table
        table.store.drop_cells(table.index[self.id], row[0][stale])
        return tuple(a[~stale] for a in row)

    def _entries(self, row: Tuple[np.ndarray, ...],
                 now: Optional[float] = None) -> List[NeighborEntry]:
        """Entries for ``row``, positions dead-reckoned to ``now`` if
        given (the arithmetic of ``NeighborEntry.predicted_position``)."""
        cols, t, bx, by, sp, vx, vy = row
        px, py = bx, by
        if now is not None:
            age = np.maximum(now - t, 0.0)
            px, py = bx + vx * age, by + vy * age
        ids = self.network._neighbor_table.ids[cols].tolist()
        return [_entry(i, x, y, s, h, b, c, u, w)
                for i, x, y, s, h, b, c, u, w in zip(
                    ids, px.tolist(), py.tolist(), sp.tolist(), t.tolist(),
                    bx.tolist(), by.tolist(), vx.tolist(), vy.tolist())]

    def neighbors(self, max_age: Optional[float] = None) -> List[NeighborEntry]:
        """Fresh neighbor entries (protocol view), in ascending id order.

        Entries older than ``max_age`` (default: the network's neighbor
        timeout) are pruned from the store as a side effect; surviving
        entries are returned with dead-reckoned positions as of the
        current time.
        """
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        if max_age is None:
            max_age = self.network.neighbor_timeout
        now = self.network.sim.now
        row = self._row()
        return [] if row is None else self._entries(
            self._prune(row, now, max_age), now)

    def forget_neighbor(self, node_id: int) -> None:
        """Drop a neighbor entry (e.g. after link-layer delivery failure)."""
        table = self._table()
        col = None if table is None else table.index.get(node_id)
        if col is not None:
            table.store.clear_cell(table.index[self.id], col)

    def reset_neighbors(self) -> None:
        """Wipe the whole neighbor table (crash recovery: a rebooted node
        remembers nothing)."""
        table = self._table()
        if table is not None:
            table.store.reset_row(table.index[self.id])

    def evict_stale_neighbors(self, now: float, max_age: float) -> int:
        """Missed-beacon eviction: drop entries not refreshed within
        ``max_age`` seconds.  Returns the number evicted.

        The policy ``neighbors()`` applies at read time; the network's
        sweep applies it to every alive node in one store pass.
        """
        row = self._row()
        return 0 if row is None else (
            row[0].size - self._prune(row, now, max_age)[0].size)

    # -- messaging -----------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register (or replace) the handler for message ``kind``."""
        self._handlers[kind] = handler

    def handle(self, message: Message) -> None:
        """Dispatch an incoming message to its registered handler."""
        if not self.alive:
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(self, message)

    def broadcast(self, kind: str, payload: Dict[str, Any],
                  size_bytes: int) -> None:
        """One-hop broadcast to all nodes currently in radio range."""
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        self.network.send(self, Message(kind=kind, src=self.id,
                                        dst=-1, size_bytes=size_bytes,
                                        payload=payload))

    def send(self, dst: int, kind: str, payload: Dict[str, Any],
             size_bytes: int,
             on_fail: Optional[Callable[[Message], None]] = None) -> None:
        """Unicast to a (believed) neighbor, with link-layer ARQ."""
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        self.network.send(self, Message(kind=kind, src=self.id, dst=dst,
                                        size_bytes=size_bytes,
                                        payload=payload), on_fail=on_fail)
