"""The network: nodes + radio + MAC + beacons + spatial index.

Delivery uses *true* node positions (the physics), while protocols see the
world through beacon-maintained neighbor tables (the paper's network model,
§3.1).  The gap between the two — staleness under mobility — is what makes
infrastructure-heavy baselines degrade, so it is modeled faithfully.
Beacons run on one kernel, the epoch engine of ``repro.net.beacons``;
it keeps its own position snapshot, so protocol reads of the PHY index
(``in_range_of``, ``send``) never move a beacon's receiver set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..geometry import SpatialGrid, Vec2
from ..sim.engine import PeriodicTask, Simulator
from ..sim.errors import ConfigurationError
from . import beacons
from .beacons import BatchedBeaconEngine
from .energy import EnergyLedger, EnergyModel
from .mac import MacConfig, MacLayer, Receivers
from .messages import Message
from .neighbor_store import NeighborTable
from .node import SensorNode
from .radio import RadioModel


@dataclass
class NetworkStats:
    """Application-level traffic counters (beacons tracked separately)."""

    messages_sent: int = 0
    beacons_sent: int = 0
    deliveries: int = 0


class Network:
    """Container wiring nodes to the simulated radio medium."""

    BEACON_BYTES = 8

    def __init__(self, sim: Simulator, radio: Optional[RadioModel] = None,
                 energy: Optional[EnergyModel] = None,
                 mac_config: Optional[MacConfig] = None,
                 beacon_interval: float = 0.5,
                 neighbor_timeout: Optional[float] = None,
                 position_epsilon: float = 0.05):
        """
        Args:
            sim: the event kernel.
            radio: PHY parameters (defaults to the paper's LR-WPAN setup).
            energy: energy cost model.
            mac_config: MAC tunables.
            beacon_interval: seconds between a node's location beacons
                (paper default 0.5 s).
            neighbor_timeout: staleness bound for neighbor entries
                (default 2.5 beacon intervals).
            position_epsilon: how stale (seconds) the PHY spatial index may
                be before being refreshed; bounds position error by
                epsilon * max_speed, far below the radio range.
        """
        self.sim = sim
        self.radio = radio or RadioModel()
        self.energy_model = energy or EnergyModel()
        # One ledger: protocol and beacon traffic are its two parts.
        self.ledger = EnergyLedger(self.energy_model)
        self.ledger.emit_on(sim.probe)
        self.mac = MacLayer(sim, self.radio, self.ledger, mac_config)
        self.beacon_interval = beacon_interval
        self.neighbor_timeout = (neighbor_timeout
                                 if neighbor_timeout is not None
                                 else 2.5 * beacon_interval)
        self.position_epsilon = position_epsilon
        self.nodes: Dict[int, SensorNode] = {}
        self.stats = NetworkStats()
        self._grid = SpatialGrid(cell_size=self.radio.range_m)
        self._link_factor_cache: Dict[tuple, float] = {}
        self._grid_time = -math.inf
        # Beacon-engine rows of the columnar grid's entries, so liveness
        # at send time is one gather from the engine's alive mask.
        self._grid_rows: Optional[np.ndarray] = None
        # Built by the first start_beacons() and kept for the run.
        self._neighbor_table: Optional[NeighborTable] = None
        self._beacon_engine: Optional[BatchedBeaconEngine] = None
        self._beacon_muted: set = set()
        self._sweep_task: Optional[PeriodicTask] = None
        self.neighbor_evictions = 0

    # -- population ----------------------------------------------------------

    def add_node(self, node: SensorNode) -> None:
        if node.id in self.nodes:
            raise ConfigurationError(f"duplicate node id {node.id}")
        if self._neighbor_table is not None:
            # Raises, before anything changes, on a non-ascending id.
            self._neighbor_table.grow(node.id)
        node.network = self
        self.nodes[node.id] = node
        self._grid_time = -math.inf  # force re-sync
        if self._beacon_engine is not None:
            self._beacon_engine.grow(node)

    def add_nodes(self, nodes: Iterable[SensorNode]) -> None:
        for node in nodes:
            self.add_node(node)

    def node(self, node_id: int) -> SensorNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    # -- positions -----------------------------------------------------------

    def _sync_grid(self) -> None:
        now = self.sim.now
        if now - self._grid_time < self.position_epsilon and len(self._grid) == len(self.nodes):
            return
        engine = self._beacon_engine
        if engine is not None:
            ids, xs, ys = engine.grid_columns(now)
            self._grid.bulk_load_columns(ids, xs, ys)
            self._grid_rows = np.flatnonzero(engine.alive_mask)
        else:
            self._grid.bulk_load(
                (node.id, node.mobility.position_at(now))
                for node in self.nodes.values() if node.alive)
        self._grid_time = now

    def _within(self, position: Vec2, radius: float,
                exclude: Optional[int] = None) -> Receivers:
        """PHY-index entries within ``radius`` of ``position`` as parallel
        ``(ids, xs, ys)`` lists in ascending id order.  With ``exclude``
        (a sender id), that node and every node that died since the
        index was refreshed are left out.

        On the columnar index (beacons started) this is one vectorized
        range test plus one liveness gather; the classic index (before
        beacons first start) answers from its buckets.
        """
        self._sync_grid()
        if radius < 0.0:
            return [], [], []
        grid = self._grid
        cols = grid.columns()
        if cols is None:
            ids = grid.within_ids(position, radius)
            if exclude is not None:
                ids = [nid for nid in ids
                       if nid != exclude and self.nodes[nid].alive]
            pts = [grid.position_of(nid) for nid in ids]
            return ids, [p.x for p in pts], [p.y for p in pts]
        keys, xs, ys = cols
        dx = xs - position.x
        dy = ys - position.y
        mask = dx * dx + dy * dy <= radius * radius
        if exclude is not None:
            mask &= self._beacon_engine.alive_mask[self._grid_rows]
            mask &= keys != exclude
        return keys[mask].tolist(), xs[mask].tolist(), ys[mask].tolist()

    def in_range_of(self, position: Vec2,
                    radius: Optional[float] = None) -> List[Tuple[int, Vec2]]:
        """Nodes within ``radius`` (default: radio range) of ``position``,
        in ascending node-id order.

        Positions come from the PHY spatial index (near-exact; see
        ``position_epsilon``).
        """
        r = radius if radius is not None else self.radio.range_m
        ids, xs, ys = self._within(position, r)
        return [(nid, Vec2(x, y)) for nid, x, y in zip(ids, xs, ys)]

    def link_range(self, a: int, b: int) -> float:
        """Effective radio reach of the link a -> b.

        With shadowing enabled, each unordered node pair gets a fixed
        log-normal range factor (deterministic per seed), making
        connectivity irregular but stable — the slow-fading regime.
        """
        sigma = self.radio.shadowing_sigma
        if sigma == 0.0:
            return self.radio.range_m
        key = (a, b) if a <= b else (b, a)
        factor = self._link_factor_cache.get(key)
        if factor is None:
            import zlib
            # Deterministic per (seed, pair): hash into a unit draw.
            h = zlib.crc32(f"{self.sim.rng.seed}:{key[0]}:{key[1]}"
                           .encode()) / 0xFFFFFFFF
            # Inverse-transform an approximate standard normal (via the
            # logistic approximation, fine for a fading factor).
            h = min(max(h, 1e-6), 1 - 1e-6)
            z = math.log(h / (1 - h)) / 1.702
            factor = math.exp(sigma * z)
            self._link_factor_cache[key] = factor
        return self.radio.range_m * factor

    def links_reach(self, senders: Iterable[int], receivers: Iterable[int],
                    sxs: Iterable[float], sys_: Iterable[float],
                    rxs: Iterable[float], rys: Iterable[float]
                    ) -> List[bool]:
        """Per-link shadowing over columns: whether each link
        ``senders[i] -> receivers[i]`` spans the distance from its sender
        at ``(sxs[i], sys_[i])`` to its receiver at ``(rxs[i], rys[i])``
        (``math.hypot(receiver - sender) <= link_range``)."""
        link_range = self.link_range
        hypot = math.hypot
        return [hypot(rx - sx, ry - sy) <= link_range(s, r)
                for s, r, sx, sy, rx, ry in zip(senders, receivers, sxs,
                                                sys_, rxs, rys)]

    def _receivers_for(self, sender_id: int, position: Vec2) -> Receivers:
        """PHY receivers of a frame sent by ``sender_id`` at ``position``,
        as the MAC's parallel ``(ids, xs, ys)`` columns, honoring per-link
        shadowing and node liveness."""
        if self.radio.shadowing_sigma == 0.0:
            return self._within(position, self.radio.range_m, sender_id)
        ids, xs, ys = self._within(position, self.radio.max_range_m,
                                   sender_id)
        n = len(ids)
        keep = self.links_reach(repeat(sender_id, n), ids,
                                repeat(position.x, n), repeat(position.y, n),
                                xs, ys)
        return tuple(list(compress(col, keep)) for col in (ids, xs, ys))

    def nearest_node(self, position: Vec2,
                     exclude: Optional[set] = None) -> SensorNode:
        """The alive node whose true current position is closest to
        ``position``."""
        self._sync_grid()
        nid = self._grid.nearest(position, exclude=exclude)
        return self.nodes[nid]

    # -- beacons -------------------------------------------------------------

    def _beacons_running(self) -> bool:
        engine = self._beacon_engine
        return engine is not None and engine._running

    def start_beacons(self) -> None:
        """Begin periodic location beaconing on every node.

        The first call builds the neighbor table and the beacon engine; a
        restart after :meth:`stop_beacons` reuses both, so tables, banked
        energy and jitter streams carry over."""
        if self._beacons_running():
            raise ConfigurationError("beacons already started")
        if self._beacon_engine is None:
            self._neighbor_table = NeighborTable(
                self.nodes, sparse=len(self.nodes) > beacons._DENSE_MAX)
            self._beacon_engine = BatchedBeaconEngine(self)
            if self._beacon_muted:
                self._beacon_engine.set_muted(self._beacon_muted, True)
        self._beacon_engine.start()

    def stop_beacons(self) -> None:
        if self._beacon_engine is not None:
            self._beacon_engine.stop()

    def flush_beacons(self) -> None:
        """Bring beacon state exactly up to ``sim.now``.

        A no-op before beacons first start and on the engine's fast path
        when nothing is due — safe to call from any observer or
        checkpoint."""
        if self._beacon_engine is not None:
            self._beacon_engine.flush(self.sim.now)

    def mute_beacons(self, node_ids: Iterable[int]) -> None:
        """Suppress beaconing for ``node_ids`` (fault injection): the
        nodes keep relaying traffic, but their neighbors' tables rot."""
        ids = list(node_ids)
        if self._beacon_engine is not None:
            self._beacon_engine.set_muted(ids, True)
        self._beacon_muted.update(ids)

    def unmute_beacons(self, node_ids: Iterable[int]) -> None:
        ids = list(node_ids)
        if self._beacon_engine is not None:
            self._beacon_engine.set_muted(ids, False)
        self._beacon_muted.difference_update(ids)

    def warm_up(self, duration: Optional[float] = None) -> None:
        """Run beacons for ``duration`` so neighbor tables fill.

        Every node's first beacon goes out within one interval (the
        initial stagger is uniform on [0, interval)); the default of two
        intervals covers that worst case, delivery latency, and usually a
        second beacon — all well inside the 2.5-interval
        ``neighbor_timeout``, so entries heard during warm-up cannot have
        expired by its end."""
        if not self._beacons_running():
            self.start_beacons()
        if duration is None:
            duration = 2.0 * self.beacon_interval
        self.sim.run(until=self.sim.now + duration)
        self.flush_beacons()

    # -- neighbor hygiene ----------------------------------------------------

    def start_neighbor_sweep(self, period: Optional[float] = None) -> None:
        """Proactively evict missed-beacon neighbor entries on every alive
        node.

        ``neighbors()`` already prunes lazily at read time; under fault
        injection a dead or silenced node must also leave tables that are
        *not* being read, so recovery decisions (GPSR reroutes, next-Q-node
        choices) never see it.  Each sweep is one pass over the whole
        neighbor store (``evict_stale``), counted in
        ``neighbor_evictions``.  Runs every ``period`` seconds (default:
        one beacon interval); idempotent.
        """
        if self._sweep_task is not None:
            return
        timeout = self.neighbor_timeout

        def _sweep() -> None:
            if self._beacon_engine is not None:
                self.neighbor_evictions += \
                    self._beacon_engine.sweep_evict(self.sim.now, timeout)

        self._sweep_task = PeriodicTask(
            self.sim, period if period is not None else self.beacon_interval,
            _sweep)
        self._sweep_task.start()

    def stop_neighbor_sweep(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.stop()
            self._sweep_task = None

    # -- messaging -----------------------------------------------------------

    def send(self, sender: SensorNode, message: Message,
             on_fail: Optional[Callable[[Message], None]] = None) -> None:
        """Transmit ``message`` from ``sender`` over the MAC."""
        if self.ledger.capacity_j is not None:
            # Beacons may have emptied the sender's battery since the
            # last flush.
            self.flush_beacons()
        if not sender.alive:
            return
        if message.created_at is None:
            message.created_at = self.sim.now
        pos = sender.position()
        # A node that just died may linger in the (epsilon-stale) spatial
        # index; it cannot receive or ACK, so liveness (and per-link
        # shadowing) are applied here.
        receivers = self._receivers_for(sender.id, pos)
        self.stats.messages_sent += 1
        trace = self.sim.probe.trace
        if trace:
            for fn in trace:
                fn("send", message, sender.id)
        self.mac.transmit(sender.id, pos, message, receivers,
                          deliver=self._deliver, on_unicast_fail=on_fail)

    def _deliver(self, receiver_id: int, message: Message) -> None:
        if self.ledger.capacity_j is not None:
            self.flush_beacons()
        node = self.nodes.get(receiver_id)
        if node is None or not node.alive:
            return
        self.stats.deliveries += 1
        trace = self.sim.probe.trace
        if trace:
            for fn in trace:
                fn("deliver", message, receiver_id)
        node.handle(message)

    # -- protocol helpers ----------------------------------------------------

    def register_handler(self, kind: str,
                         handler: Callable[[SensorNode, Message], None]
                         ) -> None:
        """Register the same handler for ``kind`` on every node."""
        for node in self.nodes.values():
            node.on(kind, handler)

    def enable_batteries(self, capacity_j: float) -> None:
        """Arm per-node batteries: a node whose energy use over the
        ledger's protocol and beacon parts reaches ``capacity_j`` dies
        (``alive = False``) and stops participating.  Useful for
        lifetime / failure studies.

        Beacons are charged lazily, at flush time, so every protocol
        charge, send and delivery first flushes them up to ``sim.now``:
        each charge, of either part, is then checked against everything
        the node spent before it, and no node that beacons have already
        drained sends or handles a frame, whenever else the tables
        happen to be read."""

        def _kill(node_id: int) -> None:
            node = self.nodes.get(node_id)
            if node is not None and node.alive:
                node.alive = False

        self.ledger.set_battery(capacity_j, _kill, settle=self.flush_beacons)

    def alive_count(self) -> int:
        """Number of nodes still alive."""
        return sum(1 for node in self.nodes.values() if node.alive)

    def true_positions(self, t: Optional[float] = None) -> Dict[int, Vec2]:
        """Exact positions of all alive nodes at time ``t`` (ground truth)."""
        time = t if t is not None else self.sim.now
        return {node.id: node.mobility.position_at(time)
                for node in self.nodes.values() if node.alive}
