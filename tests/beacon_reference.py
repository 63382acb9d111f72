"""Per-event reference model of the beacon kernel (test-only).

The product beacons through one kernel, ``repro.net.beacons``: one
epoch event per interval replays every node's fires in bulk.  This
module is the straightforward model it is proven against — one
:class:`~repro.sim.engine.PeriodicTask` per node and one kernel event
per delivered frame — written for clarity, not speed:

* fire times come from the same ``beacon.stagger`` and
  ``beacon.jitter.{id}`` RNG streams;
* receivers come from a private position snapshot, refreshed when it is
  ``position_epsilon`` stale or is missing a node (dead nodes are left
  out of it), so protocol reads of the network's PHY index never move
  them;
* the ledger's beacon part is charged per frame (tx) and per surviving
  receiver (rx) at fire time;
* channel loss is drawn from the ``mac.beacon`` stream, and each frame
  with survivors schedules one delivery event, which writes the store
  cells of the receivers still alive at delivery time.

It drives a plain :class:`~repro.net.Network` whose beacon engine is
never started, and offers the network's beacon controls
(``start_beacons``, ``stop_beacons``, ``start_neighbor_sweep``) so a
differential can run the same script against either kernel.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry import SpatialGrid, Vec2
from repro.net import beacons
from repro.net.neighbor_store import NeighborTable
from repro.sim.engine import PeriodicTask


class ReferenceBeacons:
    """One event per beacon fire and per delivered frame."""

    def __init__(self, net):
        self.net = net
        self.sim = net.sim
        self._tasks: List[PeriodicTask] = []
        self._sweep_task: Optional[PeriodicTask] = None
        self._grid = SpatialGrid(cell_size=net.radio.range_m)
        self._grid_time = -math.inf

    # -- the network's beacon controls ----------------------------------

    def start_beacons(self) -> None:
        net = self.net
        if self._tasks:
            raise RuntimeError("beacons already started")
        if net._neighbor_table is None:
            net._neighbor_table = NeighborTable(
                net.nodes, sparse=len(net.nodes) > beacons._DENSE_MAX)
        interval = net.beacon_interval
        stagger = self.sim.rng.stream("beacon.stagger")
        for node in net.nodes.values():
            task = PeriodicTask(self.sim, interval, self._fire_fn(node),
                                jitter=0.05 * interval,
                                rng_stream=f"beacon.jitter.{node.id}")
            task.start(initial_delay=float(stagger.uniform(0.0, interval)))
            self._tasks.append(task)

    def stop_beacons(self) -> None:
        """Stop firing; frames already in the air are still delivered."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    def start_neighbor_sweep(self, period: Optional[float] = None) -> None:
        if self._sweep_task is not None:
            return
        net = self.net

        def _sweep() -> None:
            table = net._neighbor_table
            if table is None:
                return
            alive = np.array([net.nodes[nid].alive
                              for nid in table.ids.tolist()], dtype=bool)
            net.neighbor_evictions += table.store.evict_stale(
                alive, self.sim.now, net.neighbor_timeout)

        self._sweep_task = PeriodicTask(
            self.sim, period if period is not None else net.beacon_interval,
            _sweep)
        self._sweep_task.start()

    # -- receivers ------------------------------------------------------

    def _sync_snapshot(self) -> None:
        now = self.sim.now
        if (now - self._grid_time < self.net.position_epsilon
                and len(self._grid) == len(self.net.nodes)):
            return
        self._grid.bulk_load(
            (node.id, node.mobility.position_at(now))
            for node in self.net.nodes.values() if node.alive)
        self._grid_time = now

    def _receivers(self, sender_id: int, pos: Vec2) -> List[int]:
        """Alive receivers of a frame from ``sender_id`` at ``pos``, in
        ascending id order, honouring per-link shadowing."""
        net = self.net
        self._sync_snapshot()
        shadowing = net.radio.shadowing_sigma != 0.0
        radius = net.radio.max_range_m if shadowing else net.radio.range_m
        out = []
        for nid in self._grid.within_ids(pos, radius):
            if nid == sender_id or not net.nodes[nid].alive:
                continue
            if shadowing and self._grid.position_of(nid).distance_to(
                    pos) > net.link_range(sender_id, nid):
                continue
            out.append(nid)
        return out

    # -- one fire, one delivery -----------------------------------------

    def _fire_fn(self, node):
        def _fire() -> None:
            net = self.net
            if not node.alive or node.id in net._beacon_muted:
                return
            now = self.sim.now
            mob = node.mobility
            pos = mob.position_at(now)
            report = (pos, mob.speed_at(now), mob.velocity_at(now))
            net.stats.beacons_sent += 1
            receivers = self._receivers(node.id, pos)
            radio = net.radio
            bits = (net.BEACON_BYTES + radio.header_bytes) * 8
            net.ledger.charge_tx(node.id, bits, radio.range_m,
                                 "beacon_charge")
            loss = net.mac.loss_rate()
            survivors = receivers
            if loss > 0.0 and receivers:
                mask = self.sim.rng.stream("mac.beacon").random(
                    len(receivers)) >= loss
                survivors = [rid for rid, ok in zip(receivers, mask.tolist())
                             if ok]
            for rid in survivors:
                net.ledger.charge_rx(rid, bits, "beacon_charge")
            if survivors:
                self.sim.schedule_in(
                    radio.airtime(net.BEACON_BYTES)
                    + radio.propagation_delay_s,
                    lambda: self._deliver(node.id, report, survivors))

        return _fire

    def _deliver(self, src: int, report: Tuple[Vec2, float, Vec2],
                 survivors: List[int]) -> None:
        net = self.net
        now = self.sim.now
        pos, speed, vel = report
        table = net._neighbor_table
        probe = self.sim.probe
        for rid in survivors:
            if not net.nodes[rid].alive:
                continue
            for fn in probe.beacon:
                fn(rid, src, now)
            for fn in probe.beacon_batch:
                fn(1)
            table.store.update_cell(table.index[rid], table.index[src], now,
                                    pos.x, pos.y, speed, vel.x, vel.y)
