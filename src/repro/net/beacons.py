"""The beacon kernel: one epoch event per beacon interval.

Every node beacons as if it ran its own
:class:`~repro.sim.engine.PeriodicTask` — a uniform stagger from
``beacon.stagger``, then one jittered period per fire from its
``beacon.jitter.{id}`` stream — but the kernel schedules ONE periodic
event per interval.  Each epoch *flushes* the interval: per-node fire
times are replayed from those streams, sender kinematics come from a
vectorized mobility bank, receiver sets are resolved with a vectorized
pairwise-distance filter against a lazily refreshed position snapshot,
and neighbor-table updates plus beacon-energy accounting are applied in
bulk.

Equivalence contract (proven executable in
``tests/test_beacon_equivalence.py`` against the per-event reference
model in ``tests/beacon_reference.py``): at every interval boundary the
kernel produces *identical* neighbor tables, beacon counts and beacon
parts of the energy ledger to one event per fire and per delivered
frame, for any mix of mobile/static, dead and muted nodes, with or
without batteries.  The one sanctioned divergence is intra-interval
event interleaving (and hence golden digests), which is why ``flush()``
is a pure function of (state, time): any observer that reads
mid-interval state first forces a flush, and the flush result does not
depend on what triggered it.

A node's table read needs only its own row, so on the fast path (no
battery, no per-charge or per-beacon subscriber, lossless unshadowed
channel) it settles that row alone: fires due by then are generated and
buffered unresolved, range-tested against the reader only, and the row
keeps a "settled through" watermark that the next whole-field flush
honours, so each pair is applied once.  Whole-field observations
(``events_executed``, deferred beacon energy) first :meth:`settle
<BatchedBeaconEngine.settle>` the field to the latest read, which is
the state a whole-field flush at that read would have left.

Scaling note: up to ``_DENSE_MAX`` nodes the neighbor store is a dense
(N, N) float64 block and receiver sets come from full pairwise-distance
rows; above it the store switches to the sorted, in-place-updated
:class:`~repro.net.neighbor_store.SparseNeighborStore` and receiver
candidates come from a :class:`~repro.geometry.CellBuckets` spatial
index over the position snapshot — same filter arithmetic per surviving
pair, so membership is bitwise-identical, but memory and per-epoch work
stay near-linear in N.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..geometry import CellBuckets, Vec2
from .energy import EnergyAccount, repeated_add, repeated_add_many
from .neighbor_store import NeighborTable, SparseNeighborStore
from .node import SensorNode

#: jitter draws pre-drawn per refill
_JIT_BLOCK = 32

#: delivered pairs per dense-store write: a flush applies its due
#: deliveries in chronological chunks of about this many (the sparse
#: store takes each delivery record in one sorted write instead)
_APPLY_CHUNK = 16384

#: above this many nodes the engine switches to the sparse neighbor
#: store and cell-bucketed receiver resolution (tests force the sparse
#: path at small N by monkeypatching this down)
_DENSE_MAX = 1024

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network


class MobilityBank:
    """Columnar cache of closed-form mobility legs for vectorized
    kinematics.

    Each row caches one ``current_leg`` tuple; ``kinematics_at`` evaluates
    positions with exactly the arithmetic of ``_Leg.position_at``
    (``frac = clip((t - t0) / (t1 - t0), 0, 1); x = ox + (dx - ox) *
    frac``) — numpy elementwise ops perform no FMA contraction, so the
    results are bit-identical to the scalar path.  Rows whose model has no
    closed form (``current_leg() is None``) fall back to scalar
    evaluation per call.
    """

    def __init__(self, models: List[object]):
        n = len(models)
        self.models = models
        self.t0 = np.zeros(n)
        self.t1 = np.zeros(n)
        self.ox = np.zeros(n)
        self.oy = np.zeros(n)
        self.dx = np.zeros(n)
        self.dy = np.zeros(n)
        self.sp = np.zeros(n)
        self.vx = np.zeros(n)
        self.vy = np.zeros(n)
        self.v0 = np.full(n, np.inf)    # validity window start
        self.v1 = np.full(n, -np.inf)   # validity window end

    def grow(self, model: object) -> None:
        self.models.append(model)
        for name in ("t0", "t1", "ox", "oy", "dx", "dy", "sp", "vx", "vy"):
            setattr(self, name, np.append(getattr(self, name), 0.0))
        self.v0 = np.append(self.v0, np.inf)
        self.v1 = np.append(self.v1, -np.inf)

    def _refresh_row(self, i: int, t: float) -> None:
        leg = self.models[i].current_leg(t)
        if leg is None:
            # No closed form: pin the exact scalar kinematics at t only.
            m = self.models[i]
            p = m.position_at(t)
            v = m.velocity_at(t)
            leg = (0.0, math.inf, p.x, p.y, p.x, p.y, m.speed_at(t),
                   v.x, v.y, t, t)
        (self.t0[i], self.t1[i], self.ox[i], self.oy[i], self.dx[i],
         self.dy[i], self.sp[i], self.vx[i], self.vy[i], self.v0[i],
         self.v1[i]) = leg

    def kinematics_at(self, idx: np.ndarray, t: np.ndarray):
        """(px, py, sp, vx, vy) arrays for rows ``idx`` at times ``t``.

        ``idx`` may repeat a row with different times (a node firing more
        than once per flush); stale rows are refreshed sequentially so a
        multi-leg span within one flush stays exact.
        """
        bad = ((t < self.v0[idx]) | (t > self.v1[idx])).nonzero()[0]
        if not bad.size:
            return self._eval(idx, t)
        for j in bad.tolist():
            self._refresh_row(int(idx[j]), float(t[j]))
        still = ((t < self.v0[idx]) | (t > self.v1[idx])).nonzero()[0]
        if still.size:
            # Same row requested at times spanning several legs: evaluate
            # those elements scalar-exactly.
            px = np.empty(idx.shape[0])
            py = np.empty(idx.shape[0])
            sp = np.empty(idx.shape[0])
            vx = np.empty(idx.shape[0])
            vy = np.empty(idx.shape[0])
            ok = np.ones(idx.shape[0], dtype=bool)
            ok[still] = False
            pxg, pyg, spg, vxg, vyg = self._eval(idx[ok], t[ok])
            px[ok], py[ok], sp[ok], vx[ok], vy[ok] = pxg, pyg, spg, vxg, vyg
            for j in still.tolist():
                m = self.models[int(idx[j])]
                tj = float(t[j])
                p = m.position_at(tj)
                v = m.velocity_at(tj)
                px[j], py[j] = p.x, p.y
                sp[j] = m.speed_at(tj)
                vx[j], vy[j] = v.x, v.y
            return px, py, sp, vx, vy
        return self._eval(idx, t)

    def _eval(self, idx: np.ndarray, t: np.ndarray):
        t0 = self.t0[idx]
        denom = self.t1[idx] - t0
        frac = (t - t0) / denom
        frac.clip(0.0, 1.0, out=frac)
        ox = self.ox[idx]
        oy = self.oy[idx]
        px = ox + (self.dx[idx] - ox) * frac
        py = oy + (self.dy[idx] - oy) * frac
        return px, py, self.sp[idx], self.vx[idx], self.vy[idx]

    def positions_all(self, t: float):
        """(x, y) arrays for every row at one scalar time ``t``.

        Same arithmetic as :meth:`kinematics_at` (scalar ``t``
        broadcasts elementwise through the identical expressions), but
        with no index gathers and no post-refresh revalidation — a
        refresh at ``t`` always covers ``t``.
        """
        bad = np.nonzero((t < self.v0) | (t > self.v1))[0]
        for i in bad.tolist():
            self._refresh_row(i, t)
        t0 = self.t0
        frac = (t - t0) / (self.t1 - t0)
        np.clip(frac, 0.0, 1.0, out=frac)
        ox = self.ox
        oy = self.oy
        px = ox + (self.dx - ox) * frac
        py = oy + (self.dy - oy) * frac
        return px, py

    def positions_many(self, ts: np.ndarray):
        """(G, N) x and y blocks for every row at the ascending times
        ``ts``: bitwise what :meth:`positions_all` returns called once
        per time in order, and the bank ends in the same state.

        Rows refresh by the same rule (only when a time leaves the
        cached window, at that time), so every element sees the leg the
        per-time calls would have cached.  One broadcast evaluates the
        legs cached at ``ts[0]`` over all times; only rows whose leg
        ends inside the window are then walked leg by leg, re-evaluating
        the times each later leg covers.  Models are pure in ``t``, so
        walking a row at a time caches the same legs as walking a time
        at a time.
        """
        t_first = float(ts[0])
        bad = np.nonzero((t_first < self.v0) | (t_first > self.v1))[0]
        for i in bad.tolist():
            self._refresh_row(i, t_first)
        t0 = self.t0
        t1 = self.t1
        ox = self.ox
        oy = self.oy
        dx = self.dx
        dy = self.dy
        frac = (ts[:, None] - t0) / (t1 - t0)
        np.clip(frac, 0.0, 1.0, out=frac)
        px = ox + (dx - ox) * frac
        py = oy + (dy - oy) * frac
        walk = np.nonzero(self.v1 < ts[-1])[0]
        if walk.size == 0:
            return px, py
        t_list = ts.tolist()
        v1 = self.v1
        for i in walk.tolist():
            g = bisect_right(t_list, v1[i])
            while g < len(t_list):
                self._refresh_row(i, t_list[g])
                g_end = bisect_right(t_list, v1[i], g + 1)
                frac = (ts[g:g_end] - t0[i]) / (t1[i] - t0[i])
                np.clip(frac, 0.0, 1.0, out=frac)
                px[g:g_end, i] = ox[i] + (dx[i] - ox[i]) * frac
                py[g:g_end, i] = oy[i] + (dy[i] - oy[i]) * frac
                g = g_end
        return px, py


class BatchedBeaconEngine:
    """One-event-per-interval beacon kernel for a :class:`Network`.

    Mid-interval state reads go through :meth:`flush`, which brings the
    world up to ``sim.now`` and is a pure function of (state, time) — so
    observer-triggered flushes cannot perturb outcomes.  A table read
    on the fast path goes through :meth:`settle_row` instead, which
    brings only the reader's row up to ``sim.now``: the row a flush
    would leave, at the cost of one row.  Until the next flush the other
    rows, the event credits and the deferred beacon energy lag behind
    the latest read; :meth:`settle` catches them up, and every reader of
    those (``Simulator.events_executed``, the ledger's ``lazy_source``)
    calls it first.  ``net.stats.beacons_sent`` never lags: a buffered
    fire is counted when it is generated.
    """

    def __init__(self, network: "Network"):
        self.net = network
        self.sim = network.sim
        self.interval = network.beacon_interval
        self.jitter = 0.05 * network.beacon_interval
        # Rows follow the network's neighbor table: store, id order and
        # id -> row index are shared, not copied.
        self.table: NeighborTable = network._neighbor_table
        self.ids = self.table.ids
        self.index: Dict[int, int] = self.table.index
        self.store = self.table.store
        nodes = [network.nodes[nid] for nid in self.ids.tolist()]
        self.bank = MobilityBank([n.mobility for n in nodes])
        n = len(nodes)
        self.next_fire = np.full(n, np.inf)
        self._jitter_gens = [
            self.sim.rng.stream(f"beacon.jitter.{node.id}") for node in nodes]
        # Per-node jitter draws are served from pre-drawn blocks:
        # ``Generator.uniform(low, high, size=m)`` consumes the PCG64
        # stream bitwise-identically to m scalar ``uniform`` calls
        # (proven in tests/test_beacon_equivalence.py), so block caching
        # keeps draw-for-draw parity with one scalar draw per fire while
        # amortizing the scalar-call overhead.
        self._jit_cache = np.zeros((n, _JIT_BLOCK))
        self._jit_pos = np.full(n, _JIT_BLOCK, dtype=np.int64)
        self.alive_mask = np.array([n.alive for n in nodes], dtype=bool)
        self.muted_mask = np.zeros(n, dtype=bool)
        # Position snapshot, refreshed by the rule of Network._sync_grid
        # but private to the kernel: protocol reads never move it.
        self.snap_t = -math.inf
        self.snap_x = np.zeros(n)
        self.snap_y = np.zeros(n)
        self.snap_alive = self.alive_mask.copy()
        # The ``len(grid) == len(nodes)`` rule: a snapshot only holds
        # nodes alive at sync time, so a partial snapshot forces a
        # re-sync on every subsequent fire until it fills back up —
        # while a full-but-stale one keeps serving within epsilon even
        # across a fresh death (receivers are still alive-filtered per
        # fire).
        self._snap_full = bool(self.snap_alive.all())
        # A sparse store (above _DENSE_MAX nodes when the table was
        # built) also switches receiver resolution to cell buckets.
        self._large = isinstance(self.store, SparseNeighborStore)
        # CellBuckets over the position snapshot (large mode only):
        # receiver-candidate superset per sender, rebuilt per refresh.
        self._snap_cells: Optional[CellBuckets] = None
        radio_ = network.radio
        self._cell_r = (radio_.max_range_m
                        if radio_.shadowing_sigma != 0.0 else radio_.range_m)
        # Pending deliveries, appended in fire order → chronological.
        # Two shapes share the list, told apart by entry[1]'s type:
        #   per-fire: (t_deliver, sender_idx:int, surv_idx, bx, by, sp,
        #             vx, vy)
        #   group:    (t_first, t_deliver[], sender_idx[], pair_rows[],
        #             pair_cols[], bx[], by[], sp[], vx[], vy[]) — the
        #             fast path; rows index into the group's fires, cols
        #             are receivers.  Dense records are row-major (fire,
        #             receiver); sparse ones are in store-key order
        #             (receiver, sender, fire).
        # entry[0] is always the earliest delivery time in the entry.
        self.pending: List[tuple] = []
        self._next_delivery = math.inf
        self._nf_min = math.inf
        # Liveness transitions (t, idx, new_alive) since the last apply,
        # for delivery-time alive checks.
        self._transitions: List[tuple] = []
        self.last_flush = -math.inf
        # Beacon-part accounts must be *created* in chronological charge
        # order so EnergyLedger.total_j() sums in the order per-fire
        # charging would (float addition is order-sensitive).
        self._acct_touched = np.zeros(n, dtype=bool)
        self._untouched = n
        # Account objects are created once and never replaced, so the
        # kernel keeps each touched row's beacon part for materializing.
        self._accts: List[Optional[EnergyAccount]] = [None] * n
        # Deferred beacon charge counts (fast path): _bulk_energy banks
        # per-row tx/rx *counts* here instead of writing every account
        # each epoch; the ledger's lazy_source gateway materializes a
        # row's counts on first account touch (see EnergyLedger.account).
        self._def_tx = np.zeros(n, dtype=np.int64)
        self._def_rx = np.zeros(n, dtype=np.int64)
        self._def_costs: Optional[Tuple[float, float]] = None
        network.ledger.lazy_source = self._energy_probe
        # Per-receiver beacon loss draws: their own stream, so beacons
        # never shift the MAC's frame draws.
        self._loss_rng = self.sim.rng.stream("mac.beacon")
        # Row reads (fast path): the live fires generated since the last
        # flush, unresolved, one column each of (t, t_deliver, bx, by,
        # sp, vx, vy, snapshot time serving the fire), their sender rows,
        # and the fires generated in all (credited when resolved).
        self._buf = np.empty((8, 256))
        self._buf_i = np.empty(256, dtype=np.int64)
        self._buf_n = 0
        self._buf_fires = 0
        # Snapshot-group walk state after the last buffered fire.
        self._buf_st = -math.inf
        self._buf_full = False
        # Latest row read since the last flush (None: none), and each
        # row's "settled through" time; the next flush skips a row's
        # deliveries at or before it.
        self._read_t: Optional[float] = None
        self._settled = np.full(n, -math.inf)
        self.sim.defer_credits(self.settle)
        self._running = False
        self._flushing = False
        self._virtual_now = 0.0
        self._epoch_handle = None
        radio = network.radio
        self.bits = (network.BEACON_BYTES + radio.header_bytes) * 8
        self.delay = (radio.airtime(network.BEACON_BYTES)
                      + radio.propagation_delay_s)
        self._r_sq = radio.range_m ** 2

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        stagger = self.sim.rng.stream("beacon.stagger")
        # Staggers are drawn in node-insertion order.
        now = self.sim.now
        for node in self.net.nodes.values():
            self.next_fire[self.index[node.id]] = now + float(
                stagger.uniform(0.0, self.interval))
        self._nf_min = float(self.next_fire.min()) if len(self.ids) \
            else math.inf
        self._running = True
        self._epoch_handle = self.sim.schedule_in(self.interval, self._epoch)

    def _epoch(self) -> None:
        self.flush(self.sim.now)
        if self._running:
            self._epoch_handle = self.sim.schedule_in(self.interval,
                                                      self._epoch)

    def stop(self) -> None:
        self.flush(self.sim.now)
        self._running = False
        if self._epoch_handle is not None:
            self._epoch_handle.cancel()
            self._epoch_handle = None
        self.next_fire[:] = np.inf
        self._nf_min = math.inf
        if self.pending:
            # Drain in-flight beacons: frames already sent are delivered.
            t_last = max(float(p[1][-1]) if isinstance(p[1], np.ndarray)
                         else p[0] for p in self.pending)
            self.sim.schedule_at(t_last, lambda: self.flush(self.sim.now))

    def grow(self, node: SensorNode) -> None:
        """Attach a node added after engine construction (the network
        has already given it the next neighbor-table row)."""
        # Buffered fires were walked without the new node: resolve them
        # first (the rows below ``ids`` are unchanged by the growth).
        self.settle()
        self.ids = self.table.ids
        self.bank.grow(node.mobility)
        self.next_fire = np.append(self.next_fire, np.inf)
        self._jitter_gens.append(
            self.sim.rng.stream(f"beacon.jitter.{node.id}"))
        self._jit_cache = np.vstack(
            [self._jit_cache, np.zeros((1, _JIT_BLOCK))])
        self._jit_pos = np.append(self._jit_pos, _JIT_BLOCK)
        self.alive_mask = np.append(self.alive_mask, node.alive)
        self.muted_mask = np.append(self.muted_mask, False)
        self.snap_t = -math.inf
        self.snap_x = np.append(self.snap_x, 0.0)
        self.snap_y = np.append(self.snap_y, 0.0)
        self.snap_alive = np.append(self.snap_alive, node.alive)
        self._snap_full = bool(self.snap_alive.all())
        self._acct_touched = np.append(self._acct_touched, False)
        self._untouched += 1
        self._settled = np.append(self._settled, -math.inf)
        self._accts.append(None)
        self._def_tx = np.append(self._def_tx, 0)
        self._def_rx = np.append(self._def_rx, 0)

    # -- liveness / mute -----------------------------------------------------

    def on_liveness(self, node: SensorNode, new_alive: bool) -> None:
        """Called by the node's ``alive`` setter *before* the flag flips."""
        i = self.index.get(node.id)
        if i is None:
            return
        if not self._flushing:
            # Settle the world under the old liveness first.
            self.flush(self.sim.now)
            t = self.sim.now
        else:
            t = self._virtual_now
        self._transitions.append((t, i, new_alive))
        self.alive_mask[i] = new_alive

    def on_mobility_change(self, node: SensorNode, model) -> None:
        """Called by the node's ``mobility`` setter *before* the swap."""
        i = self.index.get(node.id)
        if i is None:
            return
        self.flush(self.sim.now)
        self.bank.models[i] = model
        self.bank.v0[i] = np.inf
        self.bank.v1[i] = -np.inf

    def set_muted(self, node_ids, muted: bool) -> None:
        ids = list(node_ids)
        self.flush(self.sim.now)
        for nid in ids:
            i = self.index.get(nid)
            if i is not None:
                self.muted_mask[i] = muted

    # -- flush ---------------------------------------------------------------

    def _fast(self) -> bool:
        """The fast gate: no battery and no ``beacon_charge`` subscriber
        (so liveness cannot flip mid-flush and charges need no order)
        and a lossless unshadowed channel (no RNG draws to sequence)."""
        net = self.net
        ledger = net.ledger
        radio = net.radio
        return (ledger.capacity_j is None
                and not ledger.observed("beacon_charge")
                and radio.shadowing_sigma == 0.0
                and radio.base_loss_rate == 0.0
                and net.mac.loss_overlay_at is None)

    def _row_reads(self) -> bool:
        """Whether a table read may settle its row alone: the fast gate,
        and no ``beacon`` subscriber (which must see every delivery in
        order, as a flush makes them)."""
        return self._fast() and not self.sim.probe.beacon

    def flush(self, now: float) -> None:
        """Bring beacon state exactly up to ``now``."""
        if self._flushing:
            return
        if self._read_t is not None and not self._row_reads():
            # The gate closed since the buffered reads: settle them as
            # the reads would have, before the closed gate changes how
            # anything resolves.
            self.settle()
        if (self._nf_min > now and self._next_delivery > now
                and self._read_t is None):
            return  # fast path: nothing due; no revision churn
        self._flushing = True
        try:
            if self._fast():
                self._buffer_fires(now)
                n_events = self._resolve_buffer()
            else:
                fires = self._generate_fires(now)
                n_events = 0 if fires is None else (
                    int(fires[0].size) + self._process_slow(*fires))
            self._apply_due(now)
            self._finish(now, n_events)
        finally:
            self._flushing = False

    def settle(self) -> None:
        """Bring the whole field up to the latest row read since the
        last flush: resolve the buffered fires and apply every delivery
        due by then, leaving the state a flush at that read would have
        left (a no-op when no row was read since)."""
        if self._read_t is None or self._flushing:
            return
        t = self._read_t
        self._flushing = True
        try:
            n_events = self._resolve_buffer()
            # The reads ran with no ``beacon`` subscriber, so a flush at
            # their time would have told none.
            self._apply_due(t, tell_pairs=False)
            self._finish(t, n_events)
        finally:
            self._flushing = False

    def _finish(self, t: float, n_events: int) -> None:
        """Book a whole-field flush up to ``t``: every row is settled."""
        self.last_flush = t
        self._nf_min = float(self.next_fire.min()) if len(self.ids) \
            else math.inf
        self._next_delivery = self.pending[0][0] if self.pending \
            else math.inf
        if self._read_t is not None:
            self._read_t = None
            self._settled.fill(-math.inf)
        if n_events:
            self.sim.credit_events(n_events)

    def _generate_fires(self, now: float) -> Optional[tuple]:
        """``(t_arr, i_arr)`` of all fires with t <= now, chronological
        (stable-sorted, so same-instant fires keep node-index order);
        ``None`` when nothing is due.

        Jitter draws replicate ``PeriodicTask._next_delay`` exactly: one
        uniform per fire from the node's own stream, drawn even when the
        fire will be skipped (dead/muted): a periodic task draws its next
        delay whatever its callback did.
        """
        due = (self.next_fire <= now).nonzero()[0]
        if due.size == 0:
            return None
        interval = self.interval
        jit = self.jitter
        cache = self._jit_cache
        pos = self._jit_pos
        gens = self._jitter_gens
        t_parts: List[np.ndarray] = []
        i_parts: List[np.ndarray] = []
        cur_i = due
        cur_t = self.next_fire[due]
        # Wave-by-wave: almost every due node fires exactly once per
        # epoch, so wave 1 covers them all in a handful of array ops and
        # later waves (re-fires within the window) shrink fast.
        while cur_i.size:
            t_parts.append(cur_t)
            i_parts.append(cur_i)
            need = pos[cur_i] >= _JIT_BLOCK
            if need.any():
                for i in cur_i[need].tolist():
                    cache[i] = gens[i].uniform(-jit, jit, _JIT_BLOCK)
                    pos[i] = 0
            draws = cache[cur_i, pos[cur_i]]
            pos[cur_i] += 1
            nxt = cur_t + np.maximum(1e-9, interval + draws)
            self.next_fire[cur_i] = nxt
            again = nxt <= now
            if not again.any():
                break
            cur_i = cur_i[again]
            cur_t = nxt[again]
        t_arr = np.concatenate(t_parts)
        i_arr = np.concatenate(i_parts)
        order = t_arr.argsort(kind="stable")
        return t_arr[order], i_arr[order]

    def _refresh_snapshot(self, t: float) -> None:
        self.snap_x, self.snap_y = self.bank.positions_all(t)
        self.snap_alive = self.alive_mask.copy()
        self._snap_full = bool(self.snap_alive.all())
        self.snap_t = t
        if self._large:
            prev = self._snap_cells
            self._snap_cells = CellBuckets(
                self.snap_x, self.snap_y, self._cell_r,
                prev_order=None if prev is None else prev.order)

    def _group_pairs(self, g_idx: np.ndarray, spx_g: np.ndarray,
                     spy_g: np.ndarray, thr: float):
        """In-range (fire_row, receiver_col) pairs for one snapshot
        group, rows ascending but unsorted within a row, with
        snapshot/current-liveness filters and self-hearing excluded.

        The cell-bucket candidate set is a superset of every receiver
        within ``sqrt(thr) <= cell size``, and the distance filter below
        applies the same elementwise arithmetic as the dense (B, N)
        row computation — so membership matches it bitwise.
        """
        cells = self._snap_cells
        prows, slots = cells.candidate_slots(spx_g, spy_g)
        # dx * dx + dy * dy, computed in place.
        dx = cells.sorted_xs[slots]
        dx -= spx_g[prows]
        dx *= dx
        dy = cells.sorted_ys[slots]
        dy -= spy_g[prows]
        dy *= dy
        dx += dy
        near = np.flatnonzero(dx <= thr)
        prows = prows[near]
        pcols = cells.order[slots[near]]
        keep = (self.snap_alive & self.alive_mask)[pcols]
        keep &= pcols != g_idx[prows]
        return prows[keep], pcols[keep]

    def _walk_groups(self, tf: np.ndarray, st: float, full: bool):
        """Snapshot groups of the live fires ``tf`` (ascending), walked
        from a snapshot taken at ``st`` (full or not) by the
        ``_sync_grid`` rule: a fire refreshes the snapshot when it is
        stale by epsilon, or when it is missing a node (it drops dead
        nodes, so it re-syncs every fire until everyone is back); a
        full-but-stale snapshot keeps serving within epsilon even if a
        node died since.  Liveness cannot flip inside a fast flush, so
        "full" after a refresh means everyone is alive now.

        Returns ``(starts, st, full)``: the indices of the fires that
        refresh, and the state after the last fire.
        """
        eps = self.net.position_epsilon
        all_alive = bool(self.alive_mask.all())
        starts: List[int] = []
        n = int(tf.size)
        k = 0
        while k < n:
            if full:
                # ``t - st`` is non-decreasing in t: the first stale
                # fire is one binary search away.
                k += int(np.searchsorted(tf[k:] - st, eps, side="left"))
                if k >= n:
                    break
            starts.append(k)
            st = float(tf[k])
            full = all_alive
            k += 1
            if not full and k < n:
                starts.extend(range(k, n))
                st = float(tf[-1])
                break
        return starts, st, full

    def _buffer_fires(self, now: float) -> None:
        """Generate every fire due by ``now`` and buffer the live ones
        unresolved, with their sender kinematics and the snapshot time
        that will serve each; count them as sent."""
        if self._nf_min > now:
            return
        fires = self._generate_fires(now)
        self._nf_min = float(self.next_fire.min())
        if fires is None:
            return
        t_all, i_all = fires
        self._buf_fires += int(t_all.size)
        ok = self.alive_mask[i_all] & ~self.muted_mask[i_all]
        if not ok.all():
            t_all, i_all = t_all[ok], i_all[ok]
        m = int(t_all.size)
        if not m:
            return
        if not self._buf_n:
            self._buf_st, self._buf_full = self.snap_t, self._snap_full
        st0 = self._buf_st
        starts, self._buf_st, self._buf_full = self._walk_groups(
            t_all, st0, self._buf_full)
        if not starts:
            g_t = st0
        elif len(starts) == m:
            g_t = t_all
        else:
            gid = np.zeros(m, dtype=np.intp)
            gid[starts] = 1
            g_t = np.concatenate(([st0], t_all[starts]))[gid.cumsum()]
        n0, n1 = self._buf_n, self._buf_n + m
        if n1 > self._buf_i.size:
            cap = 2 * n1
            buf = np.empty((8, cap))
            buf[:, :n0] = self._buf[:, :n0]
            buf_i = np.empty(cap, dtype=np.int64)
            buf_i[:n0] = self._buf_i[:n0]
            self._buf, self._buf_i = buf, buf_i
        b = self._buf
        b[0, n0:n1] = t_all
        b[1, n0:n1] = t_all + self.delay
        (b[2, n0:n1], b[3, n0:n1], b[4, n0:n1], b[5, n0:n1],
         b[6, n0:n1]) = self.bank.kinematics_at(i_all, t_all)
        b[7, n0:n1] = g_t
        self._buf_i[n0:n1] = i_all
        self._buf_n = n1
        self.net.stats.beacons_sent += m

    def _resolve_buffer(self) -> int:
        """Resolve every buffered fire in one pass, leave its delivery
        records in ``pending`` and bank its energy; returns the events
        to credit (fires generated plus delivery batches)."""
        n_events = self._buf_fires
        self._buf_fires = 0
        m = self._buf_n
        if not m:
            return n_events
        self._buf_n = 0
        b = self._buf
        # Copies: pending records outlive the buffer's next refill.
        tf = b[0, :m].copy()
        idx = self._buf_i[:m].copy()
        kin = tuple(b[row, :m].copy() for row in range(2, 7))
        n = len(self.ids)
        tx_counts = np.bincount(idx, minlength=n)
        rx_counts = np.zeros(n, dtype=np.int64)
        if self._large:
            n_batches = self._resolve_groups(tf, idx, kin, rx_counts)
        else:
            n_batches = self._process_whole_flush(tf, tf.tolist(), idx, kin,
                                                  rx_counts)
        self._bulk_energy(self.net, tx_counts, rx_counts)
        return n_events + n_batches

    def _resolve_groups(self, tf: np.ndarray, idx: np.ndarray, kin: tuple,
                        rx_counts: np.ndarray) -> int:
        """The sparse store's fast resolution: each snapshot group folds
        into a handful of array ops over its cell-bucket candidates and
        leaves one group record, its pairs in store-key order (receiver,
        then sender, a sender's later fire last); returns the delivery
        batches made."""
        starts, _st, _full = self._walk_groups(tf, self.snap_t,
                                               self._snap_full)
        spx, spy = kin[0], kin[1]
        n = len(self.ids)
        n_batches = 0
        bounds = ([0] if not starts or starts[0] else []) + starts
        for a, b in zip(bounds, bounds[1:] + [int(tf.size)]):
            if starts and a >= starts[0]:
                self._refresh_snapshot(float(tf[a]))
            g_idx = idx[a:b]
            prows, pcols = self._group_pairs(g_idx, spx[a:b], spy[a:b],
                                             self._r_sq)
            self._touch_new(g_idx, prows, pcols)
            if not prows.size:
                continue
            rx_counts += np.bincount(pcols, minlength=n)
            # Candidate rows come out ascending.
            n_batches += 1 + int(np.count_nonzero(prows[1:] != prows[:-1]))
            key = pcols * n
            key += g_idx[prows]
            key *= b - a
            key += prows
            order = key.argsort()
            tds = tf[a:b] + self.delay
            self.pending.append((float(tds[0]), tds, g_idx, prows[order],
                                 pcols[order]) + tuple(c[a:b] for c in kin))
        self._virtual_now = float(tf[-1])
        return n_batches

    def _process_slow(self, t_all: np.ndarray, i_all: np.ndarray) -> int:
        """Execute live fires in order, one at a time: per-fire RNG
        draws and eager charges (slow energy, shadowing, loss), with
        cell-bucketed candidates on a sparse store; returns the number
        of delivery batches created (for event crediting)."""
        net = self.net
        ok = self.alive_mask[i_all] & ~self.muted_mask[i_all]
        if not ok.any():
            return 0
        idx = i_all[ok] if not ok.all() else i_all
        tf = t_all[ok] if not ok.all() else t_all
        tf_list = tf.tolist()
        idx_list = idx.tolist()
        # Sender kinematics, gathered before any snapshot refresh mutates
        # bank rows (kinematics_at handles per-element staleness).
        spx, spy, ssp, svx, svy = self.bank.kinematics_at(idx, tf)

        mac = net.mac
        ledger = net.ledger
        slow_energy = (ledger.observed("beacon_charge")
                       or ledger.capacity_j is not None)
        has_overlay = mac.loss_overlay_at is not None
        base_loss = net.radio.base_loss_rate
        shadowing = net.radio.shadowing_sigma != 0.0
        r_sq = net.radio.range_m ** 2
        max_r_sq = net.radio.max_range_m ** 2
        eps = net.position_epsilon
        n_batches = 0
        tx_counts: Optional[np.ndarray] = None
        rx_counts: Optional[np.ndarray] = None
        if not slow_energy:
            tx_counts = np.zeros(len(self.ids), dtype=np.int64)
            rx_counts = np.zeros(len(self.ids), dtype=np.int64)

        n_live = len(tf_list)
        k = 0
        while k < n_live:
            t_k = tf_list[k]
            # The snapshot rule of _walk_groups, fire by fire: a battery
            # may change liveness inside this loop.
            if t_k - self.snap_t >= eps or not self._snap_full:
                self._refresh_snapshot(t_k)
            # Group consecutive fires sharing this snapshot.
            g_end = k + 1
            if self._snap_full:
                while (g_end < n_live
                       and tf_list[g_end] - self.snap_t < eps):
                    g_end += 1
            g_idx = idx[k:g_end]
            B = g_end - k
            thr = max_r_sq if shadowing else r_sq
            if self._large:
                # Cell-bucketed candidates instead of a (B, N) matrix,
                # sorted row-major.
                prows, pcols = self._group_pairs(
                    g_idx, spx[k:g_end], spy[k:g_end], thr)
                sel = np.argsort(prows * len(self.ids) + pcols)
                prows, pcols = prows[sel], pcols[sel]
                row_starts = np.searchsorted(prows, np.arange(B + 1))
                in_range = None
            else:
                dxm = self.snap_x[None, :] - spx[k:g_end, None]
                dym = self.snap_y[None, :] - spy[k:g_end, None]
                d2 = dxm * dxm + dym * dym
                in_range = d2 <= thr
                in_range &= self.snap_alive[None, :]
                in_range &= self.alive_mask[None, :]
                in_range[np.arange(B), g_idx] = False
                row_starts = None
            for g in range(k, g_end):
                t_f = tf_list[g]
                s_i = idx_list[g]
                self._virtual_now = t_f
                if not self.alive_mask[s_i] or self.muted_mask[s_i]:
                    # Sender killed earlier in this flush (battery):
                    # liveness is checked at its own fire time, so it
                    # skips.
                    continue
                if in_range is not None:
                    r_idx = np.nonzero(in_range[g - k])[0]
                else:
                    r_idx = pcols[row_starts[g - k]:row_starts[g - k + 1]]
                if slow_energy:
                    # A battery may have killed receivers earlier in this
                    # group.
                    r_idx = r_idx[self.alive_mask[r_idx]]
                if shadowing and r_idx.size:
                    sid = int(self.ids[s_i])
                    spos = Vec2(float(spx[g]), float(spy[g]))
                    keep = []
                    for ri in r_idx.tolist():
                        rpos = Vec2(float(self.snap_x[ri]),
                                    float(self.snap_y[ri]))
                        if rpos.distance_to(spos) <= net.link_range(
                                sid, int(self.ids[ri])):
                            keep.append(ri)
                    r_idx = np.array(keep, dtype=np.int64)
                net.stats.beacons_sent += 1
                if slow_energy:
                    # A battery may kill the sender mid-charge; its
                    # frame still goes out (charge first, then send).
                    ledger.charge_tx(int(self.ids[s_i]), self.bits,
                                     net.radio.range_m, "beacon_charge")
                else:
                    tx_counts[s_i] += 1
                    if not self._acct_touched[s_i]:
                        self._touch_account(s_i)
                loss = mac.loss_rate_at(t_f) if has_overlay else base_loss
                # A lossless channel draws nothing; one random(n) call
                # consumes the stream exactly as n scalar draws would.
                if loss > 0.0 and r_idx.size:
                    survivors = r_idx[self._loss_rng.random(r_idx.size)
                                      >= loss]
                else:
                    survivors = r_idx
                # rx is charged at FIRE time for all survivors, even
                # ones that die before delivery.
                if slow_energy:
                    for ri in survivors.tolist():
                        ledger.charge_rx(int(self.ids[ri]), self.bits,
                                         "beacon_charge")
                else:
                    np.add.at(rx_counts, survivors, 1)
                    fresh = survivors[~self._acct_touched[survivors]]
                    for ri in fresh.tolist():
                        self._touch_account(ri)
                if survivors.size:
                    self.pending.append(
                        (t_f + self.delay, s_i, survivors,
                         float(spx[g]), float(spy[g]), float(ssp[g]),
                         float(svx[g]), float(svy[g])))
                    n_batches += 1
            k = g_end
        if not slow_energy:
            self._bulk_energy(net, tx_counts, rx_counts)
        return n_batches

    def _process_whole_flush(self, tf: np.ndarray, tf_list: List[float],
                             idx: np.ndarray, kin: tuple,
                             rx_counts: np.ndarray) -> int:
        """Resolve every live fire of a fast dense flush in one pass;
        returns the number of delivery batches created.

        Liveness cannot flip mid-flush, so the snapshot groups the
        sequential loop would form are a pure function of the fire
        times (:meth:`_walk_groups`).  Every group's snapshot comes from
        one multi-time bank call, every fire's receivers from one
        (n_fires, N) range matrix, and the flush leaves one group record
        in ``pending``.  Only a full snapshot is ever reused, so fires it
        serves need no mask beyond the current ``alive_mask`` — the same
        one a refreshed snapshot holds.
        """
        net = self.net
        spx, spy = kin[0], kin[1]
        all_alive = bool(self.alive_mask.all())
        n_live = len(tf_list)
        starts, st, full = self._walk_groups(tf, self.snap_t,
                                             self._snap_full)
        # Per-fire snapshot row: 0 is the pre-flush snapshot, g the g-th
        # refresh.
        g_row = np.zeros(n_live, dtype=np.intp)
        if starts:
            g_row[starts] = 1
            g_row = np.cumsum(g_row)
            gx, gy = self.bank.positions_many(tf[starts])
            sxs = np.concatenate((self.snap_x[None, :], gx))
            sys_ = np.concatenate((self.snap_y[None, :], gy))
            self.snap_x = gx[-1].copy()
            self.snap_y = gy[-1].copy()
            self.snap_alive = self.alive_mask.copy()
            self._snap_full = full
            self.snap_t = st
        else:
            sxs = self.snap_x[None, :]
            sys_ = self.snap_y[None, :]
        dxm = sxs[g_row]
        dxm -= spx[:, None]
        dxm *= dxm
        dym = sys_[g_row]
        dym -= spy[:, None]
        dym *= dym
        dxm += dym
        in_range = dxm <= net.radio.range_m ** 2
        if not all_alive:
            in_range &= self.alive_mask
        in_range[np.arange(n_live), idx] = False
        # np.nonzero is row-major: pairs sorted by (fire, receiver).
        prows, pcols = np.nonzero(in_range)
        self._touch_new(idx, prows, pcols)
        rx_counts += np.bincount(pcols, minlength=len(self.ids))
        if prows.size:
            tds = tf + self.delay
            self.pending.append((float(tds[0]), tds, idx, prows, pcols)
                                + kin)
        self._virtual_now = tf_list[-1]
        return int(np.count_nonzero(in_range.any(axis=1)))

    def _bulk_energy(self, net, tx_counts: np.ndarray,
                     rx_counts: np.ndarray) -> None:
        """Bank counted beacon tx/rx charges for deferred materialization.

        Repeated addition of one constant is order-independent given the
        count, and every involved account already exists (the sequential
        loop and :meth:`_touch_new` create them in charge order) — so
        nothing needs the account objects *now*.  Two vector adds bank
        the counts; :meth:`_energy_probe` (wired as the ledger's
        ``lazy_source``) converts a row's banked count into the exact
        repeated-add the eager path would have produced, at the first
        account touch.
        """
        model = net.energy_model
        self._def_costs = (model.tx_cost(self.bits, net.radio.range_m),
                           model.rx_cost(self.bits))
        self._def_tx += tx_counts
        self._def_rx += rx_counts

    def _touch_account(self, i: int) -> None:
        """Create row ``i``'s beacon-part account now, in charge order,
        and keep it for :meth:`_materialize_row`."""
        self._accts[i] = self.net.ledger.account(int(self.ids[i]),
                                                 "beacon_charge")
        self._acct_touched[i] = True
        self._untouched -= 1

    def _touch_new(self, senders: np.ndarray, prows: np.ndarray,
                   pcols: np.ndarray) -> None:
        """Create the beacon-part accounts a batch of resolved fires
        touches for the first time, in the order the sequential loop
        charges them: fire by fire, the sender, then its receivers
        ascending.  ``senders[f]`` is fire ``f``'s sender and ``(prows,
        pcols)`` its (fire, receiver) pairs, in any order.

        Each node is keyed by its first charge, ``f * (n + 1)`` as the
        sender of fire ``f`` and ``f * (n + 1) + 1 + col`` as its
        receiver ``col``, and the new accounts are created in key
        order."""
        if not self._untouched:
            return
        untouched = ~self._acct_touched
        f = np.flatnonzero(untouched[senders])
        p = np.flatnonzero(untouched[pcols])
        if not (f.size or p.size):
            return
        n1 = len(self.ids) + 1
        never = np.iinfo(np.int64).max
        first = np.full(n1 - 1, never)
        np.minimum.at(first, senders[f], f * n1)
        cols = pcols[p]
        np.minimum.at(first, cols, prows[p] * n1 + 1 + cols)
        fresh = np.flatnonzero(first != never)
        for i in fresh[first[fresh].argsort()].tolist():
            self._touch_account(i)

    def _energy_probe(self, node_id: Optional[int]) -> None:
        """Ledger ``lazy_source`` gateway: settle the field to the latest
        row read, then materialize banked beacon charges for ``node_id``
        (None = every node, in two vector passes) before the account is
        read or mutated."""
        self.settle()
        if self._def_costs is None:
            return
        if node_id is None:
            nz = np.flatnonzero(self._def_tx | self._def_rx)
            if not nz.size:
                return
            accts = [self._accts[i] for i in nz.tolist()]
            tx_cost, rx_cost = self._def_costs
            tx = repeated_add_many([a.tx_j for a in accts], tx_cost,
                                   self._def_tx[nz])
            rx = repeated_add_many([a.rx_j for a in accts], rx_cost,
                                   self._def_rx[nz])
            self._def_tx[nz] = 0
            self._def_rx[nz] = 0
            for acct, tx_j, rx_j in zip(accts, tx.tolist(), rx.tolist()):
                acct.tx_j = tx_j
                acct.rx_j = rx_j
            return
        i = self.index.get(node_id)
        if i is not None:
            self._materialize_row(i)

    def _materialize_row(self, i: int) -> None:
        ct = int(self._def_tx[i])
        cr = int(self._def_rx[i])
        if not (ct or cr):
            return
        self._def_tx[i] = 0
        self._def_rx[i] = 0
        # Only touched rows bank counts, so their account is kept.
        acct = self._accts[i]
        tx_cost, rx_cost = self._def_costs
        if ct:
            acct.tx_j = repeated_add(acct.tx_j, tx_cost, ct)
        if cr:
            acct.rx_j = repeated_add(acct.rx_j, rx_cost, cr)

    def _alive_at_bulk(self, cols: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
        """Receiver liveness at delivery time for (receiver, time)
        pairs, reconstructed from the transitions log (a receiver dead
        at delivery time does not hear the frame).

        Nodes without transitions (almost all of them) resolve in one
        ``alive_mask`` gather; each transitioning node's pairs resolve
        with one searchsorted against its chronological transition log:
        the state set by the last transition at or before the time, or,
        before any transition, the opposite of the first one's target.
        """
        out = self.alive_mask[cols].copy()
        per_node: Dict[int, tuple] = {}
        for (tt, i, new) in self._transitions:
            if i in per_node:
                per_node[i][0].append(tt)
                per_node[i][1].append(new)
            else:
                per_node[i] = ([tt], [new])
        for i, (tts, news) in per_node.items():
            sel = np.nonzero(cols == i)[0]
            if sel.size == 0:
                continue
            pos = np.searchsorted(np.array(tts), times[sel], side="right")
            news_arr = np.array(news, dtype=bool)
            vals = np.where(pos > 0, news_arr[np.maximum(pos - 1, 0)],
                            not news[0])
            out[sel] = vals
        return out

    def _apply_due(self, now: float, tell_pairs: bool = True) -> None:
        """Deliver all pending beacon batches with t_deliver <= now
        (telling ``beacon`` subscribers of each pair if ``tell_pairs``),
        except a row's pairs at or before its "settled through" time,
        which a row read has applied already."""
        if not self.pending or self.pending[0][0] > now:
            return
        split = 0
        straddler: Optional[tuple] = None
        while split < len(self.pending) and self.pending[split][0] <= now:
            e = self.pending[split]
            if isinstance(e[1], np.ndarray) and float(e[1][-1]) > now:
                # A group record straddling ``now``: split it at the
                # boundary.  Delivery delay is constant, so every later
                # pending entry starts strictly after this one — safe to
                # stop scanning here.  A mask keeps each half's pairs in
                # the record's order, and the tail's rows re-base
                # against its first remaining fire.
                tds, gi, prows, pcols, kin = e[1], e[2], e[3], e[4], e[5:]
                cut = int(np.searchsorted(tds, now, side="right"))
                head = prows < cut
                tail = ~head
                self.pending[split] = ((e[0], tds[:cut], gi[:cut],
                                        prows[head], pcols[head])
                                       + tuple(c[:cut] for c in kin))
                straddler = ((float(tds[cut]), tds[cut:], gi[cut:],
                              prows[tail] - cut, pcols[tail])
                             + tuple(c[cut:] for c in kin))
                split += 1
                break
            split += 1
        due = self.pending[:split]
        self.pending = self.pending[split:]
        if straddler is not None:
            self.pending.insert(0, straddler)
        has_transitions = bool(self._transitions)
        all_alive = not has_transitions and bool(self.alive_mask.all())
        hooks = self.net.sim.probe.beacon if tell_pairs else ()
        batch_hooks = self.net.sim.probe.beacon_batch
        n_delivered = 0
        # The sparse store takes each record in one sorted write; the
        # dense store takes chunks of the senders' fires and delivered
        # (receiver, sender, t, bx, by, sp, vx, vy) columns.
        fires: List[np.ndarray] = []
        parts: List[tuple] = []
        n_parts = 0
        for entry in due:
            if isinstance(entry[1], np.ndarray):
                tds, gi, g_rows, g_cols, kin = (entry[1], entry[2],
                                                entry[3], entry[4],
                                                entry[5:])
                if has_transitions:
                    if g_rows.size:
                        keep = self._alive_at_bulk(g_cols, tds[g_rows])
                        g_rows, g_cols = g_rows[keep], g_cols[keep]
                elif not all_alive:
                    keep = self.alive_mask[g_cols]
                    g_rows, g_cols = g_rows[keep], g_cols[keep]
                if g_rows.size == 0:
                    continue
                if hooks:
                    self._tell(hooks, tds, gi, g_rows, g_cols)
                n_delivered += int(g_rows.size)
                if self._large:
                    self._write_group(tds, gi, g_rows, g_cols, kin)
                    continue
                fires.append(gi)
                parts.append((g_cols, gi[g_rows], tds[g_rows])
                             + tuple(c[g_rows] for c in kin))
            else:
                (td, s_i, surv, bx, by, sp, vx, vy) = entry
                if has_transitions:
                    surv = surv[self._alive_at_bulk(
                        surv, np.full(surv.size, td))]
                else:
                    surv = surv[self.alive_mask[surv]]
                if surv.size == 0:
                    continue
                if hooks:
                    src = int(self.ids[s_i])
                    for r in surv.tolist():
                        rid = int(self.ids[r])
                        for hook in hooks:
                            hook(rid, src, td)
                m = surv.size
                n_delivered += m
                if self._large:
                    # A one-fire group record: receivers ascending are
                    # its store keys ascending.
                    self._write_group(
                        np.array([td]), np.array([s_i]),
                        np.zeros(m, dtype=np.intp), surv,
                        tuple(np.array([v]) for v in (bx, by, sp, vx, vy)))
                    continue
                fires.append(np.array([s_i], dtype=np.int64))
                parts.append((surv, np.full(m, s_i, dtype=np.int64))
                             + tuple(np.full(m, v)
                                     for v in (td, bx, by, sp, vx, vy)))
            n_parts += int(parts[-1][0].size)
            if n_parts >= _APPLY_CHUNK:
                self._write_deliveries(fires, parts)
                fires, parts, n_parts = [], [], 0
        if n_delivered and batch_hooks:
            for hook in batch_hooks:
                hook(n_delivered)
        if parts:
            self._write_deliveries(fires, parts)
        if self._transitions:
            t_min = min((p[0] for p in self.pending), default=math.inf)
            self._transitions = [tr for tr in self._transitions
                                 if tr[0] > t_min]

    def _tell(self, hooks, tds: np.ndarray, gi: np.ndarray,
              rows: np.ndarray, cols: np.ndarray) -> None:
        """Tell ``beacon`` subscribers of a group record's delivered
        pairs fire by fire, receivers ascending, as one event per frame
        would."""
        if self._large:
            # Key-ordered records: back to (fire, receiver) order.
            order = np.argsort(rows * len(self.ids) + cols)
            rows, cols = rows[order], cols[order]
        # Bulk tolist() gathers yield the same Python ints/floats the
        # per-pair conversions did.
        rids = self.ids[cols].tolist()
        srcs = self.ids[gi[rows]].tolist()
        t_ds = tds[rows].tolist()
        for rid, src, t_d in zip(rids, srcs, t_ds):
            for hook in hooks:
                hook(rid, src, t_d)

    def _write_group(self, tds: np.ndarray, gi: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray, kin: tuple) -> None:
        """Write one key-ordered group record's delivered pairs straight
        into the sparse store: one in-place update, the latest delivery
        of each (receiver, sender) pair winning, and a row's deliveries
        at or before its settled time skipped.  Records are written in
        chronological order, so a later record's cell overwrites an
        earlier one's."""
        if self._read_t is not None:
            keep = tds[rows] > self._settled[cols]
            if not keep.all():
                rows, cols = rows[keep], cols[keep]
        # The store's own width: a node added since the record was made
        # has widened it already.
        keys = cols * self.store.n
        keys += gi[rows]
        if keys.size > 1:
            # A sender's fires sort by fire within its key: keep the
            # last of each run.
            last = keys[1:] != keys[:-1]
            if not last.all():
                last = np.append(last, True)
                keys, rows = keys[last], rows[last]
        fire_pay = np.column_stack((tds,) + tuple(kin))
        self.store.write_sorted(keys, fire_pay[rows])

    def _write_deliveries(self, fires: List[np.ndarray],
                          parts: List[tuple]) -> None:
        """Scatter chronological delivery columns into the dense store:
        the latest delivery of each (receiver, sender) pair wins, and a
        row's deliveries at or before its settled time are skipped.

        Writes in chronological chunks leave what one write would: a
        later chunk's cell overwrites an earlier one's.
        """
        cols = ([np.concatenate(c) for c in zip(*parts)] if len(parts) > 1
                else list(parts[0]))
        R, S, T = cols[0], cols[1], cols[2]
        if self._read_t is not None:
            keep = T > self._settled[R]
            if not keep.all():
                cols = [c[keep] for c in cols]
                R, S = cols[0], cols[1]
        n = len(self.ids)
        # Duplicate (receiver, sender) pairs can only come from a
        # sender with >= 2 fires delivered in this write, so gate the
        # (sort-based) dedup on a cheap per-sender fire count and
        # restrict it to that sender's rows.
        fire_counts = np.bincount(np.concatenate(fires), minlength=n)
        if fire_counts.max() > 1:
            d_idx = np.nonzero(fire_counts[S] > 1)[0]
            d_key = R[d_idx] * n + S[d_idx]
            # Stable argsort groups equal keys in delivery order, so
            # the last element of each run is the latest delivery —
            # a sort-based unique that avoids np.unique (whose first
            # call drags in the numpy.ma subtree, ~25 ms).
            order = np.argsort(d_key, kind="stable")
            ks = d_key[order]
            if ks.size > 1 and bool((ks[1:] == ks[:-1]).any()):
                # Keep the LAST (latest delivery) of each duplicate
                # pair — fancy assignment order for duplicates is
                # not guaranteed, so dedup explicitly.  Deliveries
                # are chronological, so a boolean keep-mask (which
                # preserves order) is equivalent.
                run_last = np.nonzero(
                    np.append(ks[1:] != ks[:-1], True))[0]
                last = d_idx[order[run_last]]
                keep = np.ones(S.size, dtype=bool)
                keep[d_idx] = False
                keep[last] = True
                cols = [c[keep] for c in cols]
        self.store.scatter(*cols)

    # -- reads ---------------------------------------------------------------

    def sync_node_table(self, node: SensorNode) -> Tuple[np.ndarray, ...]:
        """Settle ``node``'s row up to now (:meth:`settle_row`), then
        return it."""
        self.settle_row(node)
        return self.store.row(self.index[node.id])

    def settle_row(self, node: SensorNode) -> None:
        """Bring ``node``'s neighbor-table row exactly to what a flush
        to now would leave in it.  On the fast path only that row is
        touched (:meth:`_settle_row`); otherwise this is a flush."""
        if self._flushing:
            return
        if self._row_reads():
            self._settle_row(self.index[node.id], self.sim.now)
        else:
            self.flush(self.sim.now)

    def _settle_row(self, r: int, now: float) -> None:
        """Apply to row ``r`` every delivery due to it in (its settled
        time, ``now``]: pending records plus buffered fires, the latter
        range-tested against the reader's own position in the snapshot
        that will serve each fire.

        The arithmetic is the flush's (``snapshot - sender``, squared,
        summed, against ``range_m ** 2``), so membership is bitwise the
        same.  Group times are a pure function of the fire times, and a
        buffered fire's sender kinematics are those the flush will
        store.  Receiver liveness is the current one: any liveness
        change flushes first, so it held over the whole window.
        """
        if self._nf_min <= now:
            self._buffer_fires(now)
        elif (self._read_t is None and self._next_delivery > now):
            return  # nothing due anywhere: a flush would be a no-op
        self._read_t = now
        lo = float(self._settled[r])
        self._settled[r] = now
        if not self.alive_mask[r]:
            return
        # (sender, t_deliver, bx, by, sp, vx, vy) columns, chronological
        # per sender.
        parts: List[tuple] = []
        for e in self.pending:
            if e[0] > now:
                break
            if isinstance(e[1], np.ndarray):
                tds, gi, prows, pcols = e[1], e[2], e[3], e[4]
                if tds[-1] <= lo:
                    continue  # applied by an earlier read of the row
                if self._large:
                    # Key-ordered: the row's pairs are one slice, by
                    # sender, a sender's fires in order.
                    a, z = pcols.searchsorted((r, r + 1))
                    rows = prows[a:z]
                else:
                    rows = prows[pcols == r]
                t = tds[rows]
                rows = rows[(t > lo) & (t <= now)]
                if rows.size:
                    parts.append((gi[rows], tds[rows])
                                 + tuple(c[rows] for c in e[5:]))
            elif lo < e[0] <= now and bool((e[2] == r).any()):
                parts.append((np.array([e[1]]), np.array([e[0]]))
                             + tuple(np.array([v]) for v in e[3:]))
        n = self._buf_n
        if n:
            b = self._buf
            td = b[1, :n]
            a = int(td.searchsorted(lo, side="right"))
            z = int(td.searchsorted(now, side="right"))
            if z > a:
                # The reader's position in the snapshot serving each
                # fire: the flush's own snapshot, or the bank at the
                # fire's refresh time.
                g_t = b[7, a:z]
                old = g_t == self.snap_t
                if old.all():
                    rx, ry = self.snap_x[r], self.snap_y[r]
                elif not old.any():
                    rx, ry = self.bank.kinematics_at(np.full(z - a, r),
                                                     g_t)[:2]
                else:
                    rx = np.full(z - a, self.snap_x[r])
                    ry = np.full(z - a, self.snap_y[r])
                    new = (~old).nonzero()[0]
                    rx[new], ry[new] = self.bank.kinematics_at(
                        np.full(new.size, r), g_t[new])[:2]
                dx = rx - b[2, a:z]
                dy = ry - b[3, a:z]
                hit = dx * dx + dy * dy <= self._r_sq
                hit &= self._buf_i[a:z] != r
                sel = hit.nonzero()[0]
                if sel.size:
                    sel += a
                    parts.append((self._buf_i[sel],)
                                 + tuple(b[1:7, sel]))
        if not parts:
            return
        cols = [np.concatenate(c) if len(parts) > 1 else c[0]
                for c in zip(*parts)]
        if cols[0].size > 1:
            # Keep each sender's latest delivery (the arrays are
            # chronological per sender, and the stable sort keeps them
            # so).
            order = cols[0].argsort(kind="stable")
            s = cols[0][order]
            dup = s[1:] == s[:-1]
            if dup.any():
                last = order[np.append(~dup, True)]
                cols = [c[last] for c in cols]
        S, T, BX, BY, SP, VX, VY = cols
        self.store.scatter(np.full(S.size, r, dtype=np.int64), S, T, BX, BY,
                           SP, VX, VY)

    def sweep_evict(self, now: float, timeout: float) -> int:
        """Proactive staleness eviction across all alive rows: one
        whole-store pass."""
        self.flush(now)
        return self.store.evict_stale(self.alive_mask, now, timeout)

    def grid_columns(self, t: float):
        """(ids, xs, ys) of alive nodes at ``t`` for the PHY grid."""
        px, py = self.bank.positions_all(t)
        alive = self.alive_mask
        return self.ids[alive], px[alive], py[alive]
