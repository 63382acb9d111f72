"""Sparse neighbor store and large-N receiver path equivalence.

Above ``repro.net.beacons._DENSE_MAX`` nodes the beacon engine swaps
the dense (N, N) store for the sparse one and resolves receivers
through cell buckets instead of full pairwise rows.  These tests force
that large-N machinery at *small* N (by monkeypatching the threshold to
0) and require bit-identical outcomes against the dense engine and the
per-event reference model (``tests/beacon_reference.py``) — the same
contract ``tests/test_beacon_equivalence.py`` proves for the dense
kernel.  The
store itself is also checked against ``DenseNeighborStore`` directly,
op by op.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.beacons as beacons
import repro.net.neighbor_store as neighbor_store
from repro.net.neighbor_store import (DenseNeighborStore,
                                      SparseNeighborStore, _last_writes)

from tests.test_beacon_equivalence import (
    assert_churn_runs_equal, beacon_state, build_network,
    compare_reads_forgets_resets_and_sweeps, run_churn)


@pytest.fixture
def force_sparse(monkeypatch):
    monkeypatch.setattr(beacons, "_DENSE_MAX", 0)


def _assert_rows_equal(dense, sparse, n):
    for r in range(n):
        for a, b in zip(dense.row(r), sparse.row(r)):
            np.testing.assert_array_equal(a, b)


def _stale_cols(store, r, now, timeout):
    """Row ``r``'s cells older than ``timeout`` (the prune-on-read rule)."""
    cols, t = store.row(r)[:2]
    return cols[now - t > timeout]


#: staleness timeout of the differential's sweeps; each op advances the
#: clock by 0.25 s, so cells go stale after 6 ops
_TIMEOUT = 1.5

_idx = st.integers(0, 7)  # taken modulo the store's current size
_store_op = st.one_of(
    st.tuples(st.just("scatter"),
              st.lists(st.tuples(_idx, _idx), min_size=1, max_size=10)),
    st.tuples(st.just("update"), _idx, _idx),
    st.tuples(st.just("clear"), _idx, _idx),
    st.tuples(st.just("reset"), _idx),
    st.tuples(st.just("drop"), _idx, st.lists(_idx, max_size=5)),
    st.tuples(st.just("sweep"), _idx),
    st.tuples(st.just("evict"), st.lists(st.booleans(), min_size=8,
                                         max_size=8)),
    st.just(("grow",)),
    st.just(("compact",)),
)


def _apply(op, step, t, stores):
    """Apply one op to every store; return what each store's sweep or
    evict reported (stale cols / eviction count)."""
    kind, n = op[0], stores[0].n
    if kind == "scatter":
        cells = dict.fromkeys((r % n, c % n) for r, c in op[1])
        rows = np.array([r for r, _ in cells], dtype=np.int64)
        cols = np.array([c for _, c in cells], dtype=np.int64)
        m = rows.size
        pay = [np.full(m, t)] + [rows * 10.0 + cols + step + k
                                 for k in range(5)]
        for store in stores:
            store.scatter(rows, cols, *pay)
    elif kind == "update":
        for store in stores:
            store.update_cell(op[1] % n, op[2] % n, t, step, 1.0, 2.0,
                              3.0, 4.0)
    elif kind == "clear":
        for store in stores:
            store.clear_cell(op[1] % n, op[2] % n)
    elif kind == "reset":
        for store in stores:
            store.reset_row(op[1] % n)
    elif kind == "drop":
        cols = np.unique(np.array(op[2], dtype=np.int64) % n)
        for store in stores:
            store.drop_cells(op[1] % n, cols)
    elif kind == "sweep":
        r = op[1] % n
        stale = [_stale_cols(store, r, t, _TIMEOUT) for store in stores]
        for store, cols in zip(stores, stale):
            store.drop_cells(r, cols)
        return stale
    elif kind == "evict":
        alive = np.array([op[1][i % 8] for i in range(n)], dtype=bool)
        return [store.evict_stale(alive, t, _TIMEOUT) for store in stores]
    elif kind == "grow":
        for store in stores:
            store.grow()
    else:  # only the sparse stores compact
        for store in stores[1:]:
            store.compact()
    return None


def _assert_same_tables(dense, sparse, t):
    assert dense.n == sparse.n
    _assert_rows_equal(dense, sparse, dense.n)


class SortedWrites(SparseNeighborStore):
    """A sparse store fed only through :meth:`write_sorted`: every bulk
    write (cell updates and tombstones included) sorts its keys here and
    hands them over ascending."""

    def scatter(self, rows, cols, t, bx, by, sp, vx, vy):
        keys = (np.asarray(rows, dtype=np.int64) * self.n
                + np.asarray(cols, dtype=np.int64))
        order = np.argsort(keys, kind="stable")
        self.write_sorted(keys[order],
                          np.column_stack((t, bx, by, sp, vx, vy))[order])


def scanned_row(store, r):
    """Row ``r`` read by scanning the store's whole tail, as the store
    read rows before it indexed the tail."""
    n = store.n
    lo, hi = np.searchsorted(store._key, (r * n, (r + 1) * n))
    live = store._live(r, store._seq[lo:hi], store._pay[lo:hi])
    cols = store._key[lo:hi][live] - r * n
    pay = store._pay[lo:hi][live]
    t_key, t_pay, t_seq = (b[:store._tail_pairs] for b in store._tail)
    sel = np.flatnonzero(t_key // n == r)
    if sel.size:
        t_key, t_pay, t_seq = t_key[sel], t_pay[sel], t_seq[sel]
        last = _last_writes(t_key)
        last = last[store._live(r, t_seq[last], t_pay[last])]
        cols = np.concatenate((cols, t_key[last] - r * n))
        pay = np.concatenate((pay, t_pay[last]))
        order = np.argsort(cols)
        cols, pay = cols[order], pay[order]
    return (cols,) + tuple(pay.T)


def _assert_rows_as_scanned(store):
    for r in range(store.n):
        for a, b in zip(scanned_row(store, r), store.row(r)):
            np.testing.assert_array_equal(a, b)


class TestStoreDifferential:
    """Randomized op-sequence differential: sparse vs dense store."""

    @pytest.mark.parametrize("compact_limit", [1, 7, 100_000])
    def test_random_ops(self, compact_limit):
        n = 24
        rng = np.random.default_rng(3)
        dense = DenseNeighborStore(n)
        sparse = SparseNeighborStore(n, compact_limit=compact_limit)
        t = 0.0
        for step in range(60):
            op = int(rng.integers(0, 10))
            t += 0.1
            if op < 6:  # bulk scatter, possibly with repeated cells
                m = int(rng.integers(1, 12))
                rows = rng.integers(0, n, size=m)
                cols = rng.integers(0, n, size=m)
                # Dense fancy-assignment order for duplicate (r, c)
                # pairs is undefined — keep pairs unique per scatter,
                # as the engine's dedup guarantees.
                keys = rows * n + cols
                _, uniq = np.unique(keys, return_index=True)
                rows, cols = rows[uniq], cols[uniq]
                m = rows.size
                pay = [rng.uniform(0, 100, size=m) for _ in range(6)]
                pay[0] = np.full(m, t)
                dense.scatter(rows, cols, *pay)
                sparse.scatter(rows, cols, *pay)
            elif op < 7:
                r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
                args = (r, c, t, 1.0, 2.0, 3.0, 4.0, 5.0)
                dense.update_cell(*args)
                sparse.update_cell(*args)
            elif op < 8:
                r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
                dense.clear_cell(r, c)
                sparse.clear_cell(r, c)
            elif op < 9:
                r = int(rng.integers(0, n))
                dense.reset_row(r)
                sparse.reset_row(r)
            else:
                r = int(rng.integers(0, n))
                stale_d = _stale_cols(dense, r, t, 1.5)
                stale_s = _stale_cols(sparse, r, t, 1.5)
                np.testing.assert_array_equal(stale_d, stale_s)
                dense.drop_cells(r, stale_d)
                sparse.drop_cells(r, stale_s)
            if step % 7 == 0:
                _assert_rows_equal(dense, sparse, n)
        _assert_rows_equal(dense, sparse, n)

    def test_grow_extends_both(self):
        dense, sparse = DenseNeighborStore(3), SparseNeighborStore(3)
        one = np.array([1.0])
        for st in (dense, sparse):
            st.scatter(np.array([0]), np.array([2]), one * 9.0, one,
                       one, one, one, one)
            st.grow()
            st.update_cell(3, 0, 10.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert dense.n == sparse.n == 4
        _assert_rows_equal(dense, sparse, 4)

    def test_reset_row_watermark_survives_compaction(self):
        sparse = SparseNeighborStore(4, compact_limit=2)
        sparse.update_cell(1, 0, 5.0, 1, 1, 0, 0, 0)
        sparse.reset_row(1)
        sparse.update_cell(1, 3, 6.0, 1, 1, 0, 0, 0)
        sparse.compact()
        cols = sparse.row(1)[0]
        assert cols.tolist() == [3]

    def test_memory_stays_bounded_under_rewrites(self):
        """Keep-last compaction: endless rewrites of the same cells must
        not grow the store past live-cells + compaction threshold."""
        n = 50
        sparse = SparseNeighborStore(n, compact_limit=500)
        rows = np.arange(n, dtype=np.int64)
        cols = (rows + 1) % n
        one = np.ones(n)
        for epoch in range(200):
            sparse.scatter(rows, cols, one * epoch, one, one, one,
                           one, one)
        assert sparse.cells <= n + 500

    @given(limit=st.sampled_from([1, 7, 100_000]),
           scan=st.sampled_from([0, 2, 4096]),
           ops=st.lists(_store_op, max_size=40))
    @settings(max_examples=150, deadline=None)
    # the same cells rewritten across chunks, then folded
    @example(limit=7, scan=2,
             ops=[("scatter", [(0, 1), (1, 2)]),
                  ("scatter", [(0, 1), (2, 3)]),
                  ("update", 0, 1), ("compact",),
                  ("scatter", [(0, 1), (1, 2)])])
    # a row reset and rewritten, before and after a compaction
    @example(limit=100_000, scan=2,
             ops=[("scatter", [(1, 0), (1, 2), (2, 1)]),
                  ("reset", 1), ("update", 1, 3),
                  ("compact",), ("update", 1, 0),
                  ("reset", 1), ("scatter", [(1, 2)]),
                  ("compact",)])
    # tombstones in base and tail: folded by a compaction, overwritten,
    # or still pending
    @example(limit=100_000, scan=2,
             ops=[("scatter", [(0, 1), (0, 2), (3, 1)]),
                  ("compact",), ("clear", 0, 1),
                  ("clear", 2, 2), ("drop", 3, [1, 1]),
                  ("update", 3, 1), ("compact",),
                  ("clear", 0, 2)])
    # growth rescales the composite key between base and tail writes
    @example(limit=7, scan=2,
             ops=[("scatter", [(3, 2), (2, 3), (1, 1)]),
                  ("compact",), ("grow",), ("update", 4, 3),
                  ("scatter", [(3, 4), (3, 2)]), ("grow",),
                  ("compact",), ("clear", 5, 4)])
    # stale sweeps drop cells heard long enough ago
    @example(limit=1, scan=2,
             ops=[("scatter", [(0, 1), (0, 2)])]
             + [("update", 1, 0)] * 6 + [("sweep", 0), ("update", 0, 2)])
    # whole-store eviction skips dead rows, tombstones and reset rows,
    # and counts only what it drops
    @example(limit=100_000, scan=2,
             ops=[("scatter", [(0, 1), (0, 2), (1, 0), (2, 3)]),
                  ("compact",), ("clear", 0, 2), ("reset", 2)]
             + [("update", 3, 0)] * 6
             + [("evict", [True, False, True, True] * 2),
                ("update", 0, 1), ("evict", [True] * 8)])
    def test_property_matches_dense(self, limit, scan, ops):
        """Every row agrees after every op of an interleaved sequence,
        whether the sparse store is written by ``scatter`` or through
        ``write_sorted``, and each sparse row read (tail index and
        unindexed suffix, rebuilt every ``scan`` tail writes) equals a
        scan of the whole tail."""
        n = 4
        stores = (DenseNeighborStore(n),
                  SparseNeighborStore(n, compact_limit=limit),
                  SortedWrites(n, compact_limit=limit))
        saved = neighbor_store._TAIL_SCAN
        neighbor_store._TAIL_SCAN = scan
        try:
            for step, op in enumerate(ops):
                t = 0.25 * (step + 1)
                reported = _apply(op, step, t, stores)
                if reported is not None:
                    for other in reported[1:]:
                        np.testing.assert_array_equal(reported[0], other)
                for sparse in stores[1:]:
                    _assert_rows_as_scanned(sparse)
                    _assert_same_tables(stores[0], sparse, t)
        finally:
            neighbor_store._TAIL_SCAN = saved

    def test_sorted_writes_hit_miss_and_compact_inside(self):
        """One sorted write overwrites the cells the base holds, sends
        the rest to the tail, honours a row reset and a tombstone, and
        compacts inside the write once the tail passes its limit."""
        n = 6
        dense = DenseNeighborStore(n)
        sparse = SortedWrites(n, compact_limit=4)
        one = np.ones(3)
        for store in (dense, sparse):
            store.scatter(np.array([0, 1, 2]), np.array([1, 2, 3]), one,
                          one, one, one, one, one)
        sparse.compact()
        assert sparse._tail_pairs == 0 and sparse.cells == 3
        for store in (dense, sparse):
            store.reset_row(2)
            store.clear_cell(1, 2)
            # two hits (one of them reset), two misses, one tombstone
            keys = np.array([0 * n + 1, 0 * n + 4, 2 * n + 3, 3 * n + 0,
                             5 * n + 5])
            pay = np.column_stack((np.array([2.0, 2.0, 2.0, 2.0, -np.inf]),)
                                  + (np.full(5, 7.0),) * 5)
            store.scatter(keys // n, keys % n, *pay.T)
        assert sparse._tail_pairs == 3       # the clear and the misses
        _assert_rows_equal(dense, sparse, n)
        for store in (dense, sparse):
            store.scatter(np.array([4, 4]), np.array([0, 1]),
                          np.full(2, 3.0), *([np.ones(2)] * 5))
        assert sparse._tail_pairs == 0       # compacted inside the write
        _assert_rows_equal(dense, sparse, n)
        _assert_rows_as_scanned(sparse)

    def test_compaction_bounds_cells(self):
        """Folded tombstones and reset rows leave the base."""
        sparse = SparseNeighborStore(4, compact_limit=100_000)
        one = np.ones(3)
        sparse.scatter(np.array([0, 0, 1]), np.array([1, 2, 0]), one,
                       one, one, one, one, one)
        sparse.compact()
        sparse.drop_cells(0, np.array([1, 2]))
        sparse.reset_row(1)
        sparse.update_cell(2, 3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        sparse.compact()
        assert sparse.cells == 1


class TestEngineSparseEquivalence:
    """Full-engine equivalence with the large-N path forced on."""

    SEEDS = (0, 1)

    def _state(self, kernel, seed, **kw):
        sim, net, driver = build_network(kernel, seed, n_nodes=60,
                                         mobile=True, **kw)
        driver.start_beacons()
        sim.run(until=2.0)
        return sim, net

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dense_and_legacy(self, force_sparse, seed):
        """Sparse equals the dense engine and the per-event reference
        model, which stands in for the removed legacy beacon path."""
        assert beacons._DENSE_MAX == 0
        _sim, net = self._state("batched", seed)
        assert net._beacon_engine._large
        assert isinstance(net._beacon_engine.store, SparseNeighborStore)
        sparse_state = beacon_state(net)

        # Fresh interpreter state for the dense runs: restore threshold.
        beacons._DENSE_MAX = 1024
        _sim, net_d = self._state("batched", seed)
        assert not net_d._beacon_engine._large
        _sim, net_r = self._state("reference", seed)
        assert beacon_state(net_d) == sparse_state
        assert beacon_state(net_r) == sparse_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_with_deaths_and_mid_interval_reads(
            self, force_sparse, seed):
        def drive(kernel):
            sim, net, driver = build_network(kernel, seed, n_nodes=50,
                                             mobile=True)
            driver.start_beacons()
            sim.run(until=0.8)
            net.nodes[7].alive = False
            net.nodes[13].alive = False
            sim.run(until=1.3)   # mid-interval
            _ = net.nodes[2].neighbor_table   # forces a flush + sync
            net.nodes[7].alive = True
            sim.run(until=2.5)
            return beacon_state(net)

        sparse_state = drive("batched")
        beacons._DENSE_MAX = 1024
        assert drive("batched") == sparse_state
        assert drive("reference") == sparse_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_under_shadowing_and_loss(self, force_sparse, seed):
        """Shadowing and loss are inputs to the sparse resolution: cell
        buckets at the maximum range, each pair held to its own link
        range, and loss drawn in (fire, receiver) order before the
        store-key sort."""
        kw = dict(loss=0.2, sigma=2.0)
        sparse_state = None
        for phase in ("sparse", "dense", "reference"):
            if phase == "dense":
                beacons._DENSE_MAX = 1024
            kernel = "reference" if phase == "reference" else "batched"
            _sim, net = self._state(kernel, seed, **kw)
            state = beacon_state(net)
            if sparse_state is None:
                sparse_state = state
            else:
                assert state == sparse_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reads_forgets_resets_and_sweeps(self, force_sparse, seed):
        """The dense differential of prune-on-read, forgets, wipes and
        sweeps, on the sparse store (row reads settle sparse rows)."""
        compare_reads_forgets_resets_and_sweeps(seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_churn_with_reads_resets_and_sweeps(self, force_sparse, seed):
        """The dense churn differential on the sparse store: every fast
        flush resolves snapshot group by snapshot group, with nodes
        down."""
        assert_churn_runs_equal(seed, run_churn("reference", seed),
                                run_churn("batched", seed))

    def test_sweep_evict_equivalent(self, force_sparse):
        def drive(kernel):
            sim, net, _ = build_network(kernel, 5, n_nodes=40,
                                        mobile=False)
            net.start_beacons()
            sim.run(until=1.2)
            net.mute_beacons([i for i in range(40) if i % 3 == 0])
            sim.run(until=4.0)
            evicted = net._beacon_engine.sweep_evict(sim.now, 2.0)
            return evicted, beacon_state(net)

        ev_sparse, st_sparse = drive("batched")
        beacons._DENSE_MAX = 1024
        ev_dense, st_dense = drive("batched")
        assert ev_sparse == ev_dense
        assert st_sparse == st_dense
