"""CellBuckets.pair_candidates against a brute-force reference, and an
index built from a previous order against a fresh build.

The reference pairs every query with every point whose cell lies in the
query cell's 3x3 neighborhood (cells are ``floor(coord / cell_size)``
for the index's own, slightly widened ``cell_size``, as
``np.floor_divide`` computes them), sorted by (row, col).  Points whose
float distance to a query is within the requested cell size must
always be among its candidates.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import CellBuckets

CELL = 10.0


def reference_pairs(xs, ys, qx, qy, cell):
    rows, cols = [], []
    for i, (x, y) in enumerate(zip(qx, qy)):
        cx, cy = x // cell, y // cell
        for j, (px, py) in enumerate(zip(xs, ys)):
            if abs(px // cell - cx) <= 1 and abs(py // cell - cy) <= 1:
                rows.append(i)
                cols.append(j)
    return rows, cols


def check(xs, ys, qx, qy, cell=CELL):
    xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
    qx, qy = np.array(qx, dtype=float), np.array(qy, dtype=float)
    buckets = CellBuckets(xs, ys, cell)
    rows, cols = buckets.pair_candidates(qx, qy)
    want_rows, want_cols = reference_pairs(xs, ys, qx, qy,
                                           buckets.cell_size)
    assert rows.tolist() == want_rows
    assert cols.tolist() == want_cols
    got = set(zip(rows.tolist(), cols.tolist()))
    for i in range(qx.size):
        dx, dy = xs - qx[i], ys - qy[i]
        near = (dx * dx + dy * dy <= cell * cell) | (np.hypot(dx, dy) <= cell)
        assert {(i, j) for j in np.flatnonzero(near).tolist()} <= got


# multiples of the cell size put points and queries on cell borders
_coord = st.one_of(st.integers(-6, 6).map(lambda k: k * CELL),
                   st.floats(-60.0, 60.0, allow_nan=False))
_points = st.lists(st.tuples(_coord, _coord), max_size=30)


@given(points=_points, queries=st.lists(st.tuples(_coord, _coord),
                                        max_size=12))
@settings(max_examples=200, deadline=None)
@example(points=[(0.0, 0.0), (10.0, 10.0), (-10.0, 20.0)],
         queries=[(10.0, 10.0), (10.0, 10.0), (0.0, 0.0)])
@example(points=[(0.0, 10.0)], queries=[(0.0, -4.527530197079681e-277)])
@example(points=[(5.0, 5.0), (6.0, 5.0)],
         queries=[(500.0, -500.0), (25.0, 5.0), (-15.0, 5.0), (5.0, 26.0)])
def test_pairs_match_brute_force(points, queries):
    check([p[0] for p in points], [p[1] for p in points],
          [q[0] for q in queries], [q[1] for q in queries])


def test_empty_batches():
    check([1.0, 2.0], [1.0, 2.0], [], [])
    check([], [], [3.0], [4.0])
    rows, cols = CellBuckets(np.array([1.0]), np.array([1.0]),
                             CELL).pair_candidates(np.empty(0), np.empty(0))
    assert rows.size == cols.size == 0


def test_dense_cluster_rows_sorted_by_point():
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(0, 40, 300), rng.uniform(0, 40, 300)
    qx, qy = rng.uniform(-15, 55, 40), rng.uniform(-15, 55, 40)
    qx[7], qy[7] = qx[3], qy[3]  # a duplicate query point
    check(xs, ys, qx, qy)


def test_wide_key_range_uses_binary_search():
    """Points far apart leave most cells empty: the index then finds
    its strips by binary search instead of a per-cell table, with the
    same candidates."""
    xs, ys = [0.0, 5.0, 2000.0, 2004.0], [0.0, 3.0, 2000.0, 1996.0]
    assert CellBuckets(np.array(xs), np.array(ys), CELL)._cell_start is None
    check(xs, ys, [1.0, 2001.0, 900.0], [1.0, 1999.0, -40.0])


def assert_same_index(a, b, qx, qy):
    assert a.order.tolist() == b.order.tolist()
    assert a.sorted_keys.tolist() == b.sorted_keys.tolist()
    assert a.sorted_xs.tolist() == b.sorted_xs.tolist()
    assert a.sorted_ys.tolist() == b.sorted_ys.tolist()
    for x, y in zip(a.pair_candidates(qx, qy), b.pair_candidates(qx, qy)):
        assert x.tolist() == y.tolist()


_step = st.one_of(st.just(0.0), st.floats(-15.0, 15.0, allow_nan=False),
                  st.integers(-2, 2).map(lambda k: k * CELL))


@given(points=_points,
       moves=st.lists(st.tuples(_step, _step), max_size=30),
       extra=st.integers(-2, 2),
       queries=st.lists(st.tuples(_coord, _coord), max_size=6))
@settings(max_examples=200, deadline=None)
# two points swap cells; a duplicate point crosses a border
@example(points=[(9.0, 1.0), (11.0, 1.0), (11.0, 1.0)],
         moves=[(2.0, 0.0), (-2.0, 0.0), (-1.5, 0.0)], extra=0,
         queries=[(10.0, 1.0)])
# the previous index is over one point fewer
@example(points=[(0.0, 0.0), (10.0, 0.0)], moves=[], extra=-1,
         queries=[(5.0, 0.0)])
def test_build_from_previous_order(points, moves, extra, queries):
    """An index built from the ``order`` of an index over earlier
    positions of the same points (moved across cell borders, duplicated,
    or, on a size mismatch, not the same points at all) is the index a
    fresh build makes."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    earlier = CellBuckets(xs, ys, CELL)
    for i, (dx, dy) in enumerate(moves[:xs.size]):
        xs[i] += dx
        ys[i] += dy
    if extra > 0:
        xs = np.append(xs, np.full(extra, 3.0))
        ys = np.append(ys, np.full(extra, 3.0))
    elif extra < 0:
        xs, ys = xs[:extra], ys[:extra]
    qx = np.array([q[0] for q in queries], dtype=float)
    qy = np.array([q[1] for q in queries], dtype=float)
    fresh = CellBuckets(xs, ys, CELL)
    rebuilt = CellBuckets(xs, ys, CELL, prev_order=earlier.order)
    assert_same_index(fresh, rebuilt, qx, qy)


def test_candidate_slots_address_the_sorted_points():
    """``order[slot]`` is the candidate and ``sorted_xs[slot]``,
    ``sorted_ys[slot]`` its coordinates; rows ascend, and so do each
    row's slots."""
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(0, 60, 200), rng.uniform(0, 60, 200)
    qx, qy = rng.uniform(-5, 65, 30), rng.uniform(-5, 65, 30)
    buckets = CellBuckets(xs, ys, CELL)
    rows, slots = buckets.candidate_slots(qx, qy)
    cols = buckets.order[slots]
    assert buckets.sorted_xs[slots].tolist() == xs[cols].tolist()
    assert buckets.sorted_ys[slots].tolist() == ys[cols].tolist()
    assert (np.diff(rows) >= 0).all()
    same_row = np.diff(rows) == 0
    assert (np.diff(slots)[same_row] > 0).all()
    want = reference_pairs(xs, ys, qx, qy, buckets.cell_size)
    got = sorted(zip(rows.tolist(), cols.tolist()))
    assert got == sorted(zip(*want))
