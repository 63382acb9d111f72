"""CellBuckets.pair_candidates against a brute-force reference.

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
