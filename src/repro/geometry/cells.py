"""Static cell-bucket index over columnar point sets.

Complements :class:`~repro.geometry.grid.SpatialGrid` (incremental,
object-keyed) with a build-once, query-many structure: all points are
linearized into cells of side ``cell_size`` and sorted by cell key, so a
radius-bounded *candidate* query is three ``searchsorted`` slices (one
per column of its 3x3 cell neighborhood) instead of a scan over N
points.  Callers apply their own exact distance filter
on the candidates — the index promises a superset, never membership, so
swapping it in for a linear scan cannot change float-level results.

Used by the batched beacon kernel to resolve receiver sets on 10k+-node
fields, where the dense (B, N) pairwise-distance matrix would dominate
both time and memory.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: cell-column offsets of the 3x3 neighborhood covering a radius <=
#: cell_size query disc
_COLUMN_OFFSETS = np.array((-1, 0, 1), dtype=np.int64)


def _gather_slices(order: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``order[starts[i]:ends[i]]`` for all i, vectorized.

    Returns ``(owner, values)`` where ``owner[j]`` is the slice index
    that produced ``values[j]``.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    owner = np.repeat(np.arange(starts.size, dtype=np.intp), counts)
    # Position within the flat output minus the start of its own slice
    # yields the offset into that slice.
    slice_base = np.cumsum(counts) - counts
    flat = (np.arange(total, dtype=np.intp)
            - np.repeat(slice_base, counts)
            + np.repeat(starts, counts))
    return owner, order[flat]


class CellBuckets:
    """Immutable cell-bucketed snapshot of ``n`` points.

    Candidate queries are exact-superset only for radii up to
    ``cell_size`` (the 3x3 neighborhood covers a disc of that radius).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, cell_size: float):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        # Cells a hair wider than asked: two points whose float-rounded
        # distance is <= cell_size can be a few ulps farther apart in
        # exact arithmetic, and must still fall in adjacent cells.
        self.cell_size = float(cell_size) * (1.0 + 1e-12)
        self.n = int(xs.shape[0])
        ix = np.floor_divide(xs, self.cell_size).astype(np.int64)
        iy = np.floor_divide(ys, self.cell_size).astype(np.int64)
        if self.n:
            # Leave a one-cell apron so neighborhood keys of boundary
            # queries stay inside the linearized key range.
            self._ix0 = int(ix.min()) - 1
            self._iy0 = int(iy.min()) - 1
            self._stride = int(iy.max()) - self._iy0 + 2
        else:
            self._ix0 = self._iy0 = 0
            self._stride = 1
        keys = (ix - self._ix0) * self._stride + (iy - self._iy0)
        # Stable sort: within one cell, points keep ascending index order,
        # which downstream consumers rely on for deterministic ordering.
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]

    def _query_strips(self, qx: np.ndarray,
                      qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(B, 3) linearized key ranges [lo, hi) of each query's 3x3
        neighborhood, one per cell column: a column's three cells have
        consecutive keys.  Rows are clipped to the key layout; columns
        outside it fall below or above every point key, so their
        searchsorted slice is empty."""
        qix = np.floor_divide(qx, self.cell_size).astype(np.int64) - self._ix0
        qiy = np.floor_divide(qy, self.cell_size).astype(np.int64) - self._iy0
        col = (qix[:, None] + _COLUMN_OFFSETS[None, :]) * self._stride
        lo = col + np.clip(qiy - 1, 0, self._stride)[:, None]
        hi = col + np.clip(qiy + 2, 0, self._stride)[:, None]
        return lo, hi

    def pair_candidates(self, qx: np.ndarray,
                        qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (query_row, point_index) pairs for a batch of query
        points, sorted by (row, point_index).

        Every point within ``cell_size`` of query ``i`` appears as a
        ``(i, point)`` pair; farther points may appear too (supersets).
        """
        B = int(qx.shape[0])
        if B == 0 or self.n == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        lo, hi = self._query_strips(qx, qy)
        starts = np.searchsorted(self.sorted_keys, lo.ravel(), side="left")
        ends = np.searchsorted(self.sorted_keys, hi.ravel(), side="left")
        owner, cols = _gather_slices(self.order, starts, ends)
        rows = owner // len(_COLUMN_OFFSETS)
        # A point lies in one cell of a row's neighborhood, so the
        # composite key is unique and an unstable sort is exact.
        sel = np.argsort(rows * self.n + cols)
        return rows[sel], cols[sel]

    def candidates_of(self, x: float, y: float) -> np.ndarray:
        """Candidate point indices near one query point, ascending."""
        _rows, cols = self.pair_candidates(np.array([x]), np.array([y]))
        return cols
