"""Static cell-bucket index over columnar point sets.

Complements :class:`~repro.geometry.grid.SpatialGrid` (incremental,
object-keyed) with a build-once, query-many structure: all points are
linearized into cells of side ``cell_size`` and sorted by cell key, so a
radius-bounded *candidate* query is three slices of the sorted points
(one per column of its 3x3 cell neighborhood), bounded through a
per-cell table, instead of a scan over N points.  Callers apply their
own exact distance filter on the candidates — the index promises a
superset, never membership, so swapping it in for a linear scan cannot
change float-level results.

Used by the batched beacon kernel to resolve receiver sets on 10k+-node
fields, where the dense (B, N) pairwise-distance matrix would dominate
both time and memory.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: cell-column offsets of the 3x3 neighborhood covering a radius <=
#: cell_size query disc
_COLUMN_OFFSETS = np.array((-1, 0, 1), dtype=np.int64)


class CellBuckets:
    """Immutable cell-bucketed snapshot of ``n`` points.

    Candidate queries are exact-superset only for radii up to
    ``cell_size`` (the 3x3 neighborhood covers a disc of that radius).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, cell_size: float,
                 prev_order: Optional[np.ndarray] = None):
        """Index ``xs, ys``.  ``prev_order`` (the ``order`` of an index
        over slightly earlier positions of the same points) only speeds
        the sort up: the result is the same index either way."""
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        # Cells a hair wider than asked: two points whose float-rounded
        # distance is <= cell_size can be a few ulps farther apart in
        # exact arithmetic, and must still fall in adjacent cells.
        self.cell_size = float(cell_size) * (1.0 + 1e-12)
        self.n = n = int(xs.shape[0])
        ix = np.floor_divide(xs, self.cell_size).astype(np.int64)
        iy = np.floor_divide(ys, self.cell_size).astype(np.int64)
        if n:
            # Leave a one-cell apron so neighborhood keys of boundary
            # queries stay inside the linearized key range.
            self._ix0 = int(ix.min()) - 1
            self._iy0 = int(iy.min()) - 1
            self._stride = int(iy.max()) - self._iy0 + 2
        else:
            self._ix0 = self._iy0 = 0
            self._stride = 1
        keys = (ix - self._ix0) * self._stride + (iy - self._iy0)
        # Points sort by (cell key, index): downstream consumers rely on
        # ascending index order within one cell.
        if prev_order is None or prev_order.shape[0] != n:
            self.order = np.argsort(keys, kind="stable")
        else:
            # The composite keys are unique, so any order of them sorts
            # to the same index; taken in the previous order they are
            # nearly sorted already, which the stable sort (a merge of
            # ascending runs) finishes in about one pass.
            composite = keys[prev_order] * n + prev_order
            self.order = prev_order[np.argsort(composite, kind="stable")]
        self.sorted_keys = keys[self.order]
        self.sorted_xs = xs[self.order]
        self.sorted_ys = ys[self.order]
        # Slot bounds of every cell, when the key range is not much
        # wider than the point count: cell k holds slots
        # [cell_start[k], cell_start[k + 1]).
        n_keys = int(self.sorted_keys[-1]) + 1 if n else 0
        self._cell_start: Optional[np.ndarray] = None
        if n_keys <= 4 * n + 64:
            self._cell_start = np.zeros(n_keys + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.sorted_keys, minlength=n_keys),
                      out=self._cell_start[1:])

    def _first_slots(self, keys: np.ndarray) -> np.ndarray:
        """The number of points with a cell key below each of ``keys``:
        a table lookup, or binary searches when there is no table."""
        if self._cell_start is None:
            return np.searchsorted(self.sorted_keys, keys, side="left")
        return self._cell_start[np.clip(keys, 0, self._cell_start.size - 1)]

    def _query_strips(self, qx: np.ndarray,
                      qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(B, 3) linearized key ranges [lo, hi) of each query's 3x3
        neighborhood, one per cell column: a column's three cells have
        consecutive keys.  Rows are clipped to the key layout; columns
        outside it fall below or above every point key, so their slice
        is empty."""
        qix = np.floor_divide(qx, self.cell_size).astype(np.int64) - self._ix0
        qiy = np.floor_divide(qy, self.cell_size).astype(np.int64) - self._iy0
        col = (qix[:, None] + _COLUMN_OFFSETS[None, :]) * self._stride
        lo = col + np.clip(qiy - 1, 0, self._stride)[:, None]
        hi = col + np.clip(qiy + 2, 0, self._stride)[:, None]
        return lo, hi

    def candidate_slots(self, qx: np.ndarray,
                        qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (query_row, slot) pairs for a batch of query points:
        ``order[slot]`` is the candidate point, ``sorted_xs[slot]`` and
        ``sorted_ys[slot]`` its coordinates.  Rows ascend, and so do each
        row's slots.

        Every point within ``cell_size`` of query ``i`` appears in a
        ``(i, slot)`` pair; farther points may appear too (supersets).
        """
        B = int(qx.shape[0])
        if B == 0 or self.n == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        lo, hi = self._query_strips(qx, qy)
        starts = self._first_slots(lo.ravel())
        counts = self._first_slots(hi.ravel()) - starts
        rows = np.repeat(np.arange(B),
                         counts.reshape(B, len(_COLUMN_OFFSETS)).sum(axis=1))
        # A slot is its strip's first slot plus its offset in the strip:
        # its position in the output less the strip's output start.
        out_start = np.cumsum(counts) - counts
        slots = np.arange(rows.size) + np.repeat(starts - out_start, counts)
        return rows, slots

    def pair_candidates(self, qx: np.ndarray,
                        qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (query_row, point_index) pairs of
        :meth:`candidate_slots`, sorted by (row, point_index)."""
        rows, slots = self.candidate_slots(qx, qy)
        cols = self.order[slots]
        # A point lies in one cell of a row's neighborhood, so the
        # composite key is unique and an unstable sort is exact.
        sel = np.argsort(rows * self.n + cols)
        return rows[sel], cols[sel]
