"""Spatial hash grid for fast range queries over moving points.

The simulator asks "which nodes are within radio range of p" on every
broadcast; a uniform bucket grid keyed by ``floor(x / cell)`` makes that an
O(neighbourhood) operation instead of O(n).  Entries are re-bucketed lazily
by the caller (the network refreshes the grid whenever node positions are
materialized for the current simulation time).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, \
    Tuple

import numpy as np

from .vec import Vec2

_Cell = Tuple[int, int]


class SpatialGrid:
    """Uniform bucket grid mapping item keys to 2-D positions.

    Two storage modes share one API: the classic bucket mode
    (``insert``/``bulk_load``) and a *columnar* mode
    (:meth:`bulk_load_columns`) where positions live in numpy arrays and
    range queries are vectorized distance filters.  Buckets and the
    key-position dict are materialized lazily from the columns only when
    a classic query (``within``/``items``/ring ``nearest``) needs them,
    so the hot refresh-then-range-query cycle never builds them.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[_Cell, Set[Hashable]] = defaultdict(set)
        self._positions: Dict[Hashable, Vec2] = {}
        # Columnar storage: parallel (keys, xs, ys) arrays, or None.
        self._col_keys: Optional[np.ndarray] = None
        self._col_x: Optional[np.ndarray] = None
        self._col_y: Optional[np.ndarray] = None
        self._col_index: Optional[Dict[Hashable, int]] = None
        self._col_materialized = False

    def __len__(self) -> int:
        if self._col_keys is not None:
            return int(self._col_keys.shape[0])
        return len(self._positions)

    def __contains__(self, key: Hashable) -> bool:
        if self._col_keys is not None:
            return key in self._key_index()
        return key in self._positions

    # -- columnar mode -------------------------------------------------------

    def bulk_load_columns(self, keys, xs, ys) -> None:
        """Replace all contents with parallel key/x/y arrays.

        Query order (``within_ids``) follows array order, so callers
        wanting deterministic ascending-id results should pass keys
        sorted.  Classic queries keep working: buckets are built lazily
        on first use.
        """
        self._cells.clear()
        self._positions.clear()
        self._col_keys = np.asarray(keys)
        self._col_x = np.asarray(xs, dtype=np.float64)
        self._col_y = np.asarray(ys, dtype=np.float64)
        self._col_index = None
        self._col_materialized = False

    def columns(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The columnar contents as ``(keys, xs, ys)`` arrays, or None in
        classic mode.  Read-only views: do not mutate."""
        if self._col_keys is None:
            return None
        return self._col_keys, self._col_x, self._col_y

    def _key_index(self) -> Dict[Hashable, int]:
        if self._col_index is None:
            self._col_index = {
                key: i for i, key in enumerate(self._col_keys.tolist())}
        return self._col_index

    def _materialize(self) -> None:
        """Build buckets + position dict from pending columns."""
        if self._col_keys is None or self._col_materialized:
            return
        keys = self._col_keys.tolist()
        xs = self._col_x.tolist()
        ys = self._col_y.tolist()
        for key, x, y in zip(keys, xs, ys):
            p = Vec2(x, y)
            self._positions[key] = p
            self._cells[self._cell_of(p)].add(key)
        self._col_materialized = True

    def _drop_columns(self) -> None:
        """Classic mutation invalidates columnar storage."""
        if self._col_keys is not None:
            self._materialize()
            self._col_keys = None
            self._col_x = None
            self._col_y = None
            self._col_index = None
            self._col_materialized = False

    def _cell_of(self, p: Vec2) -> _Cell:
        return (math.floor(p.x / self.cell_size),
                math.floor(p.y / self.cell_size))

    # -- mutation ------------------------------------------------------------

    def insert(self, key: Hashable, position: Vec2) -> None:
        """Insert ``key`` at ``position``, replacing any previous entry."""
        self._drop_columns()
        if key in self._positions:
            self.remove(key)
        self._positions[key] = position
        self._cells[self._cell_of(position)].add(key)

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` if absent."""
        self._drop_columns()
        position = self._positions.pop(key)
        cell = self._cell_of(position)
        bucket = self._cells[cell]
        bucket.discard(key)
        if not bucket:
            del self._cells[cell]

    def move(self, key: Hashable, position: Vec2) -> None:
        """Update the position of an existing ``key`` (cheap if same cell)."""
        self._drop_columns()
        old = self._positions[key]
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(position)
        self._positions[key] = position
        if old_cell != new_cell:
            bucket = self._cells[old_cell]
            bucket.discard(key)
            if not bucket:
                del self._cells[old_cell]
            self._cells[new_cell].add(key)

    def clear(self) -> None:
        self._cells.clear()
        self._positions.clear()
        self._col_keys = None
        self._col_x = None
        self._col_y = None
        self._col_index = None
        self._col_materialized = False

    def bulk_load(self, items: Iterable[Tuple[Hashable, Vec2]]) -> None:
        """Replace all contents with ``(key, position)`` pairs."""
        self.clear()
        for key, position in items:
            self._positions[key] = position
            self._cells[self._cell_of(position)].add(key)

    # -- queries ------------------------------------------------------------

    def position_of(self, key: Hashable) -> Vec2:
        if self._col_keys is not None and not self._col_materialized:
            i = self._key_index()[key]
            return Vec2(float(self._col_x[i]), float(self._col_y[i]))
        return self._positions[key]

    def within_ids(self, center: Vec2, radius: float) -> List[Hashable]:
        """Keys within ``radius`` of ``center``, in deterministic order
        (array order in columnar mode — ascending id when loaded sorted;
        sorted otherwise)."""
        if radius < 0.0:
            return []
        if self._col_keys is not None:
            dx = self._col_x - center.x
            dy = self._col_y - center.y
            mask = dx * dx + dy * dy <= radius * radius
            return self._col_keys[mask].tolist()
        return sorted(self.within(center, radius))

    def within(self, center: Vec2, radius: float) -> Iterator[Hashable]:
        """Yield keys whose positions lie within ``radius`` of ``center``."""
        self._materialize()
        if radius < 0.0:
            return
        r_sq = radius * radius
        c_min = self._cell_of(Vec2(center.x - radius, center.y - radius))
        c_max = self._cell_of(Vec2(center.x + radius, center.y + radius))
        positions = self._positions
        for cx in range(c_min[0], c_max[0] + 1):
            for cy in range(c_min[1], c_max[1] + 1):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                for key in bucket:
                    if positions[key].distance_sq_to(center) <= r_sq:
                        yield key

    def nearest(self, center: Vec2,
                exclude: "Set[Hashable] | None" = None) -> Hashable:
        """Key of the closest entry to ``center``.

        Expands the search ring outward so typical queries touch only a few
        buckets.  Raises ``KeyError`` when the grid holds no eligible entry.
        """
        if self._col_keys is not None and not self._col_materialized:
            if self._col_keys.shape[0] == 0:
                raise KeyError("spatial grid holds no eligible entries")
            dx = self._col_x - center.x
            dy = self._col_y - center.y
            d2 = dx * dx + dy * dy
            if exclude:
                d2 = d2.copy()
                d2[np.isin(self._col_keys, list(exclude))] = np.inf
            i = int(np.argmin(d2))
            if not np.isfinite(d2[i]):
                raise KeyError("spatial grid holds no eligible entries")
            return self._col_keys[i].item() if hasattr(
                self._col_keys[i], "item") else self._col_keys[i]
        self._materialize()
        exclude = exclude or set()
        cells = self._cells
        positions = self._positions
        ccx, ccy = self._cell_of(center)
        # Rank (distance_sq, cx, cy): the closest key wins; among equal
        # distances the first in (cx, cy) cell order, then bucket order.
        best = (math.inf, 0, 0)
        best_key: Hashable = None
        ring = 0
        while True:
            # Once the rings span as many cells as the grid occupies,
            # scan the occupied cells instead and stop: the search never
            # looks up more than twice the occupied cells.
            everything = (2 * ring + 1) ** 2 >= len(cells)
            for cell in (sorted(cells) if everything
                         else _ring_cells(ccx, ccy, ring)):
                bucket = cells.get(cell)
                if not bucket:
                    continue
                for key in bucket:
                    if key in exclude:
                        continue
                    rank = (positions[key].distance_sq_to(center),) + cell
                    if rank < best:
                        best, best_key = rank, key
            # Cells beyond ring r lie at least (r - 1) cells away even
            # with rounding at cell borders.
            reach = max(ring - 1, 0) * self.cell_size
            if everything or best[0] < reach * reach:
                if best_key is None:
                    raise KeyError("spatial grid holds no eligible entries")
                return best_key
            ring += 1

    def knn(self, center: Vec2, k: int,
            exclude: "Set[Hashable] | None" = None) -> List[Hashable]:
        """The ``k`` nearest keys to ``center``, closest first.

        Distance ties break by ascending key so the result is
        deterministic and comparable with the brute-force oracle.  When
        fewer than ``k`` eligible entries exist, all of them are
        returned.
        """
        if k <= 0:
            return []
        exclude = exclude or set()
        self._materialize()
        positions = self._positions
        found: Dict[Hashable, float] = {}
        ring = 1
        while True:
            radius = ring * self.cell_size
            for key in self.within(center, radius):
                if key in exclude or key in found:
                    continue
                found[key] = positions[key].distance_sq_to(center)
            if len(found) >= k:
                ranked = sorted((d, key) for key, d in found.items())[:k]
                # The k-th hit is final only once the ring certainly
                # covers its distance (a closer point cannot hide in an
                # unexplored bucket).
                if ranked[-1][0] <= radius * radius:
                    return [key for _, key in ranked]
            if radius > self._max_extent(center):
                return [key for _, key in sorted(
                    (d, key) for key, d in found.items())][:k]
            ring += 1

    def _max_extent(self, center: Vec2) -> float:
        """Upper bound on the distance from center to any stored point."""
        self._materialize()
        if not self._positions:
            return 0.0
        far = 0.0
        for p in self._positions.values():
            far = max(far, abs(p.x - center.x) + abs(p.y - center.y))
        return far + self.cell_size

    def items(self) -> List[Tuple[Hashable, Vec2]]:
        self._materialize()
        return list(self._positions.items())


def _ring_cells(cx: int, cy: int, ring: int) -> Iterator[_Cell]:
    """Cells at Chebyshev distance exactly ``ring`` from (cx, cy), in
    (x, y) order."""
    if ring == 0:
        yield (cx, cy)
        return
    for x in range(cx - ring, cx + ring + 1):
        if x in (cx - ring, cx + ring):
            for y in range(cy - ring, cy + ring + 1):
                yield (x, y)
        else:
            yield (x, cy - ring)
            yield (x, cy + ring)
