"""The network's one neighbor table (:class:`NeighborTable`): a
(hearer, neighbor) store whose cells hold the latest heard time and the
sender's beaconed kinematics.  The beacon kernel writes it, nodes read
their row, and the proactive sweep is one :meth:`evict_stale` pass.
Two interchangeable store representations:

* :class:`DenseNeighborStore` — one (N, N, 6) float64 block, O(1) cell
  addressing and native fancy-indexed scatter.  Ideal at the paper's
  scales but quadratic in memory (4.8 GB at N = 10k), so it is only
  used up to ``repro.net.beacons._DENSE_MAX`` nodes.

* :class:`SparseNeighborStore` — a sorted base of cells keyed by the
  composite int64 key ``row * n + col``, plus a write-ordered tail of
  cells the base does not hold yet.  A scatter of P pairs sorts their
  keys once and looks them up in the base with one ``searchsorted``:
  cells already there (nearly every beacon refresh) are overwritten in
  place, and only new cells are appended to the tail.  Once the tail
  holds more than ``compact_limit`` writes, compaction de-duplicates it
  (keep-last) and merges it into the base at ``searchsorted`` insertion
  points, O(base + tail) with no re-sort.  Reads slice the base by key
  range and scan the tail.  Row wipes are sequence-number watermarks,
  cell clears are ``-inf`` tombstones; both are dropped at compaction.
  Per beacon epoch the cost is O(P log base) for the lookups plus the
  new cells' share of a merge, not a rewrite of the table; memory is
  bounded by (live cells) + (compaction threshold), however many
  beacons ever fired.

Both expose the same surface; equivalence is proven op by op
(``tests/test_sparse_store.py``) and end to end against the per-event
beacon reference model (``tests/beacon_reference.py``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: columns of one log record (times/kinematics payload)
_PAYLOAD = ("t", "bx", "by", "sp", "vx", "vy")


class DenseNeighborStore:
    """(N, N, 6) matrix store: row = hearer, col = neighbor, last axis
    is the payload record.  One interleaved array instead of six planes:
    a scatter of P pairs is a single fancy-index pass writing 48
    contiguous bytes per cell, not six 8-byte passes over the same
    random addresses."""

    def __init__(self, n: int):
        self.n = n
        self.pay = np.zeros((n, n, len(_PAYLOAD)))
        self.pay[:, :, 0] = -np.inf
        self.heard = self.pay[:, :, 0]  # view: latest heard time

    def grow(self) -> None:
        n = self.n + 1
        new = np.zeros((n, n, len(_PAYLOAD)))
        new[:, :, 0] = -np.inf
        new[:n - 1, :n - 1] = self.pay
        self.pay = new
        self.heard = new[:, :, 0]
        self.n = n

    def scatter(self, rows: np.ndarray, cols: np.ndarray, t: np.ndarray,
                bx: np.ndarray, by: np.ndarray, sp: np.ndarray,
                vx: np.ndarray, vy: np.ndarray) -> None:
        """Bulk cell update; (rows, cols) pairs must be unique."""
        rec = np.empty((t.size, len(_PAYLOAD)))
        rec[:, 0] = t
        rec[:, 1] = bx
        rec[:, 2] = by
        rec[:, 3] = sp
        rec[:, 4] = vx
        rec[:, 5] = vy
        self.pay[rows, cols] = rec

    def update_cell(self, r: int, c: int, t: float, bx: float, by: float,
                    sp: float, vx: float, vy: float) -> None:
        self.pay[r, c] = (t, bx, by, sp, vx, vy)

    def clear_cell(self, r: int, c: int) -> None:
        self.pay[r, c, 0] = -np.inf

    def reset_row(self, r: int) -> None:
        self.pay[r, :, 0] = -np.inf

    def row(self, r: int) -> Tuple[np.ndarray, ...]:
        """(cols, t, bx, by, sp, vx, vy) of row ``r``'s live cells, cols
        ascending."""
        row = self.pay[r]
        cols = np.flatnonzero(row[:, 0] > -np.inf)
        sel = row[cols]
        return (cols, sel[:, 0], sel[:, 1], sel[:, 2], sel[:, 3],
                sel[:, 4], sel[:, 5])

    def drop_cells(self, r: int, cols: np.ndarray) -> None:
        self.pay[r, cols, 0] = -np.inf

    def evict_stale(self, alive_mask: np.ndarray, now: float,
                    timeout: float) -> int:
        """Drop every cell of an alive row not heard within ``timeout``
        of ``now``; returns the number dropped."""
        heard = self.heard
        stale = np.isfinite(heard) & (now - heard > timeout)
        stale &= alive_mask[:, None]
        count = int(np.count_nonzero(stale))
        if count:
            heard[stale] = -np.inf
        return count


def _last_writes(keys: np.ndarray) -> np.ndarray:
    """Index of the last occurrence of each distinct key, in ascending
    key order.

    One unstable sort groups equal keys; the largest original index in
    a group is its last write, so no stable sort is needed.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    ks = keys[order]
    starts = np.flatnonzero(np.append(True, ks[1:] != ks[:-1]))
    return np.maximum.reduceat(order, starts)


#: one payload record (a row of a (k, 6) float64 array) as an opaque
#: 48-byte item: fancy indexing moves whole records in one copy each
_RECORD = np.dtype((np.void, 8 * len(_PAYLOAD)))


def _records(pay: np.ndarray) -> np.ndarray:
    """(k,) record view of a C-contiguous (k, 6) payload array."""
    return pay.view(_RECORD).reshape(-1)


def _resized(a: np.ndarray, cap: int, used: int) -> np.ndarray:
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


class SparseNeighborStore:
    """Sorted cell base with in-place updates plus a tail of new cells
    (see module docstring)."""

    def __init__(self, n: int, compact_limit: int = 0):
        self.n = n
        # Base: unique cells sorted by the composite key row * n + col,
        # each with its payload record and the log sequence number of
        # its latest write.
        self._key = np.empty(0, dtype=np.int64)
        self._seq = np.empty(0, dtype=np.int64)
        self._pay = np.empty((0, len(_PAYLOAD)))
        # Tail: writes to cells not in the base, oldest first, in
        # growable (rows, cols, pay, seqs) buffers whose first
        # _tail_pairs entries are in use.
        self._tail = [np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.int64),
                      np.empty((0, len(_PAYLOAD))),
                      np.empty(0, dtype=np.int64)]
        self._tail_pairs = 0
        self._next_seq = 0
        # reset_row(r) invalidates all writes to r before this watermark
        self._reset_seq = np.zeros(n, dtype=np.int64)
        self._compact_limit = compact_limit or max(100_000, 8 * n)

    def grow(self) -> None:
        # r * n + c becomes r * (n + 1) + c; the key order is unchanged.
        self._key = self._key + self._key // self.n
        self.n += 1
        self._reset_seq = np.append(self._reset_seq, 0)

    # -- writes --------------------------------------------------------------

    def scatter(self, rows: np.ndarray, cols: np.ndarray, t: np.ndarray,
                bx: np.ndarray, by: np.ndarray, sp: np.ndarray,
                vx: np.ndarray, vy: np.ndarray) -> None:
        """Bulk cell update; (rows, cols) pairs must be unique.  Cells
        already in the base are overwritten in place; the rest go to
        the tail."""
        m = int(rows.size)
        if m == 0:
            return
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        seq0 = self._next_seq
        self._next_seq += m
        pay = np.column_stack((t, bx, by, sp, vx, vy))
        base = self._key
        if base.size:
            # Keys are unique, so an unstable sort is a total order, and
            # sorted lookups walk the base front to back.
            keys = rows * self.n + cols
            order = np.argsort(keys)
            keys = keys[order]
            pos = np.searchsorted(base, keys)
            hit = base[np.minimum(pos, base.size - 1)] == keys
            new = order[~hit]
            order, pos = order[hit], pos[hit]
            _records(self._pay)[pos] = _records(pay)[order]
            self._seq[pos] = seq0 + order
            if not new.size:
                return
            rows, cols, pay = rows[new], cols[new], pay[new]
            seqs = seq0 + new
        else:
            seqs = np.arange(seq0, seq0 + m, dtype=np.int64)
        self._append_tail(rows, cols, pay, seqs)
        if self._tail_pairs > self._compact_limit:
            self.compact()

    def _append_tail(self, *parts: np.ndarray) -> None:
        used = self._tail_pairs
        end = used + parts[0].shape[0]
        if end > self._tail[0].shape[0]:
            cap = max(1024, 2 * end)
            self._tail = [_resized(b, cap, used) for b in self._tail]
        for buf, part in zip(self._tail, parts):
            buf[used:end] = part
        self._tail_pairs = end

    def update_cell(self, r: int, c: int, t: float, bx: float, by: float,
                    sp: float, vx: float, vy: float) -> None:
        self.scatter(np.array([r], dtype=np.int64),
                     np.array([c], dtype=np.int64), np.array([t]),
                     np.array([bx]), np.array([by]), np.array([sp]),
                     np.array([vx]), np.array([vy]))

    def clear_cell(self, r: int, c: int) -> None:
        self.drop_cells(r, np.array([c], dtype=np.int64))

    def reset_row(self, r: int) -> None:
        self._reset_seq[r] = self._next_seq

    def drop_cells(self, r: int, cols: np.ndarray) -> None:
        """Tombstone row ``r``'s ``cols`` in one scatter."""
        cols = np.asarray(cols, dtype=np.int64)
        zero = np.zeros(cols.size)
        self.scatter(np.full(cols.size, r, dtype=np.int64), cols,
                     np.full(cols.size, -math.inf), zero, zero, zero,
                     zero, zero)

    # -- compaction ----------------------------------------------------------

    def _live(self, rows, seqs: np.ndarray, pay: np.ndarray) -> np.ndarray:
        """Cells whose latest write survives its row's reset watermark
        and is not a tombstone."""
        return (seqs >= self._reset_seq[rows]) & np.isfinite(pay[:, 0])

    def compact(self) -> None:
        """Merge the de-duplicated tail into the base, dropping reset
        and tombstoned cells: O(base + tail), no re-sort of the base.
        Called past ``compact_limit`` tail writes, and by
        :meth:`evict_stale`."""
        used = self._tail_pairs
        if not used:
            return
        rows, cols, pay, seqs = (b[:used] for b in self._tail)
        self._tail_pairs = 0
        n = self.n
        last = _last_writes(rows * n + cols)
        last = last[self._live(rows[last], seqs[last], pay[last])]
        t_key = rows[last] * n + cols[last]
        t_seq, t_pay = seqs[last], pay[last]
        key, seq, bpay = self._key, self._seq, _records(self._pay)
        live = self._live(key // n, seq, self._pay)
        if not live.all():
            key, seq, bpay = key[live], seq[live], bpay[live]
        # Tail keys are disjoint from base keys, so each lands at its
        # insertion point shifted by the tail keys before it.
        at = np.searchsorted(key, t_key) + np.arange(t_key.size)
        size = key.size + t_key.size
        from_base = np.ones(size, dtype=bool)
        from_base[at] = False
        self._key = np.empty(size, dtype=np.int64)
        self._seq = np.empty(size, dtype=np.int64)
        self._pay = np.empty((size, len(_PAYLOAD)))
        for out, b, t in ((self._key, key, t_key), (self._seq, seq, t_seq),
                          (_records(self._pay), bpay, _records(t_pay))):
            out[at] = t
            out[from_base] = b

    # -- reads ---------------------------------------------------------------

    def row(self, r: int) -> Tuple[np.ndarray, ...]:
        """(cols, t, bx, by, sp, vx, vy) of row ``r``'s live cells, cols
        ascending: the base slice merged keep-last with the row's tail
        writes."""
        lo, hi = np.searchsorted(self._key, (r * self.n, (r + 1) * self.n))
        live = self._live(r, self._seq[lo:hi], self._pay[lo:hi])
        cols = self._key[lo:hi][live] - r * self.n
        pay = self._pay[lo:hi][live]
        t_rows, t_cols, t_pay, t_seq = self._tail
        sel = np.flatnonzero(t_rows[:self._tail_pairs] == r)
        if sel.size:
            t_cols, t_pay, t_seq = t_cols[sel], t_pay[sel], t_seq[sel]
            last = _last_writes(t_cols)
            last = last[self._live(r, t_seq[last], t_pay[last])]
            # Base and tail cells are disjoint: one unique-key sort.
            cols = np.concatenate((cols, t_cols[last]))
            pay = np.concatenate((pay, t_pay[last]))
            order = np.argsort(cols)
            cols, pay = cols[order], pay[order]
        return (cols,) + tuple(pay.T)

    def evict_stale(self, alive_mask: np.ndarray, now: float,
                    timeout: float) -> int:
        """Drop every cell of an alive row not heard within ``timeout``
        of ``now``; returns the number dropped.  Compacts first, so the
        sweep is one pass over the base, which it leaves holding only
        live cells."""
        self.compact()
        rows = self._key // self.n
        live = self._live(rows, self._seq, self._pay)
        stale = live & alive_mask[rows] & (now - self._pay[:, 0] > timeout)
        keep = live & ~stale
        if not keep.all():
            self._key = self._key[keep]
            self._seq = self._seq[keep]
            self._pay = self._pay[keep]
        return int(np.count_nonzero(stale))

    @property
    def cells(self) -> int:
        """Base cells + pending tail writes (diagnostics)."""
        return int(self._key.size) + self._tail_pairs


class NeighborTable:
    """Row ``r`` (hearer) and column ``c`` (neighbor) of ``store`` belong
    to node ``ids[r]`` / ``ids[c]``; ``index`` maps an id to its row.

    Built once, when beacons first start, with ids ascending; a node
    added later takes the next row and must carry the largest id so far,
    so row columns stay in ascending node-id order.
    """

    def __init__(self, node_ids, sparse: bool):
        self.ids = np.array(sorted(node_ids), dtype=np.int64)
        self.index = {nid: i for i, nid in enumerate(self.ids.tolist())}
        n = len(self.ids)
        self.store = (SparseNeighborStore(n) if sparse
                      else DenseNeighborStore(n))

    def grow(self, node_id: int) -> None:
        """Give ``node_id`` the next row; raises ``ValueError`` and
        changes nothing unless it is the largest id so far."""
        if len(self.ids) and node_id < int(self.ids[-1]):
            raise ValueError(
                "the neighbor table requires ascending node-id adds")
        self.index[node_id] = len(self.ids)
        self.ids = np.append(self.ids, node_id)
        self.store.grow()
