"""Wall-clock profiler for the discrete-event kernel.

Answers "where does simulator wall-time go?" by accounting the real
(``perf_counter``) cost of every executed event callback, keyed by the
callback code object's ``module:qualname:lineno`` —
``mac:MacLayer._transmit_attempt.<locals>._begin:312`` and friends —
which maps one-to-one onto the kernel's event-handler types.  Keying on
the code object (not just ``__qualname__``) keeps distinct lambdas and
closures in distinct buckets: two ``<lambda>`` handlers defined on
different lines never collapse into one row.  Timing happens strictly
outside the seeded-RNG path: the profiler reads the wall clock and a
dict, so simulation results stay bit-identical whether or not it is
installed.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple


def _label_of(callback) -> str:
    """Stable handler-type label for an event callback.

    Functions, closures and bound methods are keyed by their code
    object's ``module:qualname:lineno`` so every distinct definition site
    gets its own bucket (lambdas all share the ``<lambda>`` qualname and
    are only told apart by line number).  Builtins and callable objects
    without a code object fall back to a type-level label.
    """
    if isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)   # unwrap bound method
    code = getattr(func, "__code__", None)
    if code is not None:
        qualname = getattr(func, "__qualname__", code.co_name)
        module = getattr(func, "__module__", "") or ""
        short_mod = module.rsplit(".", 1)[-1]
        prefix = f"{short_mod}:" if short_mod else ""
        return f"{prefix}{qualname}:{code.co_firstlineno}"
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:   # builtins, callables with __call__
        qualname = getattr(type(callback), "__qualname__",
                           repr(type(callback)))
    module = getattr(callback, "__module__", "") or ""
    short_mod = module.rsplit(".", 1)[-1]
    return f"{short_mod}:{qualname}" if short_mod else qualname


class HandlerStats:
    """Accumulated wall-clock cost of one handler type."""

    __slots__ = ("label", "calls", "total_s", "max_s")

    def __init__(self, label: str):
        self.label = label
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0

    @property
    def mean_us(self) -> float:
        return (self.total_s / self.calls) * 1e6 if self.calls else 0.0


class KernelProfiler:
    """Per-handler-type wall-clock accounting for a :class:`Simulator`.

    :meth:`install` subscribes :meth:`record` to the simulator probe's
    ``kernel_timed`` channel; the kernel then times every event callback
    and reports it there.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, HandlerStats] = {}
        self._label_cache: Dict[int, str] = {}
        self.events_timed = 0
        self.total_s = 0.0
        self._sim = None

    # -- lifecycle ------------------------------------------------------

    def install(self, sim) -> "KernelProfiler":
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        sim.probe.subscribe("kernel_timed", self.record)
        self._sim = sim
        return self

    def uninstall(self) -> None:
        if self._sim is not None:
            self._sim.probe.unsubscribe("kernel_timed", self.record)
        self._sim = None

    # -- recording (the kernel_timed channel) ---------------------------

    def record(self, callback, elapsed_s: float) -> None:
        # Cache labels by code-object id: closures are re-created per
        # scheduling but share their code, so the string work happens
        # once per handler type, not once per event.  Partials and bound
        # methods are unwrapped first — keying a partial by its own type
        # would fold every partial-wrapped handler into one bucket.
        func = callback
        if isinstance(func, functools.partial):
            func = func.func
        func = getattr(func, "__func__", func)
        code = getattr(func, "__code__", None)
        key = id(code) if code is not None else id(type(callback))
        label = self._label_cache.get(key)
        if label is None:
            label = self._label_cache[key] = _label_of(callback)
        stats = self._stats.get(label)
        if stats is None:
            stats = self._stats[label] = HandlerStats(label)
        stats.calls += 1
        stats.total_s += elapsed_s
        stats.max_s = max(stats.max_s, elapsed_s)
        self.events_timed += 1
        self.total_s += elapsed_s

    # -- reporting ------------------------------------------------------

    def hotspots(self, top: int = 10) -> List[HandlerStats]:
        """The ``top`` handler types by total wall-clock cost."""
        ranked = sorted(self._stats.values(),
                        key=lambda s: s.total_s, reverse=True)
        return ranked[:top]

    def to_rows(self, top: Optional[int] = None
                ) -> List[Tuple[str, int, float, float, float]]:
        """(label, calls, total_s, mean_us, share) rows, hottest first."""
        total = self.total_s or 1.0
        return [(s.label, s.calls, s.total_s, s.mean_us, s.total_s / total)
                for s in self.hotspots(top if top is not None
                                       else len(self._stats))]

    def report(self, top: int = 10) -> str:
        """Human-readable top-N hotspot table."""
        header = (f"{'handler':<48} {'calls':>9} {'total ms':>10} "
                  f"{'mean µs':>9} {'share':>7}")
        lines = [f"kernel profile: {self.events_timed} events, "
                 f"{self.total_s * 1e3:.2f} ms handler wall-time",
                 header, "-" * len(header)]
        for label, calls, total_s, mean_us, share in self.to_rows(top):
            lines.append(f"{label:<48} {calls:>9} {total_s * 1e3:>10.3f} "
                         f"{mean_us:>9.2f} {share:>6.1%}")
        return "\n".join(lines)
