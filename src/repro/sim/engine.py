"""Discrete-event simulation kernel.

A classic event-list kernel: callbacks scheduled at absolute simulated times,
executed in (time, sequence) order so simultaneous events run in scheduling
order.  This is the substrate everything else (MAC, beacons, protocol
timers) is built on — the reproduction's stand-in for ns-2's scheduler.

Each simulator owns one :class:`~repro.sim.probe.Probe` (``sim.probe``),
which every observer of the run subscribes to; the kernel emits on its
``kernel`` and ``kernel_timed`` channels around each event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from .errors import SimulationError
from .probe import Probe
from .rng import RngRegistry

EventCallback = Callable[[], None]


class EventHandle:
    """A scheduled event; the handle ``schedule_at`` returns, which can
    cancel it.

    The queue orders ``(time, seq, event)`` tuples, so heap sifts compare
    floats and ints in C and never reach the event itself.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: EventCallback):
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        self.cancelled = True


class Simulator:
    """Event-driven simulation clock and scheduler."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = RngRegistry(seed)
        #: heap of (time, seq, event); seq breaks ties in scheduling order
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_executed = 0
        #: callables run before every ``events_executed`` read (see
        #: :meth:`defer_credits`)
        self._credit_settlers: Tuple[Callable[[], None], ...] = ()
        self._running = False
        self._stop_requested = False
        #: the run's observation channels (see repro.sim.probe)
        self.probe = Probe()

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if math.isnan(time):
            raise SimulationError("cannot schedule an event at NaN time")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self.now}")
        event = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return event

    def schedule_in(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay < 0.0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def request_stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event.

        Event-driven completion: a callback (say, a query's completion
        handler) can end the enclosing ``run`` without the caller polling
        the queue one ``step`` at a time.  A no-op outside ``run``; the
        flag is cleared on the next ``run`` entry.
        """
        self._stop_requested = True

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event. Returns False when the queue is empty."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed > before

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        event budget ``max_events`` is exhausted.

        When stopped by ``until``, the clock is advanced to ``until`` so a
        subsequent ``run`` continues from there.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        executed = 0
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        probe = self.probe
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time, _seq, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if time > limit or executed >= budget:
                    break
                heappop(queue)
                self.now = time
                self._events_executed += 1
                executed += 1
                kernel = probe.kernel
                if kernel:
                    for fn in kernel:
                        fn(time, event.callback)
                timed = probe.kernel_timed
                if timed:
                    t0 = perf_counter()
                    event.callback()
                    elapsed = perf_counter() - t0
                    for fn in timed:
                        fn(event.callback, elapsed)
                else:
                    event.callback()
                if self._stop_requested:
                    return
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def credit_events(self, n: int) -> None:
        """Account ``n`` logical events executed outside the event queue.

        Batched subsystems (the beacon epoch kernel) collapse many
        fine-grained events into one scheduled callback; crediting keeps
        ``events_executed`` comparable between the batched and per-event
        implementations, so bench throughput and the cross-run
        determinism gate keep meaning the same thing.
        """
        if n < 0:
            raise SimulationError("cannot credit a negative event count")
        self._events_executed += n

    def defer_credits(self, settle: Callable[[], None]) -> None:
        """Register ``settle``, which books any events its subsystem
        holds back from :meth:`credit_events`; it runs before every read
        of ``events_executed``, so the count never lags."""
        self._credit_settlers += (settle,)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _t, _s, e in self._queue if not e.cancelled)

    @property
    def events_executed(self) -> int:
        for settle in self._credit_settlers:
            settle()
        return self._events_executed

    def peek_next_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None if the queue is empty.

        Cancelled events at the head are discarded, as :meth:`run` does."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None


class PeriodicTask:
    """Re-schedules a callback every ``period`` seconds until stopped."""

    def __init__(self, sim: Simulator, period: float,
                 callback: EventCallback, jitter: float = 0.0,
                 rng_stream: str = "periodic"):
        if period <= 0.0:
            raise SimulationError("period must be positive")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._rng_stream = rng_stream
        self._handle: Optional[EventHandle] = None
        self._stopped = False

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin firing. Default initial delay is one (jittered) period."""
        if initial_delay is None:
            initial_delay = self._next_delay()
        self._handle = self._sim.schedule_in(initial_delay, self._fire)

    def _next_delay(self) -> float:
        if self._jitter <= 0.0:
            return self._period
        gen = self._sim.rng.stream(self._rng_stream)
        return max(1e-9,
                   self._period + gen.uniform(-self._jitter, self._jitter))

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule_in(self._next_delay(),
                                                 self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
