"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import PeriodicTask, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_in_relative(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: sim.schedule_in(
            3.0, lambda: results.append(sim.now)))
        results = []
        sim.run()
        assert results == [5.0]

    def test_scheduling_into_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_nan_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_max_events_budget(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.events_executed == 4
        assert sim.pending_events == 6

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule_at(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        assert handle.cancelled
        sim.run()
        assert fired == []

    def test_peek_next_time_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        h.cancel()
        assert sim.peek_next_time() == 2.0

    def test_peek_discards_cancelled_heads_only(self):
        """Cancelled events at the head leave the queue on a peek, as
        ``run`` would drop them; a cancelled event behind a live head
        stays until it surfaces.  Nothing else changes."""
        sim = Simulator()
        early = [sim.schedule_at(t, lambda: None) for t in (0.5, 1.0)]
        sim.schedule_at(2.0, lambda: None)
        late = sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(4.0, lambda: None)
        for h in early + [late]:
            h.cancel()
        assert sim.pending_events == 2
        assert sim.peek_next_time() == 2.0
        assert len(sim._queue) == 3
        assert sim.peek_next_time() == 2.0
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_executed == 2
        assert sim.peek_next_time() is None

    def test_peek_on_empty_and_all_cancelled_queue(self):
        sim = Simulator()
        assert sim.peek_next_time() is None
        handles = [sim.schedule_at(float(t), lambda: None) for t in (3, 1, 2)]
        for h in handles:
            h.cancel()
        assert sim.pending_events == 0
        assert sim.peek_next_time() is None

    def test_equal_times_keep_scheduling_order_through_the_heap(self):
        """Ties at one time run in scheduling order however the heap
        is sifted (cancellations and interleaved times included)."""
        sim = Simulator()
        order = []
        handles = []
        for i in range(40):
            t = float(i % 4)
            handles.append(sim.schedule_at(
                t, lambda i=i: order.append(i)))
        for h in handles[5::7]:
            h.cancel()
        sim.run()
        cancelled = set(range(5, 40, 7))
        expect = sorted((i for i in range(40) if i not in cancelled),
                        key=lambda i: (i % 4, i))
        assert order == expect

    def test_handle_reports_its_time(self):
        sim = Simulator()
        h = sim.schedule_in(2.5, lambda: None)
        assert h.time == 2.5 and not h.cancelled

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule_at(1.0, recurse)
        sim.run()


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_initial_delay(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start(initial_delay=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=2.5)
        task.stop()
        sim.run(until=10.0)
        assert len(ticks) == 2

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                task.stop()

        task = PeriodicTask(sim, 1.0, tick)
        task.start()
        sim.run(until=10.0)
        assert len(ticks) == 3

    def test_jitter_stays_near_period(self):
        sim = Simulator(seed=5)
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now),
                            jitter=0.1)
        task.start()
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.9 - 1e-9 <= g <= 1.1 + 1e-9 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered

    def test_invalid_period(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)
