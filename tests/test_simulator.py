"""Tests for the discrete-event engine and event queue."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.flooding.events import EventQueue
from repro.flooding.simulator import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        while True:
            event = q.pop()
            if event is None:
                break
            event.action()
        assert fired == ["a", "b"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("normal"), priority=0)
        q.push(1.0, lambda: fired.append("urgent"), priority=-10)
        q.pop().action()
        assert fired == ["urgent"]

    def test_sequence_breaks_full_ties(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append(1))
        q.push(1.0, lambda: fired.append(2))
        q.pop().action()
        q.pop().action()
        assert fired == [1, 2]

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_rejects_negative_and_nan(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.push(-1.0, lambda: None)
        with pytest.raises(SchedulingError):
            q.push(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            q.push(-float("inf"), lambda: None)
        assert len(q) == 0

    def test_equal_keys_fire_in_push_order_negative_priority_first(self):
        q = EventQueue()
        pushes = [("a", 0), ("b", -10), ("c", 0), ("d", -5), ("e", -10), ("f", 0)]
        for label, priority in pushes:
            q.push(1.0, lambda: None, priority=priority, label=label)
        q.push(0.5, lambda: None, priority=3, label="early")
        order = []
        while (event := q.pop()) is not None:
            order.append(event.label)
        assert order == ["early", "b", "e", "d", "a", "c", "f"]

    def test_cancelled_head_skipped_by_peek_and_pop(self):
        q = EventQueue()
        head = q.push(1.0, lambda: None, priority=-10)
        q.push(1.0, lambda: None, label="next")
        head.cancel()
        assert q.peek_time() == 1.0
        assert q.pop().label == "next"
        assert q.peek_time() is None and q.pop() is None

    def test_push_returns_the_event_it_fires(self):
        q = EventQueue()
        event = q.push(2.5, lambda: None, priority=-5, label="x")
        assert (event.time, event.priority, event.label) == (2.5, -5, "x")
        assert q.pop() is event


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        processed = sim.run()
        assert processed == 2
        assert times == [1.5, 3.0]
        assert sim.now == 3.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, lambda: None)

    def test_schedule_after(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_after(2.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [3.0]

    def test_schedule_after_negative_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_after(-0.5, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cascading_events(self):
        sim = Simulator()
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 5:
                sim.schedule_after(1.0, chain)

        sim.schedule(0.0, chain)
        sim.run()
        assert count[0] == 5
        assert sim.processed_events == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)

    def test_not_reentrant(self):
        sim = Simulator()
        caught = []

        def recurse():
            try:
                sim.run()
            except SimulationError:
                caught.append(True)

        sim.schedule(0.0, recurse)
        sim.run()
        assert caught == [True]

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
