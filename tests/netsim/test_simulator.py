"""Tests for the discrete-event simulator."""

import pytest

from repro.netsim.errors import SimulationError
from repro.netsim.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_not_executed(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        sim.run()
        assert fired == []


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_for(2.0)
        assert sim.now == 2.0
        sim.run_for(2.0)
        assert sim.now == 4.0

    def test_max_events_limit(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        processed = sim.run(max_events=3)
        assert processed == 3
        assert sim.pending() == 7

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(1.0, lambda: chain(1))
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestRandomness:
    def test_same_seed_same_draws(self):
        def draws(seed):
            sim = Simulator(seed=seed)
            return [sim.spawn_rng().integers(0, 1000, size=5).tolist() for _ in range(3)]

        assert draws(3) == draws(3)

    def test_spawned_streams_are_independent(self):
        sim = Simulator(seed=3)
        a = sim.spawn_rng().integers(0, 1 << 30)
        b = sim.spawn_rng().integers(0, 1 << 30)
        assert a != b

    def test_spawned_streams_reproducible_across_instances(self):
        a = Simulator(seed=9).spawn_rng().integers(0, 1 << 30)
        b = Simulator(seed=9).spawn_rng().integers(0, 1 << 30)
        assert a == b


class TestLiveEventAccounting:
    """pending() counts events that will actually fire, not heap entries."""

    def test_cancel_decrements_pending_immediately(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(5)]
        assert sim.pending() == 5
        events[2].cancel()
        assert sim.pending() == 4

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        other.cancel()
        assert sim.pending() == 0

    def test_pending_reaches_zero_after_run(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 4

    def test_cancelled_events_still_skipped_when_popped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, lambda: fired.append("keep"))
        sim.schedule(1.0, lambda: fired.append("dropped")).cancel()
        assert sim.pending() == 1
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 2.0


class TestPost:
    """The anonymous fire-and-forget fast path."""

    def test_post_runs_in_time_order_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("scheduled"))
        sim.post(1.0, order.append, "posted-early")
        sim.post(3.0, order.append, "posted-late")
        sim.run()
        assert order == ["posted-early", "scheduled", "posted-late"]

    def test_same_time_post_and_schedule_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.post(1.0, order.append, "first")
        sim.schedule(1.0, lambda: order.append("second"))
        sim.post(1.0, order.append, "third")
        sim.run()
        assert order == ["first", "second", "third"]

    def test_post_without_argument(self):
        sim = Simulator()
        fired = []
        sim.post(0.5, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_post_counts_as_pending_and_processed(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 1

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)

    def test_step_materialises_event_for_posted_callback(self):
        sim = Simulator()
        fired = []
        sim.post(1.5, fired.append, "x")
        event = sim.step()
        assert fired == ["x"]
        assert event is not None and event.time == 1.5

    def test_run_until_respects_posted_events(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, 1)
        sim.post(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]


class TestCancelAfterExecution:
    """Cancelling an event that already fired must not distort pending().

    Production callbacks do exactly this: the resolver cancels its timeout
    event from inside that event's own callback.
    """

    def test_cancel_after_run_is_a_no_op(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        event.cancel()
        assert sim.pending() == 0

    def test_cancel_own_event_from_inside_callback(self):
        sim = Simulator()
        events = []

        def fire():
            events[0].cancel()  # what resolver timeout handling does

        events.append(sim.schedule(1.0, fire))
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 2

    def test_cancel_after_step_is_a_no_op(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert sim.step() is event
        event.cancel()
        assert sim.pending() == 0
