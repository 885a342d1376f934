"""Tests for the simulation engine and its event heap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, ValidationError
from repro.sim.engine import Event, Simulator


class TestEventQueue:
    """The event heap's contract, observed through :class:`Simulator`."""

    def test_pops_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule_at(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("x"))
        sim.schedule_at(2.0, lambda: fired.append("y"))
        event.cancel()
        sim.run()
        assert fired == ["y"]

    def test_empty_run_fires_nothing(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_len_ignores_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None).cancel()
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(3.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 1
        assert sim.now == 2.0  # cancelled events neither fire nor move the clock

    def test_peek_time(self):
        """The earliest live event decides whether ``run(until)`` fires anything."""
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5.0))
        sim.run(until=4.999)
        assert fired == [] and sim.now == 4.999
        sim.run(until=5.0)
        assert fired == [5.0] and sim.now == 5.0

    def test_event_handle(self):
        sim = Simulator()
        event = sim.schedule(1.5, lambda: None)
        assert isinstance(event, Event)
        assert event.time == 1.5 and not event.cancelled
        event.cancel()
        assert event.cancelled

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_property_pop_order_is_sorted(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(times)


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5, 1.5]
        assert sim.now == 1.5

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0

    def test_event_at_until_still_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(until=2.0)
        assert seen == [2]

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("inf"), float("nan"), -1e-9])
    def test_non_finite_or_negative_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(ValidationError, match="delay"):
            sim.schedule(delay, lambda: None)

    @pytest.mark.parametrize("time", [float("inf"), float("nan")])
    def test_schedule_at_non_finite_rejected(self, time):
        sim = Simulator()
        with pytest.raises(ValidationError, match="finite"):
            sim.schedule_at(time, lambda: None)
        sim.run()
        assert sim.now == 0.0

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValidationError):
            sim.schedule_at(1.0, lambda: None)

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5
