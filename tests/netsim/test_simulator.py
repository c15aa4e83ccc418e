"""Tests for the discrete-event core."""

import ast
from pathlib import Path

import pytest

import repro
from repro.netsim import SimulationError, Simulator
from repro.netsim.simulator import Event


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(30, log.append, "c")
        sim.schedule(10, log.append, "a")
        sim.schedule(20, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.schedule(5, log.append, tag)
        sim.run()
        assert log == ["x", "y", "z"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42] and sim.now == 42

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_absolute_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: sim.at(50, lambda: seen.append(
            sim.now)))
        sim.run()
        assert seen == [50]

    def test_heap_never_compares_events(self):
        """Entries are ``(time, seq, event)`` with unique ``seq``: a
        heap full of same-instant events orders without reaching the
        event, which has no ordering at all."""
        assert "__lt__" not in vars(Event)
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule(5, log.append, i)
        sim.run()
        assert log == list(range(50))

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        event = sim.schedule(10, log.append, "no")
        event.cancel()
        sim.run()
        assert log == []

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        e1.cancel()
        assert sim.pending == 1


class TestRunBounds:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(10, log.append, "early")
        sim.schedule(100, log.append, "late")
        sim.run(until_ns=50)
        assert log == ["early"] and sim.now == 50
        sim.run()
        assert log == ["early", "late"]


class TestRunEdgeCases:
    def test_until_before_first_event_only_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(100, log.append, "later")
        processed = sim.run(until_ns=50)
        assert processed == 0
        assert log == []
        assert sim.now == 50
        assert sim.pending == 1

    def test_callback_scheduling_into_past_raises(self):
        sim = Simulator()

        def bad():
            sim.schedule(-5, lambda: None)

        sim.schedule(10, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_deferred_entry_inside_until_window_is_not_an_event(self):
        """A moved timer's old entry surfaces inside ``until_ns``; the
        loop re-files it without firing, counting or moving the clock
        past ``until_ns``."""
        sim = Simulator()
        log = []
        timer = sim.schedule(10, log.append, "timer")
        sim.reschedule(timer, 100)
        assert sim.run(until_ns=50) == 0
        assert log == [] and sim.now == 50
        assert sim.pending == 1 and sim.events_processed == 0
        assert sim.run(until_ns=99) == 0 and log == []
        assert sim.run(until_ns=100) == 1
        assert log == ["timer"] and sim.now == 100

    def test_until_between_old_and_moved_deadline_both_ways(self):
        sim = Simulator()
        log = []
        later = sim.schedule(30, log.append, "later")
        earlier = sim.schedule(80, log.append, "earlier")
        sim.reschedule(later, 90)
        sim.reschedule(earlier, 20)
        sim.run(until_ns=50)
        assert log == ["earlier"] and sim.pending == 1
        sim.run()
        # The moved-earlier event's old entry at 80 is dead: it fired
        # once, at 20.
        assert log == ["earlier", "later"]
        assert sim.events_processed == 2 and sim.now == 90



class TestReschedule:
    """``reschedule(event, d)`` is ``event.cancel(); schedule(d,
    event.callback, *event.args)`` with the handle re-used."""

    def test_returns_the_same_handle_with_the_new_time(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        assert sim.reschedule(event, 40) is event
        assert event.time == 40 and sim.pending == 1

    def test_revives_a_cancelled_handle(self):
        sim = Simulator()
        log = []
        event = sim.schedule(10, log.append, "x")
        event.cancel()
        assert sim.pending == 0
        sim.reschedule(event, 30)
        assert sim.pending == 1
        sim.run()
        assert log == ["x"] and sim.now == 30

    def test_revives_a_cancelled_handle_earlier(self):
        sim = Simulator()
        log = []
        event = sim.schedule(50, log.append, "x")
        event.cancel()
        sim.reschedule(event, 20)
        sim.run()
        assert log == ["x"] and sim.now == 20
        assert sim.events_processed == 1

    def test_rearms_a_fired_handle_from_its_own_callback(self):
        sim = Simulator()
        log = []

        def tick():
            log.append(sim.now)
            if len(log) < 3:
                sim.reschedule(timer, 7)

        timer = sim.schedule(7, tick)
        sim.run()
        assert log == [7, 14, 21] and sim.pending == 0

    def test_negative_delay_raises_and_leaves_the_event_cancelled(self):
        sim = Simulator()
        log = []
        event = sim.schedule(10, log.append, "x")
        with pytest.raises(SimulationError):
            sim.reschedule(event, -1)
        assert event.cancelled and sim.pending == 0
        sim.run()
        assert log == []

    def test_cancel_after_a_deferring_move_still_cancels(self):
        sim = Simulator()
        log = []
        event = sim.schedule(10, log.append, "x")
        sim.reschedule(event, 20)
        event.cancel()
        assert sim.pending == 0
        sim.run()
        assert log == [] and sim.now == 0 and sim.events_processed == 0

    def test_repeated_moves_leave_one_live_entry(self):
        """Re-arming on every step, as TCP timers do, fires once."""
        sim = Simulator()
        log = []
        event = sim.schedule(5, log.append, "rto")
        for delay in (9, 12, 7, 15, 15):
            sim.reschedule(event, delay)
        assert sim.pending == 1
        sim.run()
        assert log == ["rto"] and sim.events_processed == 1
        assert sim.now == 15


class TestPendingCounter:
    """`pending` is an O(1) live counter; every schedule/cancel/fire
    path must move it exactly once."""

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until_ns=15)
        assert sim.pending == 1
        event.cancel()  # already fired: must not decrement again
        assert sim.pending == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 0

    def test_pending_tracks_schedule_fire_and_callback_schedules(self):
        sim = Simulator()

        def respawn():
            sim.schedule(10, lambda: None)

        sim.schedule(5, respawn)
        assert sim.pending == 1
        sim.run(until_ns=5)
        assert sim.pending == 1  # respawned event still live
        sim.run()
        assert sim.pending == 0



class TestDeterminism:
    def test_same_seed_same_randoms(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(5)] == \
            [b.rng.random() for _ in range(5)]

    def test_clock_callable(self):
        sim = Simulator()
        sim.schedule(33, lambda: None)
        sim.run()
        assert sim.clock() == 33


def test_every_scheduled_event_is_kept():
    """``schedule`` means "I may cancel or move this": every call in
    ``src/`` keeps the :class:`Event` it returns.  Work nobody cancels
    goes on the heap through ``post`` (or ``at``), which makes none."""
    root = Path(repro.__file__).parent
    dropped = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Expr) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Attribute) and \
                    node.value.func.attr == "schedule":
                dropped.append(f"{path.relative_to(root)}:{node.lineno}")
    assert dropped == []
