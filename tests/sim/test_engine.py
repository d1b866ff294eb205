"""Tests for the discrete-event engine."""

import math
from types import SimpleNamespace

import pytest

from repro.sim.engine import (
    RUN_DRAINED,
    RUN_EVENT_BUDGET,
    RUN_STOPPED,
    RUN_WALL_CLOCK_BUDGET,
    EventQueue,
    RunBudget,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda t: fired.append(("c", t)))
        queue.schedule(1.0, lambda t: fired.append(("a", t)))
        queue.schedule(2.0, lambda t: fired.append(("b", t)))
        queue.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda t: fired.append("first"))
        queue.schedule(1.0, lambda t: fired.append("second"))
        queue.run()
        assert fired == ["first", "second"]

    def test_now_advances(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda t: None)
        queue.run()
        assert queue.now == 5.0

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda t: None)
        queue.run()
        with pytest.raises(ValueError, match="past"):
            queue.schedule(4.0, lambda t: None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(math.nan, lambda t: None)

    def test_schedule_after(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda t: queue.schedule_after(
            3.0, lambda t2: fired.append(t2)
        ))
        queue.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_after(-1.0, lambda t: None)


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda t: fired.append("x"))
        handle.cancel()
        queue.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, lambda t: None)
        handle.cancel()
        handle.cancel()

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        keep = queue.schedule(1.0, lambda t: None)
        drop = queue.schedule(2.0, lambda t: None)
        drop.cancel()
        assert len(queue) == 1

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda t: None)
        queue.schedule(2.0, lambda t: None)
        first.cancel()
        assert queue.peek_time() == 2.0


class TestRunControls:
    def test_stop_when_predicate(self):
        queue = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            queue.schedule(t, lambda time: fired.append(time))
        queue.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [1.0, 2.0]

    def test_event_budget_guards_runaway(self, monkeypatch):
        monkeypatch.setattr(EventQueue, "MAX_EVENTS", 100)
        queue = EventQueue()

        def reschedule(t):
            queue.schedule_after(1.0, reschedule)

        queue.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="budget"):
            queue.run()
        assert queue.events_fired == 100

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_events_fired_counter(self):
        queue = EventQueue()
        for t in (1.0, 2.0):
            queue.schedule(t, lambda time: None)
        queue.run()
        assert queue.events_fired == 2


class TestRunBudgets:
    def test_event_budget_stops_gracefully(self):
        queue = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            queue.schedule(t, lambda time: fired.append(time))
        outcome = queue.run(budget=RunBudget(max_events=2))
        assert outcome == RUN_EVENT_BUDGET
        assert fired == [1.0, 2.0]

    def test_budget_is_per_run_call(self):
        """Each run() call gets a fresh event allowance — the property
        checkpoint replay relies on."""
        queue = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            queue.schedule(t, lambda time: fired.append(time))
        queue.run(budget=RunBudget(max_events=2))
        outcome = queue.run(budget=RunBudget(max_events=3))
        assert outcome == RUN_DRAINED
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_zero_event_budget_fires_nothing(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda time: fired.append(time))
        assert queue.run(budget=RunBudget(max_events=0)) == RUN_EVENT_BUDGET
        assert fired == []

    def test_zero_wall_clock_budget_stops_immediately(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda time: None)
        outcome = queue.run(budget=RunBudget(max_wall_seconds=0.0))
        assert outcome == RUN_WALL_CLOCK_BUDGET

    def test_outcomes_reported(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda time: None)
        queue.schedule(10.0, lambda time: None)
        assert queue.run(stop_when=lambda: True) == RUN_STOPPED
        assert queue.run() == RUN_DRAINED

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(max_events=-1)
        with pytest.raises(ValueError):
            RunBudget(max_wall_seconds=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_events", math.nan),
            ("max_events", math.inf),
            ("max_events", 2.0),
            ("max_events", True),
            ("max_events", "5"),
            ("max_wall_seconds", math.nan),
            ("max_wall_seconds", math.inf),
            ("max_wall_seconds", -math.inf),
        ],
    )
    def test_non_finite_or_non_integral_budget_rejected(self, field, value):
        # A NaN compares False with every count and clock reading, so
        # it would never stop a run.
        with pytest.raises(ValueError, match=field):
            RunBudget(**{field: value})


class TestHeapCompaction:
    def test_cancelled_entries_never_dominate_large_heaps(self):
        """The lazy-cancel leak: cancel-heavy simulations must not grow
        the raw heap without bound."""
        queue = EventQueue()
        live = [queue.schedule(1000.0 + i, lambda t: None) for i in range(70)]
        for _ in range(5):
            handles = [
                queue.schedule(float(i + 1), lambda t: None)
                for i in range(200)
            ]
            for handle in handles:
                handle.cancel()
        assert queue.heap_size <= 2 * (len(live) + 1)
        assert len(queue) == len(live)

    def test_small_heaps_skip_compaction(self):
        queue = EventQueue()
        handles = [
            queue.schedule(float(i + 1), lambda t: None) for i in range(10)
        ]
        for handle in handles:
            handle.cancel()
        # Below COMPACT_MIN_SIZE the cheap lazy behaviour is kept.
        assert queue.heap_size == 10
        assert len(queue) == 0

    def test_compaction_preserves_firing_order(self):
        queue = EventQueue()
        fired = []
        keep = []
        for i in range(200):
            handle = queue.schedule(
                float(i), lambda t: fired.append(t)
            )
            if i % 3 == 0:
                keep.append((float(i), handle))
            else:
                handle.cancel()
        queue.run()
        assert fired == [t for t, _ in keep]

    def test_cancel_is_idempotent_for_the_counter(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, lambda t: None)
        handle.cancel()
        handle.cancel()
        assert queue._cancelled_in_heap == 1

    def test_popped_entry_cancel_does_not_corrupt_counter(self):
        queue = EventQueue()
        captured = {}

        def callback(t):
            captured["handle"].cancel()

        captured["handle"] = queue.schedule(1.0, callback)
        queue.run()
        assert queue._cancelled_in_heap == 0


class TestFireInline:
    """A callback may run its successor in place of scheduling it, but
    only when the run loop would pop that event next."""

    @staticmethod
    def _first_event_asks(queue, time, **run_kwargs):
        """Run ``queue`` with an event at 1.0 that asks to fire ``time``."""
        answers = []
        queue.schedule(
            1.0, lambda t: answers.append(queue.fire_inline(time))
        )
        outcome = queue.run(**run_kwargs)
        return answers[0], outcome

    def test_refused_outside_run(self):
        queue = EventQueue()
        assert queue.fire_inline(1.0) is False
        answers = []
        queue.schedule(1.0, lambda t: answers.append(queue.fire_inline(2.0)))
        assert queue.step()
        assert answers == [False]
        assert (queue.now, queue.events_fired) == (1.0, 1)

    def test_fired_event_moves_clock_and_counts_once(self):
        queue = EventQueue()
        seen = []

        def callback(t):
            seen.append((queue.now, queue.events_fired))
            assert queue.fire_inline(2.0)
            seen.append((queue.now, queue.events_fired))

        queue.schedule(1.0, callback)
        queue.schedule(3.0, lambda t: seen.append((t, queue.events_fired)))
        assert queue.run() == RUN_DRAINED
        assert seen == [(1.0, 1), (2.0, 2), (3.0, 3)]
        assert queue.events_fired == 3

    @pytest.mark.parametrize(
        "time, fires",
        [(3.0, False), (math.nextafter(3.0, 0.0), True), (4.0, False)],
        ids=["tie", "just-before", "after"],
    )
    def test_live_event_wins_a_tie(self, time, fires):
        queue = EventQueue()
        queue.schedule(3.0, lambda t: None)
        assert self._first_event_asks(queue, time) == (fires, RUN_DRAINED)

    def test_cancelled_entries_do_not_block(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda t: None).cancel()
        assert self._first_event_asks(queue, 2.5) == (True, RUN_DRAINED)

    @pytest.mark.parametrize("allowance, fires", [(1, False), (2, True)])
    def test_refused_at_exhausted_event_budget(self, allowance, fires):
        queue = EventQueue()
        answer, outcome = self._first_event_asks(
            queue, 2.0, budget=RunBudget(max_events=allowance)
        )
        assert (answer, outcome) == (fires, RUN_EVENT_BUDGET)
        assert queue.events_fired == allowance

    def test_refused_at_exhausted_wall_clock_budget(self, monkeypatch):
        from repro.sim import engine

        clock = [0.0]
        monkeypatch.setattr(
            engine, "_time", SimpleNamespace(monotonic=lambda: clock[0])
        )
        queue = EventQueue()
        answers = []

        def callback(t):
            answers.append(queue.fire_inline(2.0))
            clock[0] = 10.0
            answers.append(queue.fire_inline(3.0))

        queue.schedule(1.0, callback)
        outcome = queue.run(budget=RunBudget(max_wall_seconds=10.0))
        assert answers == [True, False]
        assert outcome == RUN_WALL_CLOCK_BUDGET
        assert queue.events_fired == 2

    def test_refused_when_stop_when_holds(self):
        queue = EventQueue()
        stop = []
        answers = []

        def callback(t):
            answers.append(queue.fire_inline(2.0))
            stop.append(True)
            answers.append(queue.fire_inline(3.0))

        queue.schedule(1.0, callback)
        assert queue.run(stop_when=lambda: bool(stop)) == RUN_STOPPED
        assert answers == [True, False]
        assert queue.events_fired == 2

    def test_counts_toward_the_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(EventQueue, "MAX_EVENTS", 100)
        queue = EventQueue()

        def spin(t):
            while queue.fire_inline(queue.now + 1.0):
                pass
            queue.schedule_after(1.0, spin)

        queue.schedule(0.0, spin)
        with pytest.raises(RuntimeError, match="budget"):
            queue.run()
        assert queue.events_fired == 100

    def test_rejects_nan_and_past_times(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda t: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.fire_inline(math.nan)
        with pytest.raises(ValueError, match="past"):
            queue.fire_inline(4.0)


class TestPopInline:
    """A callback may pop a scheduled event and run it in place, but
    only when the run loop would pop that very entry next."""

    @staticmethod
    def _first_event_pops(queue, time, not_after=math.inf, **run_kwargs):
        """Run ``queue`` with an event at 1.0 that pops the one at ``time``."""
        answers = []
        target = {}
        queue.schedule(
            1.0,
            lambda t: answers.append(
                queue.pop_inline(target["handle"], not_after)
            ),
        )
        target["handle"] = queue.schedule(time, lambda t: None)
        outcome = queue.run(**run_kwargs)
        return answers[0], outcome

    def test_refused_outside_run(self):
        queue = EventQueue()
        handle = queue.schedule(2.0, lambda t: None)
        assert queue.pop_inline(handle, math.inf) is False
        answers = []
        queue.schedule(
            1.0, lambda t: answers.append(queue.pop_inline(handle, math.inf))
        )
        assert queue.step()
        assert answers == [False]
        assert (queue.now, queue.events_fired, handle.popped) == (1.0, 1, False)

    def test_popped_entry_counts_as_if_the_loop_popped_it(self):
        queue = EventQueue()
        seen = []
        fired = []

        def callback(t):
            seen.append((queue.now, queue.events_fired))
            assert queue.pop_inline(second, math.inf)
            seen.append((queue.now, queue.events_fired))

        queue.schedule(1.0, callback)
        second = queue.schedule(2.0, lambda t: fired.append(t))
        queue.schedule(3.0, lambda t: seen.append((t, queue.events_fired)))
        queue.schedule(4.0, lambda t: seen.append((t, queue.events_fired)))
        # The loop's own count includes the popped entry: a budget of
        # three events stops before the one at 4.0.
        outcome = queue.run(budget=RunBudget(max_events=3))
        assert outcome == RUN_EVENT_BUDGET
        assert seen == [(1.0, 1), (2.0, 2), (3.0, 3)]
        assert fired == [], "the loop fired the popped entry again"
        assert second.popped and len(queue) == 1
        second.cancel()  # a popped entry's cancel leaves the counter alone
        assert queue._cancelled_in_heap == 0
        assert queue.run() == RUN_DRAINED
        assert queue.events_fired == 4

    @pytest.mark.parametrize(
        "other, fires",
        [(1.5, False), (2.0, False), (2.5, True)],
        ids=["earlier", "same-time-scheduled-first", "later"],
    )
    def test_only_the_next_live_entry_pops(self, other, fires):
        queue = EventQueue()
        answers = []
        handles = {}
        queue.schedule(
            1.0,
            lambda t: answers.append(
                queue.pop_inline(handles["target"], math.inf)
            ),
        )
        queue.schedule(other, lambda t: None)
        handles["target"] = queue.schedule(2.0, lambda t: None)
        assert queue.run() == RUN_DRAINED
        assert answers == [fires]
        assert queue.events_fired == 3

    def test_same_time_entry_scheduled_later_does_not_block(self):
        queue = EventQueue()
        answers = []
        handles = {}
        queue.schedule(
            1.0,
            lambda t: answers.append(
                queue.pop_inline(handles["target"], math.inf)
            ),
        )
        handles["target"] = queue.schedule(2.0, lambda t: None)
        queue.schedule(2.0, lambda t: None)
        assert queue.run() == RUN_DRAINED
        assert answers == [True]

    def test_cancelled_entries_do_not_block(self):
        queue = EventQueue()
        answers = []
        handles = {}
        queue.schedule(
            1.0,
            lambda t: answers.append(
                queue.pop_inline(handles["target"], math.inf)
            ),
        )
        queue.schedule(1.5, lambda t: None).cancel()
        handles["target"] = queue.schedule(2.0, lambda t: None)
        assert queue.run() == RUN_DRAINED
        assert answers == [True]

    def test_cancelled_handle_is_refused(self):
        queue = EventQueue()
        answers = []
        handles = {}

        def callback(t):
            handles["target"].cancel()
            answers.append(queue.pop_inline(handles["target"], math.inf))

        queue.schedule(1.0, callback)
        handles["target"] = queue.schedule(2.0, lambda t: None)
        assert queue.run() == RUN_DRAINED
        assert answers == [False]
        assert queue.events_fired == 1

    @pytest.mark.parametrize(
        "not_after, fires",
        [(2.0, True), (math.nextafter(2.0, 0.0), False)],
        ids=["at", "just-before"],
    )
    def test_refused_past_not_after(self, not_after, fires):
        assert self._first_event_pops(EventQueue(), 2.0, not_after) == (
            fires,
            RUN_DRAINED,
        )

    @pytest.mark.parametrize("allowance, fires", [(1, False), (2, True)])
    def test_refused_at_exhausted_event_budget(self, allowance, fires):
        queue = EventQueue()
        answer, outcome = self._first_event_pops(
            queue, 2.0, budget=RunBudget(max_events=allowance)
        )
        assert (answer, outcome) == (fires, RUN_EVENT_BUDGET)
        assert queue.events_fired == allowance

    def test_refused_at_exhausted_wall_clock_budget(self, monkeypatch):
        from repro.sim import engine

        clock = [0.0]
        monkeypatch.setattr(
            engine, "_time", SimpleNamespace(monotonic=lambda: clock[0])
        )
        queue = EventQueue()
        answers = []
        handles = {}

        def callback(t):
            answers.append(queue.pop_inline(handles[2.0], math.inf))
            clock[0] = 10.0
            answers.append(queue.pop_inline(handles[3.0], math.inf))

        queue.schedule(1.0, callback)
        handles[2.0] = queue.schedule(2.0, lambda t: None)
        handles[3.0] = queue.schedule(3.0, lambda t: None)
        outcome = queue.run(budget=RunBudget(max_wall_seconds=10.0))
        assert answers == [True, False]
        assert outcome == RUN_WALL_CLOCK_BUDGET
        assert queue.events_fired == 2

    def test_refused_when_stop_when_holds(self):
        queue = EventQueue()
        stop = []
        answers = []
        handles = {}

        def callback(t):
            answers.append(queue.pop_inline(handles[2.0], math.inf))
            stop.append(True)
            answers.append(queue.pop_inline(handles[3.0], math.inf))

        queue.schedule(1.0, callback)
        handles[2.0] = queue.schedule(2.0, lambda t: None)
        handles[3.0] = queue.schedule(3.0, lambda t: None)
        assert queue.run(stop_when=lambda: bool(stop)) == RUN_STOPPED
        assert answers == [True, False]
        assert queue.events_fired == 2

    @pytest.mark.parametrize("max_events, fires", [(1, False), (2, True)])
    def test_refused_at_the_runaway_guard(self, max_events, fires, monkeypatch):
        monkeypatch.setattr(EventQueue, "MAX_EVENTS", max_events)
        queue = EventQueue()
        answers = []
        handles = {}
        queue.schedule(
            1.0,
            lambda t: answers.append(
                queue.pop_inline(handles["target"], math.inf)
            ),
        )
        handles["target"] = queue.schedule(2.0, lambda t: None)
        with pytest.raises(RuntimeError, match="budget"):
            queue.run()
        assert answers == [fires]
        assert queue.events_fired == max_events
