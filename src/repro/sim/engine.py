"""A minimal deterministic discrete-event engine.

Events are ``(time, sequence, handle)`` tuples in a binary heap; ties
in time break by insertion order, which keeps simulations exactly
reproducible.  Sequence numbers are unique, so heap comparisons never
reach the handle and run as plain tuple compares.  Cancellation uses
lazy invalidation: cancelled handles stay in the heap and are skipped
on pop (cheaper than heap surgery, and the simulators cancel often
when rates change).  To keep rate-change heavy simulations from growing
the heap without bound, the queue compacts itself — rebuilding the heap
without cancelled entries — whenever cancelled entries outnumber live
ones.

:meth:`EventQueue.run` additionally supports *graceful* budgets: an
event-count budget and a wall-clock budget that stop the loop and
report why, instead of raising, so a caller can emit a partial report
or checkpoint and resume later (the robustness surface used by
:mod:`repro.faults`).

A callback that would schedule its own successor may instead ask
:meth:`EventQueue.fire_inline` whether the run loop would pop that
event next, and handle it in place when it would: the event is counted
and the clock moves exactly as if it had passed through the heap.
:meth:`EventQueue.pop_inline` does the same for an event already in
the heap: it pops that event only when the run loop would pop it next.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs import get_observer
from repro.util.validation import check_non_negative

EventCallback = Callable[[float], None]

#: Outcomes of :meth:`EventQueue.run`.
RUN_DRAINED = "drained"
RUN_STOPPED = "stopped"
RUN_EVENT_BUDGET = "event-budget"
RUN_WALL_CLOCK_BUDGET = "wall-clock-budget"


@dataclass(frozen=True)
class RunBudget:
    """Graceful stopping budgets for :meth:`EventQueue.run`.

    ``max_events`` bounds events fired *within one run call*;
    ``max_wall_seconds`` bounds real (host) time.  Either may be
    ``None`` for unlimited, and is otherwise a finite non-negative
    number (``max_events`` an int).  Unlike the engine's
    :attr:`EventQueue.MAX_EVENTS` runaway guard, exhausting a budget
    stops cleanly with an outcome string rather than raising — the
    caller decides whether to emit a partial report, checkpoint, or
    resume.
    """

    max_events: Optional[int] = None
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None:
            if isinstance(self.max_events, bool) or not isinstance(
                self.max_events, int
            ):
                raise ValueError(
                    f"max_events must be an int, got {self.max_events!r}"
                )
            check_non_negative("max_events", self.max_events)
        if self.max_wall_seconds is not None:
            check_non_negative("max_wall_seconds", self.max_wall_seconds)


class EventHandle:
    """One scheduled callback; cancelling it keeps it from firing.

    The heap holds ``(time, sequence, handle)`` tuples.  A cancelled
    handle stays in the heap and is dropped when it reaches the top.
    """

    __slots__ = ("callback", "cancelled", "popped", "_queue")

    def __init__(self, callback: EventCallback, queue: "EventQueue") -> None:
        self.callback = callback
        self.cancelled = False
        self.popped = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.popped:
            self._queue._note_cancelled()


class EventQueue:
    """Priority event queue with a monotone simulated clock."""

    #: Compaction never triggers below this raw heap size, so small
    #: queues keep the cheap lazy-invalidation behaviour.
    COMPACT_MIN_SIZE = 64
    #: The runaway guard: a run call that fires this many events raises,
    #: so a simulator bug that reschedules forever fails instead of
    #: hanging.
    MAX_EVENTS = 10_000_000

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._cancelled_in_heap = 0
        self.now = 0.0
        self.events_fired = 0
        # The limits and fired count of the run() call in progress, which
        # fire_inline and pop_inline read; _in_run is False outside run().
        self._in_run = False
        self._stop_when: Optional[Callable[[], bool]] = None
        self._budget_events: Optional[int] = None
        self._wall_deadline: Optional[float] = None
        self._fired = 0

    def _check_time(self, time: float) -> None:
        if math.isnan(time):
            raise ValueError("cannot schedule an event at NaN")
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )

    def schedule(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback(time)`` to run at simulated ``time``."""
        self._check_time(time)
        handle = EventHandle(callback, self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def schedule_after(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule relative to the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Fire the next live event; return False when the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _, handle = heapq.heappop(self._heap)
        handle.popped = True
        self.now = time
        self.events_fired += 1
        handle.callback(time)
        return True

    def run(
        self,
        *,
        stop_when: Optional[Callable[[], bool]] = None,
        budget: Optional[RunBudget] = None,
    ) -> str:
        """Drain events until a predicate, a budget, or exhaustion.

        Returns one of the ``RUN_*`` outcome strings describing why the
        loop stopped.  ``budget`` bounds this call gracefully (see
        :class:`RunBudget`); :attr:`MAX_EVENTS` stays a runaway guard —
        a simulator bug that reschedules forever raises instead of
        hanging.
        """
        obs = get_observer()
        if not obs.enabled:
            return self._run_loop(stop_when=stop_when, budget=budget)
        fired_before = self.events_fired
        with obs.profiler.span("engine.run", event_source=self):
            outcome = self._run_loop(stop_when=stop_when, budget=budget)
        obs.metrics.counter("engine.runs", outcome=outcome).inc()
        obs.metrics.counter("engine.events_fired").inc(
            self.events_fired - fired_before
        )
        obs.events.emit(
            "engine.run_end",
            self.now,
            outcome=outcome,
            events_fired=self.events_fired - fired_before,
            pending=len(self),
        )
        return outcome

    def fire_inline(self, time: float) -> bool:
        """Fire an event at ``time`` from inside the running callback.

        Returns True only when the run loop, once the current callback
        returned, would pop an event at ``time`` next: ``time`` is
        strictly earlier than every live heap entry (on a tie the entry
        wins, as its smaller sequence number would), and neither
        ``stop_when``, the event or wall-clock budget nor the
        :attr:`MAX_EVENTS` runaway guard would end the loop first.  The
        event is then counted as fired and ``now`` moves to ``time``;
        the caller runs it in place instead of scheduling it.  Outside
        :meth:`run` it returns False.

        A train of rejected probes asks this once per probe, so the
        checks of :meth:`_check_time`, :meth:`_loop_would_fire`,
        :meth:`_stop_outcome`, :meth:`_drop_cancelled` and
        :meth:`_count_inline` are written out here, in their order.
        """
        if math.isnan(time):
            raise ValueError("cannot schedule an event at NaN")
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        fired = self._fired + 1  # the current event, once it returns
        if (
            not self._in_run
            or fired >= self.MAX_EVENTS
            or (self._stop_when is not None and self._stop_when())
            or (
                self._budget_events is not None
                and fired >= self._budget_events
            )
            or (
                self._wall_deadline is not None
                and _time.monotonic() >= self._wall_deadline
            )
        ):
            return False
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2].popped = True
            self._cancelled_in_heap -= 1
        if heap and heap[0][0] <= time:
            return False
        self._fired = fired
        self.events_fired += 1
        self.now = time
        return True

    def pop_inline(self, handle: EventHandle, not_after: float) -> bool:
        """Pop ``handle`` from the heap from inside the running callback.

        Returns True only when the run loop, once the current callback
        returned, would pop ``handle`` next: it is the next live heap
        entry (a same-time entry with a smaller sequence number comes
        first), its time is at most ``not_after``, and the same
        ``stop_when``, budget and runaway-guard checks as
        :meth:`fire_inline` allow one more event.  The entry is then
        popped and counted as fired, and ``now`` moves to its time; the
        caller runs its callback in place.  Outside :meth:`run` it
        returns False.
        """
        if not self._in_run:
            return False
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _, entry = self._heap[0]
        if (
            entry is not handle
            or time > not_after
            or not self._loop_would_fire()
        ):
            return False
        heapq.heappop(self._heap)
        handle.popped = True
        self._count_inline(time)
        return True

    def _loop_would_fire(self) -> bool:
        """Whether the run loop, once the current callback returned,
        would fire its next event: inside :meth:`run`, and no stop,
        budget or runaway guard first."""
        fired = self._fired + 1  # the current event, once it returns
        return (
            self._in_run
            and fired < self.MAX_EVENTS
            and self._stop_outcome(fired) is None
        )

    def _count_inline(self, time: float) -> None:
        """Count an event fired in place as the run loop would."""
        self._fired += 1
        self.events_fired += 1
        self.now = time

    def _stop_outcome(self, fired: int) -> Optional[str]:
        """Why the run loop stops before its next event, if it does."""
        if self._stop_when is not None and self._stop_when():
            return RUN_STOPPED
        if self._budget_events is not None and fired >= self._budget_events:
            return RUN_EVENT_BUDGET
        if (
            self._wall_deadline is not None
            and _time.monotonic() >= self._wall_deadline
        ):
            return RUN_WALL_CLOCK_BUDGET
        return None

    def _run_loop(
        self,
        *,
        stop_when: Optional[Callable[[], bool]],
        budget: Optional[RunBudget],
    ) -> str:
        max_events = self.MAX_EVENTS
        self._stop_when = stop_when
        self._budget_events = None
        self._wall_deadline = None
        if budget is not None:
            self._budget_events = budget.max_events
            if budget.max_wall_seconds is not None:
                self._wall_deadline = (
                    _time.monotonic() + budget.max_wall_seconds
                )
        self._fired = 0
        self._in_run = True
        try:
            while True:
                outcome = self._stop_outcome(self._fired)
                if outcome is not None:
                    return outcome
                if self.peek_time() is None:
                    return RUN_DRAINED
                self.step()
                self._fired += 1
                if self._fired >= max_events:
                    raise RuntimeError(
                        f"event budget of {max_events} exhausted at "
                        f"simulated time {self.now}; likely a "
                        "rescheduling loop"
                    )
        finally:
            self._in_run = False
            self._stop_when = None

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order among survivors is re-established by ``heapify``;
        relative (time, sequence) ordering — and therefore the event
        schedule — is unchanged.
        """
        self._heap = [item for item in self._heap if not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("engine.compactions").inc()

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)[2].popped = True
            self._cancelled_in_heap -= 1

    def __len__(self) -> int:
        return sum(1 for item in self._heap if not item[2].cancelled)

    @property
    def heap_size(self) -> int:
        """Raw heap size including lazily-cancelled entries.

        Exposed so regression tests can assert the compaction bound:
        cancelled entries never exceed live ones (plus the compaction
        floor).
        """
        return len(self._heap)
