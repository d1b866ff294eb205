"""The Local Admission Controller (Section 5).

The LAC maintains a timeline of resource reservations (processor cores
and cache ways) and admits jobs First-Come-First-Served:

- A **Strict** job needs its resource vector reserved for its maximum
  wall-clock time ``tw``, in the earliest timeslot that completes
  before the job's deadline.
- An **Elastic(X)** job reserves for the stretched duration
  ``tw * (1 + X)`` (it may be slowed by up to X%).
- An **Opportunistic** job reserves nothing and is accepted whenever
  the node exists to run it eventually on spare resources.
- Under **automatic mode downgrade** a Strict job's timeslot is
  reserved *as late as possible* before the deadline (Section 3.4), and
  the job runs Opportunistically until the reserved slot begins.

Jobs are accepted only when a feasible reservation exists — the
admission control that, per the paper, cache partitioning alone cannot
substitute for.  Early completions release the remainder of their
reservation so later jobs can be admitted sooner (visible in the
Figure 7 traces).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.job import Job
from repro.core.modes import ExecutionMode, ModeKind
from repro.core.spec import ResourceVector
from repro.obs import get_observer
from repro.util.validation import check_non_negative

#: A first-fit memo entry: the request it was scanned for (held so its
#: ``id`` stays unique while the entry lives), the ``not_before`` of
#: the scan, and the first start found (``None``: no window fits).
_FirstFit = Tuple[ResourceVector, float, Optional[float]]

#: :meth:`LocalAdmissionController.earliest_fit` has not yet asked the
#: memo (it asks only once the scan would evaluate a window).
_UNSCANNED = object()


@dataclass
class Reservation:
    """A booked slice of the node's capacity."""

    reservation_id: int
    job_id: int
    start: float
    end: float  # math.inf for lifetime reservations
    resources: ResourceVector

    def active_at(self, time: float) -> bool:
        """True if the reservation covers ``time``."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission test."""

    accepted: bool
    reason: str
    reservation: Optional[Reservation] = None

    @property
    def reserved_start(self) -> Optional[float]:
        """Start of the granted timeslot, if any."""
        return self.reservation.start if self.reservation else None


class _NoTimeslot(AdmissionDecision):
    """A rejection because no timeslot fits before the deadline.

    Nearly every probe of a Fig. 5 run ends here, and only an observed
    run reads the reason, so it is formatted when it is read.
    """

    accepted = False

    def __init__(self, duration: float, latest_end: float) -> None:
        object.__setattr__(self, "_window", (duration, latest_end))

    @property
    def reason(self) -> str:  # type: ignore[override]
        duration, latest_end = self._window
        return (
            f"no timeslot of length {duration:.3g} fits before "
            f"deadline {latest_end:.6g}"
        )


@dataclass
class LacStatistics:
    """Bookkeeping for the Section 7.5 LAC-overhead characterisation.

    ``candidate_windows_evaluated`` counts the windows the paper's FCFS
    scan evaluates, one per candidate start it tries; the first-fit
    memo reproduces that count without evaluating them again.
    """

    admission_tests: int = 0
    candidate_windows_evaluated: int = 0
    acceptances: int = 0
    rejections: int = 0


class LocalAdmissionController:
    """Per-CMP admission controller with a reservation timeline."""

    def __init__(self, capacity: ResourceVector) -> None:
        if capacity.is_zero():
            raise ValueError("the node must have some capacity")
        self.capacity = capacity
        self.stats = LacStatistics()
        self._reservations: List[Reservation] = []
        self._ids = itertools.count(1)
        # Per timeline version: the sorted distinct finite reservation
        # ends and the latest end (each built on demand), and the
        # first-fit memo.
        self._ends: Optional[List[float]] = None
        self._latest_end: Optional[float] = None
        self._first_fits: Dict[Tuple[int, float], _FirstFit] = {}

    # -- capacity queries -------------------------------------------------------

    def reservations(self) -> List[Reservation]:
        """Snapshot of current reservations (sorted by start)."""
        return sorted(self._reservations, key=lambda r: (r.start, r.end))

    def booked_from(self, time: float) -> bool:
        """True if any reservation covers ``time`` or a later instant."""
        latest = self._latest_end
        if latest is None:
            latest = self._latest_end = max(
                (r.end for r in self._reservations), default=-math.inf
            )
        return latest > time

    def used_at(self, time: float) -> ResourceVector:
        """Resources reserved at instant ``time``."""
        check_non_negative("time", time)
        active = [r for r in self._reservations if r.active_at(time)]
        return ResourceVector(
            cores=sum(r.resources.cores for r in active),
            cache_ways=sum(r.resources.cache_ways for r in active),
            bandwidth_share=min(
                1.0, sum(r.resources.bandwidth_share for r in active)
            ),
        )

    def available_at(self, time: float) -> ResourceVector:
        """Unreserved resources at instant ``time``.

        RUM convertibility makes this the whole supply-side computation
        — a subtraction (Section 3.2).  Clamped at zero so that an
        externally-constructed (oversubscribed) timeline reads as
        "nothing available" instead of failing.
        """
        used = self.used_at(time)
        return ResourceVector(
            cores=max(0, self.capacity.cores - used.cores),
            cache_ways=max(0, self.capacity.cache_ways - used.cache_ways),
            bandwidth_share=max(
                0.0, self.capacity.bandwidth_share - used.bandwidth_share
            ),
        )

    def window_fits(
        self, start: float, end: float, request: ResourceVector
    ) -> bool:
        """Can ``request`` be added throughout ``[start, end)``?

        Checked at every breakpoint (window start plus each reservation
        start inside the window), since usage is piecewise constant.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        self._count_windows(1)
        return self._fits(start, end, request)

    def _count_windows(self, evaluated: int) -> None:
        """Count ``evaluated`` candidate windows of the paper's scan."""
        if evaluated:
            self.stats.candidate_windows_evaluated += evaluated
            obs = get_observer()
            if obs.enabled:
                obs.metrics.counter("lac.candidate_windows").inc(evaluated)

    def _fits(self, start: float, end: float, request: ResourceVector) -> bool:
        """:meth:`window_fits` for a non-empty window, uncounted."""
        breakpoints = [start] + [
            r.start
            for r in self._reservations
            if start < r.start < end
        ]
        capacity = self.capacity
        for point in breakpoints:
            # ``request.fits_within(self.available_at(point))`` on plain
            # numbers: the same sums in timeline order, the same clamps
            # and the same tolerance, but no vectors to build and
            # validate at every breakpoint.
            check_non_negative("time", point)
            cores = ways = 0
            bandwidth = 0
            for r in self._reservations:
                if r.start <= point < r.end:
                    resources = r.resources
                    cores += resources.cores
                    ways += resources.cache_ways
                    bandwidth += resources.bandwidth_share
            if (
                request.cores > max(0, capacity.cores - cores)
                or request.cache_ways > max(0, capacity.cache_ways - ways)
                or request.bandwidth_share
                > max(0.0, capacity.bandwidth_share - min(1.0, bandwidth))
                + 1e-12
            ):
                return False
        return True

    # -- timeslot search ----------------------------------------------------------

    def earliest_fit(
        self,
        request: ResourceVector,
        duration: float,
        *,
        not_before: float,
        latest_end: float = math.inf,
    ) -> Optional[float]:
        """Earliest start ≥ ``not_before`` whose window fits before ``latest_end``.

        Candidate starts are ``not_before`` and the ends of existing
        reservations (usage only ever *decreases* at reservation ends,
        so any feasible start can be shifted left onto one of these).
        The paper's scan tries them in order and stops at the first
        window that fits or that ends after ``latest_end``; a window
        that is empty in floating point (``start + duration == start``)
        fits nothing.  The answer comes from the first-fit memo
        (:meth:`_first_fit`); the windows the scan evaluates are counted
        all the same.  The candidates are read in place from the sorted
        reservation ends.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        ends = self._reservation_ends()
        index = bisect_right(ends, not_before)
        start = not_before
        first = _UNSCANNED
        evaluated = 0
        try:
            while True:
                if start + duration > latest_end:
                    return None
                evaluated += 1
                if first is _UNSCANNED:
                    first = self._first_fit(request, duration, not_before)
                if start == first:
                    return start
                if index == len(ends):
                    return None
                start = ends[index]
                index += 1
        finally:
            self._count_windows(evaluated)

    def latest_fit(
        self,
        request: ResourceVector,
        duration: float,
        *,
        not_before: float,
        latest_end: float,
    ) -> Optional[float]:
        """Latest feasible start — used to place AutoDown reservations.

        Section 3.4: an automatically-downgraded job's reserved timeslot
        should sit as far in the future as possible, maximising the
        chance the job finishes Opportunistically before the slot and
        the reservation can be reclaimed.  An empty window fits nothing.
        When the first-fit memo shows that no window starting by
        ``preferred = latest_end - duration`` fits, the candidates are
        counted and rejected unevaluated.  The memo's argument
        (:meth:`_first_fit`) covers ``preferred``, the one candidate its
        scan does not try: the window from ``preferred`` is empty
        whenever one from an earlier start is, because the float
        spacing only grows with the start, and where ``duration`` is
        half the spacing, ``preferred`` rounds to an even last bit,
        whose window is empty.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if latest_end == math.inf:
            raise ValueError("latest_fit needs a finite deadline")
        preferred = latest_end - duration
        if preferred < not_before:
            return None
        candidates = sorted(
            {preferred}
            | {
                r.end
                for r in self._reservations
                if not_before <= r.end <= preferred
            }
            | {not_before},
            reverse=True,
        )
        # A negative or NaN time fails the window check's validation,
        # which only the scan below reproduces.
        if 0 <= not_before <= preferred:
            first = self._first_fit(request, duration, not_before)
            if first is None or preferred < first:
                self._count_windows(len(candidates))
                return None
        for start in candidates:
            if start < not_before:
                continue
            end = start + duration
            if end <= start:
                self._count_windows(1)
            elif self.window_fits(start, end, request):
                return start
        return None

    def _reservation_ends(self) -> List[float]:
        """The timeline version's sorted distinct finite reservation ends."""
        ends = self._ends
        if ends is None:
            ends = self._ends = sorted(
                {r.end for r in self._reservations if r.end < math.inf}
            )
        return ends

    def _candidates(self, not_before: float) -> List[float]:
        """``not_before``, then each finite reservation end after it."""
        ends = self._reservation_ends()
        return [not_before, *ends[bisect_right(ends, not_before):]]

    def _first_fit(
        self, request: ResourceVector, duration: float, not_before: float
    ) -> Optional[float]:
        """First candidate start from ``not_before`` whose window fits.

        The first-fit memo.  The scan has no deadline bound, and a
        window that is empty in floating point fits nothing.  Per
        timeline version, each ``(request, duration)`` keeps the result
        ``first`` of its last scan, from ``t0``, unless that scan met an
        empty window; it answers any later ``not_before`` equal to
        ``t0``, or in ``[t0, first)`` (any ``not_before ≥ t0`` when
        ``first`` is ``None``).  :meth:`_reserve` and :meth:`release`
        start a new version.

        Why the memo is exact.  Let ``d`` be the duration and ``C(t)``
        the candidate starts at ``t``: ``t`` and every finite
        reservation end after it.  While the timeline is unchanged no
        window ``[t, t+d)`` with ``t0 ≤ t < first`` fits.  Suppose one
        did, and let ``c`` be the largest start in ``C(t0)`` with
        ``c ≤ t``.  No reservation ends in ``(c, t]``, so the
        reservations active at each of ``c``'s breakpoints (its start
        and each reservation start inside its window) are a subset of
        those active at ``t`` or at that same breakpoint of ``t``'s
        window, which reaches at least as far.  :meth:`_fits` sums
        them in timeline order, and float addition of non-negative
        terms is monotone, so ``c``'s window fits too: a contradiction,
        since ``c < first`` was scanned and did not fit.  Hence, for
        ``t`` in ``[t0, first)``, ``first`` is in ``C(t)`` and is the
        first start there that fits; :meth:`earliest_fit` returns it
        when its window ends by the deadline, and otherwise ``None``,
        after the same candidates the scan evaluates.  If ``first`` is
        ``None`` the same holds for every ``t ≥ t0``.

        The argument needs ``c``'s window to be non-empty when ``t``'s
        is.  That holds unless ``d`` is exactly half the float spacing
        at ``c`` and ``t``, where rounding to even leaves every other
        start's window empty; so a scan that met an empty window is not
        kept.  An empty window at ``t`` itself fits nothing either way.
        """
        key = (id(request), duration)
        memo = self._first_fits.get(key)
        if memo is not None:
            held, scanned_from, first = memo
            # A copied controller's keys carry the original requests'
            # ids; the identity check keeps them from matching others.
            if held is request and (
                not_before == scanned_from
                or (
                    scanned_from <= not_before
                    and (first is None or not_before < first)
                )
            ):
                return first
        first = None
        empty = False
        for start in self._candidates(not_before):
            end = start + duration
            if end <= start:
                empty = True
            elif self._fits(start, end, request):
                first = start
                break
        if not empty:
            # The entry holds the request, so no other object takes its id.
            self._first_fits[key] = (request, not_before, first)
        return first

    # -- admission ------------------------------------------------------------------

    def admit(
        self, job: Job, *, now: float, auto_downgrade: bool = False
    ) -> AdmissionDecision:
        """FCFS admission test for ``job`` at time ``now``."""
        target = job.target
        timeslot = target.timeslot
        return self.admit_request(
            job.job_id,
            target.resources,
            target.mode,
            target.reservation_duration(),
            None if timeslot is None else timeslot.deadline,
            now=now,
            auto_downgrade=auto_downgrade,
        )

    def admit_request(
        self,
        job_id: int,
        resources: ResourceVector,
        mode: ExecutionMode,
        duration: Optional[float],
        deadline: Optional[float],
        *,
        now: float,
        auto_downgrade: bool = False,
    ) -> AdmissionDecision:
        """FCFS admission test for job ``job_id``'s request at ``now``.

        ``duration`` is the reservation length,
        ``mode.reservation_duration(max_wall_clock)``, which a caller
        probing one request many times computes once.
        ``duration=None`` asks for a lifetime reservation, and
        ``deadline=None`` for a timeslot with no deadline.  With
        ``auto_downgrade`` a Strict job with slack gets its reservation
        placed as late as possible and is expected to run
        Opportunistically until then (the caller flips the job's mode).
        Taking the request's parts, not a :class:`Job`, lets a caller
        build the job and its target only once it is accepted.
        """
        self.stats.admission_tests += 1
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("lac.admit_calls").inc()

        if mode.kind is ModeKind.OPPORTUNISTIC:
            # No reservation; spare resources are found at dispatch time.
            self.stats.acceptances += 1
            return AdmissionDecision(True, "opportunistic: no reservation needed")

        if not resources.fits_within(self.capacity):
            self.stats.rejections += 1
            return AdmissionDecision(
                False,
                f"request {resources} exceeds node capacity "
                f"{self.capacity}",
            )

        if duration is None:
            # Lifetime reservation: must fit from now on, forever.
            start = self._lifetime_fit(resources, now)
            if start is None:
                self.stats.rejections += 1
                return AdmissionDecision(
                    False, "no lifetime capacity available"
                )
            reservation = self._reserve(job_id, start, math.inf, resources)
            self.stats.acceptances += 1
            return AdmissionDecision(True, "lifetime reservation", reservation)

        latest_end = deadline if deadline is not None else math.inf

        if auto_downgrade and mode.kind is ModeKind.STRICT and deadline is not None:
            start = self.latest_fit(
                resources, duration, not_before=now, latest_end=latest_end
            )
        else:
            start = self.earliest_fit(
                resources, duration, not_before=now, latest_end=latest_end
            )
        if start is None:
            self.stats.rejections += 1
            return _NoTimeslot(duration, latest_end)
        reservation = self._reserve(job_id, start, start + duration, resources)
        self.stats.acceptances += 1
        return AdmissionDecision(True, "timeslot reserved", reservation)

    def reserve_window(
        self,
        job_id: int,
        resources: ResourceVector,
        duration: float,
        *,
        not_before: float,
        latest_end: float = math.inf,
    ) -> Optional[Reservation]:
        """Re-admission test for an already-accepted, displaced job.

        The fault-recovery path (:mod:`repro.faults`): a job whose core
        failed lost its reservation and must book a fresh timeslot for
        its *remaining* work.  This runs the same earliest-fit search as
        :meth:`admit` but takes the resource vector and duration
        directly — the job object's original timeslot describes the full
        job, not the remainder.  Returns the booked reservation, or
        ``None`` when no window fits before ``latest_end`` (the caller
        then retries with backoff or downgrades the job's mode).
        """
        self.stats.admission_tests += 1
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("lac.reserve_window_calls").inc()
        if not resources.fits_within(self.capacity):
            self.stats.rejections += 1
            return None
        start = self.earliest_fit(
            resources, duration, not_before=not_before, latest_end=latest_end
        )
        if start is None:
            self.stats.rejections += 1
            return None
        self.stats.acceptances += 1
        return self._reserve(job_id, start, start + duration, resources)

    def _lifetime_fit(
        self, request: ResourceVector, now: float
    ) -> Optional[float]:
        """Earliest start from which ``request`` fits forever."""
        candidates = sorted(
            {now}
            | {r.end for r in self._reservations if now < r.end < math.inf}
        )
        for start in candidates:
            horizon = max(
                [start + 1.0]
                + [r.end for r in self._reservations if r.end < math.inf]
                + [
                    r.start + 1.0
                    for r in self._reservations
                    if r.end == math.inf
                ]
            )
            if self.window_fits(start, horizon + 1.0, request):
                return start
        return None

    def _reserve(
        self, job_id: int, start: float, end: float, resources: ResourceVector
    ) -> Reservation:
        reservation = Reservation(
            reservation_id=next(self._ids),
            job_id=job_id,
            start=start,
            end=end,
            resources=resources,
        )
        self._reservations.append(reservation)
        self._timeline_changed()
        return reservation

    def _timeline_changed(self) -> None:
        """Start a new timeline version: drop its ends and first fits."""
        self._ends = None
        self._latest_end = None
        self._first_fits.clear()

    # -- reclamation --------------------------------------------------------------

    def release(self, reservation: Reservation, *, at_time: float) -> None:
        """Reclaim a reservation from ``at_time`` onward.

        Early completion (or an AutoDown job finishing before its
        reserved slot begins) frees the remainder for later admissions —
        the effect that lets the eighth and tenth jobs start earlier in
        Figure 7(b).
        """
        if reservation not in self._reservations:
            raise ValueError(
                f"reservation {reservation.reservation_id} is not active"
            )
        if at_time <= reservation.start:
            self._reservations.remove(reservation)
        else:
            reservation.end = min(reservation.end, at_time)
        self._timeline_changed()

    def cancel(self, reservation: Reservation) -> None:
        """Drop a reservation entirely (job rejected downstream)."""
        self.release(reservation, at_time=0.0)
