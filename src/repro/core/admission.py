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
from dataclasses import dataclass
from typing import List, Optional

from repro.core.job import Job
from repro.core.modes import ModeKind
from repro.core.spec import ResourceVector
from repro.obs import get_observer
from repro.util.validation import check_non_negative


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


@dataclass
class LacStatistics:
    """Bookkeeping for the Section 7.5 LAC-overhead characterisation."""

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

    # -- capacity queries -------------------------------------------------------

    def reservations(self) -> List[Reservation]:
        """Snapshot of current reservations (sorted by start)."""
        return sorted(self._reservations, key=lambda r: (r.start, r.end))

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
        self.stats.candidate_windows_evaluated += 1
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("lac.candidate_windows").inc()
        breakpoints = [start] + [
            r.start
            for r in self._reservations
            if start < r.start < end
        ]
        for point in breakpoints:
            if not request.fits_within(self.available_at(point)):
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
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        candidates = sorted(
            {not_before}
            | {
                r.end
                for r in self._reservations
                if not_before < r.end < math.inf
            }
        )
        for start in candidates:
            if start + duration > latest_end:
                break
            if self.window_fits(start, start + duration, request):
                return start
        return None

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
        the reservation can be reclaimed.
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
        for start in candidates:
            if start < not_before:
                continue
            if self.window_fits(start, start + duration, request):
                return start
        return None

    # -- admission ------------------------------------------------------------------

    def admit(
        self, job: Job, *, now: float, auto_downgrade: bool = False
    ) -> AdmissionDecision:
        """FCFS admission test for ``job`` at time ``now``.

        With ``auto_downgrade`` a Strict job with slack gets its
        reservation placed as late as possible and is expected to run
        Opportunistically until then (the caller flips the job's mode).
        """
        self.stats.admission_tests += 1
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("lac.admit_calls").inc()
        mode = job.target.mode

        if mode.kind is ModeKind.OPPORTUNISTIC:
            # No reservation; spare resources are found at dispatch time.
            self.stats.acceptances += 1
            return AdmissionDecision(True, "opportunistic: no reservation needed")

        if not job.target.resources.fits_within(self.capacity):
            self.stats.rejections += 1
            return AdmissionDecision(
                False,
                f"request {job.target.resources} exceeds node capacity "
                f"{self.capacity}",
            )

        if job.target.timeslot is None:
            # Lifetime reservation: must fit from now on, forever.
            start = self._lifetime_fit(job.target.resources, now)
            if start is None:
                self.stats.rejections += 1
                return AdmissionDecision(
                    False, "no lifetime capacity available"
                )
            reservation = self._reserve(
                job.job_id, start, math.inf, job.target.resources
            )
            self.stats.acceptances += 1
            return AdmissionDecision(True, "lifetime reservation", reservation)

        duration = mode.reservation_duration(job.target.timeslot.max_wall_clock)
        deadline = job.target.timeslot.deadline
        latest_end = deadline if deadline is not None else math.inf

        if auto_downgrade and mode.kind is ModeKind.STRICT and deadline is not None:
            start = self.latest_fit(
                job.target.resources,
                duration,
                not_before=now,
                latest_end=latest_end,
            )
        else:
            start = self.earliest_fit(
                job.target.resources,
                duration,
                not_before=now,
                latest_end=latest_end,
            )
        if start is None:
            self.stats.rejections += 1
            return AdmissionDecision(
                False,
                f"no timeslot of length {duration:.3g} fits before "
                f"deadline {latest_end:.6g}",
            )
        reservation = self._reserve(
            job.job_id, start, start + duration, job.target.resources
        )
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
        return reservation

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

    def cancel(self, reservation: Reservation) -> None:
        """Drop a reservation entirely (job rejected downstream)."""
        self.release(reservation, at_time=0.0)

    def prune(self, *, before: float) -> int:
        """Forget reservations that ended at or before ``before``.

        Batch experiments never need this — a run books tens of
        reservations and exits.  A long-running admission *service*
        does: the timeline otherwise accumulates every reservation
        ever granted, and both :meth:`earliest_fit` (candidate starts)
        and :meth:`window_fits` (breakpoints) scan it linearly, so
        admission latency would grow without bound.  Pruning strictly-
        past reservations cannot change any admission decision at
        ``now >= before``: a reservation with ``end <= before`` can
        neither overlap a future window nor contribute a candidate
        start at or after ``before``.  Returns how many were dropped.
        """
        check_non_negative("before", before)
        kept = [r for r in self._reservations if r.end > before]
        dropped = len(self._reservations) - len(kept)
        self._reservations = kept
        return dropped
