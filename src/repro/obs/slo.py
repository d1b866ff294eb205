"""QoS/SLO violation monitoring: is each job on track *right now*?

The paper's framework promises every reserved job completion by its
deadline; the deadline report only checks that promise *after* the run.
:class:`SloMonitor` watches it *during* the run: at every allocation
change the simulator reports each running job's progress and retirement
rate, and the monitor projects the completion time.  A job whose
projection lands past its deadline is **in violation**; when a later
reallocation (stealing return, re-admission, stall end) pulls the
projection back inside, it has **recovered**.

The monitor is a pure, deterministic state machine — it never touches
the observer itself, so the simulator stays in control of event
emission (``slo.violation`` / ``slo.recovered``) and gauge updates and
the monitor is trivially testable.  Per job it accumulates the
**violation fraction**: the share of the job's monitored lifetime spent
in violation — the steady-state health number the SLO table reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Transition outcomes of :meth:`SloMonitor.observe`.
VIOLATION = "violation"
RECOVERED = "recovered"


@dataclass
class _JobSloState:
    """Mutable per-job monitoring state."""

    job_id: int
    deadline: float
    instructions: float
    registered_at: float
    violating: bool = False
    violations: int = 0
    violating_since: Optional[float] = None
    violation_time: float = 0.0
    last_projected: Optional[float] = None
    finished_at: Optional[float] = None
    met_deadline: Optional[bool] = None


@dataclass(frozen=True)
class JobSloSummary:
    """Per-job SLO outcome for reports and exporters."""

    job_id: int
    deadline: float
    violations: int
    violation_fraction: float
    currently_violating: bool
    met_deadline: Optional[bool]
    last_projected: Optional[float]


@dataclass(frozen=True)
class SloReport:
    """Whole-run SLO outcome, attached to ``SystemResult.slo``."""

    jobs: Tuple[JobSloSummary, ...]

    @property
    def total_violations(self) -> int:
        """Violation episodes summed over all jobs."""
        return sum(job.violations for job in self.jobs)

    @property
    def jobs_violated(self) -> int:
        """Jobs that spent any monitored time in violation."""
        return sum(1 for job in self.jobs if job.violations > 0)

    def for_job(self, job_id: int) -> JobSloSummary:
        """The summary for one job; raises if it was never monitored."""
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise KeyError(f"job {job_id} was never registered with the monitor")


class SloMonitor:
    """Projection-based QoS violation tracker.

    A projection past the deadline counts as violating, with no grace:
    the paper's guarantees are exact.
    """

    def __init__(self) -> None:
        self._jobs: Dict[int, _JobSloState] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    # -- lifecycle --------------------------------------------------------------

    def register(
        self,
        job_id: int,
        *,
        deadline: float,
        instructions: float,
        now: float,
    ) -> None:
        """Start monitoring a job against its deadline (idempotent)."""
        if job_id in self._jobs:
            return
        if not math.isfinite(deadline):
            raise ValueError(f"deadline must be finite, got {deadline!r}")
        if instructions <= 0:
            raise ValueError(
                f"instructions must be positive, got {instructions}"
            )
        self._jobs[job_id] = _JobSloState(
            job_id=job_id,
            deadline=deadline,
            instructions=instructions,
            registered_at=now,
        )

    def observe(
        self, now: float, job_id: int, *, progress: float, rate: float
    ) -> Optional[str]:
        """Fold one progress sample; returns a transition or ``None``.

        ``rate`` is instructions retired per simulated second at the
        allocation now in force; zero rate with work remaining projects
        to infinity (a stalled, displaced, or starved job is violating
        by definition until resources return).
        """
        state = self._jobs.get(job_id)
        if state is None or state.finished_at is not None:
            return None
        remaining = state.instructions - progress
        if remaining <= 0:
            projected = now
        elif rate > 0:
            projected = now + remaining / rate
        else:
            projected = math.inf
        state.last_projected = projected
        violating = projected > state.deadline
        if violating and not state.violating:
            state.violating = True
            state.violations += 1
            state.violating_since = now
            return VIOLATION
        if not violating and state.violating:
            state.violating = False
            state.violation_time += now - (state.violating_since or now)
            state.violating_since = None
            return RECOVERED
        return None

    def finish(
        self, now: float, job_id: int, *, met_deadline: Optional[bool]
    ) -> None:
        """Close a job's monitoring window at its terminal event."""
        state = self._jobs.get(job_id)
        if state is None or state.finished_at is not None:
            return
        if state.violating:
            state.violation_time += now - (state.violating_since or now)
            state.violating_since = None
            # The episode stands (it happened) but the job is no longer
            # "currently" violating — it is finished.
            state.violating = False
        state.finished_at = now
        state.met_deadline = met_deadline

    # -- readout ----------------------------------------------------------------

    def violation_fraction(self, job_id: int, *, now: Optional[float] = None) -> float:
        """Share of the monitored lifetime spent in violation.

        For an unfinished job pass ``now`` to close the open interval;
        a zero-length lifetime reports 0.0.
        """
        state = self._jobs[job_id]
        end = state.finished_at
        violation_time = state.violation_time
        if end is None:
            if now is None:
                raise ValueError(
                    f"job {job_id} is still monitored; pass now= to "
                    "evaluate mid-run"
                )
            end = now
            if state.violating and state.violating_since is not None:
                violation_time += now - state.violating_since
        lifetime = end - state.registered_at
        if lifetime <= 0:
            return 0.0
        return min(1.0, violation_time / lifetime)

    def report(self, *, now: Optional[float] = None) -> SloReport:
        """Freeze the monitor into a :class:`SloReport` (job-id order)."""
        summaries = []
        for job_id in sorted(self._jobs):
            state = self._jobs[job_id]
            summaries.append(
                JobSloSummary(
                    job_id=job_id,
                    deadline=state.deadline,
                    violations=state.violations,
                    violation_fraction=self.violation_fraction(
                        job_id, now=now
                    ),
                    currently_violating=state.violating,
                    met_deadline=state.met_deadline,
                    last_projected=state.last_projected,
                )
            )
        return SloReport(jobs=tuple(summaries))
