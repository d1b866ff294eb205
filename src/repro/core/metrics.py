"""Evaluation metrics (Section 7).

- **Deadline hit rate** (Figures 5a, 9a): fraction of jobs meeting their
  deadlines.  For QoS configurations the paper computes it over Strict
  and Elastic jobs only (Opportunistic jobs made no deadline promise).
- **Job throughput** (Figures 5b, 9b): wall-clock time to complete the
  first ten accepted jobs, reported normalised to All-Strict.
- **Wall-clock summaries** (Figure 6): average plus min/max "candles"
  per requested mode.
- **LAC occupancy** (Section 7.5): admission-control overhead as a
  fraction of workload wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.admission import LacStatistics
from repro.core.job import Job, JobState
from repro.core.modes import ModeKind
from repro.util.stats import RunningStats
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DeadlineReport:
    """Deadline outcomes over a set of jobs."""

    considered: int
    met: int

    @property
    def hit_rate(self) -> float:
        """Fraction of considered jobs meeting their deadline (1.0 if none)."""
        return self.met / self.considered if self.considered else 1.0

    @staticmethod
    def from_jobs(
        jobs: Iterable[Job],
        *,
        reserved_modes_only: bool = True,
    ) -> "DeadlineReport":
        """Build the report from completed jobs.

        ``reserved_modes_only`` restricts to jobs whose *requested* mode
        was Strict or Elastic (the paper's convention for QoS
        configurations); set it False for EqualPart, where every job's
        deadline counts.
        """
        considered = 0
        met = 0
        for job in jobs:
            if job.deadline is None:
                continue
            if (
                reserved_modes_only
                and job.requested_mode.kind is ModeKind.OPPORTUNISTIC
            ):
                continue
            if job.state is JobState.REJECTED:
                continue
            considered += 1
            outcome = job.met_deadline
            if outcome is None:
                # Unfinished by the end of the measurement window: the
                # deadline was effectively missed.
                continue
            if outcome:
                met += 1
        return DeadlineReport(considered=considered, met=met)


@dataclass(frozen=True)
class ThroughputReport:
    """Makespan of the first N accepted jobs (Section 6's metric)."""

    jobs_measured: int
    makespan: float

    @property
    def jobs_per_time(self) -> float:
        """Raw throughput (jobs per unit time)."""
        return self.jobs_measured / self.makespan if self.makespan else 0.0

    def normalised_to(self, baseline: "ThroughputReport") -> float:
        """Throughput relative to a baseline (>1 means faster).

        Defined as ``baseline.makespan / self.makespan``: completing the
        same ten jobs in less wall-clock time is proportionally higher
        throughput, which is how Figures 5(b) and 9(b) normalise.
        """
        if self.makespan == 0:
            raise ValueError("cannot normalise a zero makespan")
        return baseline.makespan / self.makespan

    @staticmethod
    def from_jobs(jobs: Sequence[Job], *, first_n: int = 10) -> "ThroughputReport":
        """Makespan of the first ``first_n`` *accepted* jobs.

        Jobs must be in acceptance order.  Terminated jobs never
        complete and are skipped (they consumed their reserved slot but
        produce no finished work).  Raises if fewer than ``first_n``
        accepted jobs completed — the experiment harness is expected to
        run until they have.
        """
        check_positive("first_n", first_n)
        accepted = [
            job
            for job in jobs
            if job.state not in (JobState.REJECTED, JobState.TERMINATED)
        ]
        measured = accepted[:first_n]
        if len(measured) < first_n:
            raise ValueError(
                f"only {len(measured)} accepted jobs, need {first_n}"
            )
        completions = []
        for job in measured:
            if job.completion_time is None:
                raise ValueError(
                    f"job {job.job_id} has not completed; run the "
                    "simulation to completion first"
                )
            completions.append(job.completion_time)
        return ThroughputReport(
            jobs_measured=first_n, makespan=max(completions)
        )


@dataclass
class WallClockSummary:
    """Per-mode wall-clock statistics (the Figure 6 candles)."""

    per_mode: Dict[str, RunningStats] = field(default_factory=dict)

    def add_job(self, job: Job) -> None:
        """Fold one completed job's wall-clock time in, keyed by mode.

        Jobs are keyed by their *requested* mode plus an ``+AutoDown``
        tag when they were automatically downgraded, matching how
        Figure 6 separates the bars.
        """
        wall_clock = job.wall_clock_time
        if wall_clock is None:
            return
        key = job.requested_mode.describe()
        if job.auto_downgraded:
            key += "+AutoDown"
        self.per_mode.setdefault(key, RunningStats()).add(wall_clock)

    @staticmethod
    def from_jobs(jobs: Iterable[Job]) -> "WallClockSummary":
        """Summarise every completed job."""
        summary = WallClockSummary()
        for job in jobs:
            summary.add_job(job)
        return summary

    def modes(self) -> List[str]:
        """Mode keys present, sorted for stable reporting."""
        return sorted(self.per_mode)

    def stats_for(self, mode_key: str) -> RunningStats:
        """Statistics for one mode key."""
        try:
            return self.per_mode[mode_key]
        except KeyError:
            raise ValueError(
                f"no jobs recorded for mode {mode_key!r}; have "
                f"{self.modes()}"
            ) from None


@dataclass(frozen=True)
class DowngradeRecord:
    """One rung-by-rung mode downgrade taken during fault recovery.

    Modes are recorded as their ``describe()`` strings so the record
    stays a plain serialisable value; ``to_mode`` is ``"best-effort"``
    when the job fell off the bottom of the ladder and surrendered its
    guarantee entirely.
    """

    time: float
    job_id: int
    from_mode: str
    to_mode: str
    reason: str


@dataclass(frozen=True)
class ResilienceReport:
    """What the fault-injection layer did to one simulation.

    Produced by the system simulator whenever a
    :class:`~repro.faults.model.FaultConfig` was supplied (even an
    all-zero one, so tests can assert the zero-fault case is truly
    empty).  Fault kinds are keyed by their string values to keep this
    module free of a dependency on :mod:`repro.faults`.
    """

    faults_injected: int
    fault_counts: Dict[str, int]
    downgrades: Tuple[DowngradeRecord, ...]
    displacements: int
    readmissions: int
    readmission_attempts: int
    deferred_dispatches: int
    best_effort_jobs: int
    ecc_cancellations: int
    invariant_checks: int

    @property
    def downgrade_count(self) -> int:
        """Total downgrade rungs taken across all jobs."""
        return len(self.downgrades)

    def downgrades_for(self, job_id: int) -> Tuple[DowngradeRecord, ...]:
        """The downgrade sequence one job walked, in time order."""
        return tuple(
            record for record in self.downgrades if record.job_id == job_id
        )


class LacOccupancyTracker:
    """Estimate the LAC's overhead (Section 7.5).

    The paper implements the LAC as a user-level program and observes
    its occupancy below 1% of workload wall-clock time.  We charge a
    fixed cost per admission test plus a smaller cost per candidate
    window evaluated, then divide by the workload's total cycles.
    """

    CYCLES_PER_ADMISSION_TEST = 5_000.0
    CYCLES_PER_WINDOW_CHECK = 500.0

    def occupancy_fraction(
        self,
        lac_stats: LacStatistics,
        *,
        workload_cycles: float,
    ) -> float:
        """LAC busy-fraction of the workload's wall-clock cycles."""
        check_positive("workload_cycles", workload_cycles)
        busy = (
            lac_stats.admission_tests * self.CYCLES_PER_ADMISSION_TEST
            + lac_stats.candidate_windows_evaluated
            * self.CYCLES_PER_WINDOW_CHECK
        )
        return busy / workload_cycles

    def scaled_occupancy(
        self,
        lac_stats: LacStatistics,
        *,
        workload_cycles: float,
        job_multiplier: float = 1.0,
        core_multiplier: float = 1.0,
    ) -> float:
        """Occupancy under scaled job-arrival rate and core count.

        Section 7.5 notes the overhead grows proportionally with
        submitted jobs and cores while remaining low; this extrapolates
        that claim for the characterisation bench.
        """
        check_positive("job_multiplier", job_multiplier)
        check_positive("core_multiplier", core_multiplier)
        base = self.occupancy_fraction(
            lac_stats, workload_cycles=workload_cycles
        )
        return base * job_multiplier * core_multiplier
