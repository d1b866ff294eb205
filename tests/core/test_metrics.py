"""Tests for the evaluation metrics (Section 7)."""

import pytest

from repro.core.admission import LacStatistics
from repro.core.job import Job
from repro.core.metrics import (
    DeadlineReport,
    LacOccupancyTracker,
    ThroughputReport,
    WallClockSummary,
)
from repro.core.modes import ExecutionMode
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest


def finished_job(
    job_id,
    *,
    mode=None,
    deadline=10.0,
    start=0.0,
    end=5.0,
    rejected=False,
    auto_downgraded=False,
):
    job = Job(
        job_id=job_id,
        benchmark="bzip2",
        target=QoSTarget(
            ResourceVector(1, 7),
            TimeslotRequest(max_wall_clock=5.0, deadline=deadline),
            mode if mode is not None else ExecutionMode.strict(),
        ),
        arrival_time=0.0,
        instructions=10,
    )
    if rejected:
        job.mark_rejected()
        return job
    job.mark_accepted()
    job.mark_started(start, core_id=0)
    job.advance(10)
    job.mark_completed(end)
    job.auto_downgraded = auto_downgraded
    return job


class TestDeadlineReport:
    def test_all_met(self):
        jobs = [finished_job(i, end=5.0) for i in range(3)]
        report = DeadlineReport.from_jobs(jobs)
        assert report.hit_rate == 1.0
        assert report.considered == 3

    def test_misses_counted(self):
        jobs = [
            finished_job(1, end=5.0),
            finished_job(2, end=15.0),  # past deadline 10
        ]
        report = DeadlineReport.from_jobs(jobs)
        assert report.hit_rate == pytest.approx(0.5)

    def test_opportunistic_excluded_for_qos_configs(self):
        jobs = [
            finished_job(1),
            finished_job(
                2, mode=ExecutionMode.opportunistic(), end=50.0
            ),
        ]
        qos = DeadlineReport.from_jobs(jobs, reserved_modes_only=True)
        assert qos.considered == 1
        assert qos.hit_rate == 1.0
        equalpart = DeadlineReport.from_jobs(jobs, reserved_modes_only=False)
        assert equalpart.considered == 2
        assert equalpart.hit_rate == pytest.approx(0.5)

    def test_rejected_jobs_excluded(self):
        jobs = [finished_job(1), finished_job(2, rejected=True)]
        assert DeadlineReport.from_jobs(jobs).considered == 1

    def test_empty_is_vacuous_hit(self):
        assert DeadlineReport.from_jobs([]).hit_rate == 1.0


class TestThroughputReport:
    def test_makespan_of_first_n(self):
        jobs = [finished_job(i, end=float(i + 1)) for i in range(5)]
        report = ThroughputReport.from_jobs(jobs, first_n=3)
        assert report.makespan == pytest.approx(3.0)
        assert report.jobs_measured == 3

    def test_normalisation_is_inverse_makespan(self):
        fast = ThroughputReport(jobs_measured=10, makespan=2.0)
        slow = ThroughputReport(jobs_measured=10, makespan=4.0)
        assert fast.normalised_to(slow) == pytest.approx(2.0)
        assert slow.normalised_to(fast) == pytest.approx(0.5)

    def test_requires_enough_completed_jobs(self):
        jobs = [finished_job(1)]
        with pytest.raises(ValueError, match="accepted jobs"):
            ThroughputReport.from_jobs(jobs, first_n=10)

    def test_rejected_jobs_skipped_in_count(self):
        jobs = [finished_job(1, rejected=True)] + [
            finished_job(i, end=2.0) for i in range(2, 5)
        ]
        report = ThroughputReport.from_jobs(jobs, first_n=3)
        assert report.jobs_measured == 3


class TestWallClockSummary:
    def test_grouped_by_requested_mode(self):
        jobs = [
            finished_job(1, end=4.0),
            finished_job(2, end=6.0),
            finished_job(
                3, mode=ExecutionMode.opportunistic(), end=9.0
            ),
        ]
        summary = WallClockSummary.from_jobs(jobs)
        strict = summary.stats_for("Strict")
        assert strict.count == 2
        assert strict.mean == pytest.approx(5.0)
        assert strict.minimum == pytest.approx(4.0)
        assert strict.maximum == pytest.approx(6.0)
        assert summary.stats_for("Opportunistic").count == 1

    def test_autodown_jobs_get_their_own_key(self):
        jobs = [
            finished_job(1),
            finished_job(2, auto_downgraded=True),
        ]
        summary = WallClockSummary.from_jobs(jobs)
        assert "Strict" in summary.modes()
        assert "Strict+AutoDown" in summary.modes()

    def test_unknown_mode_key_raises(self):
        summary = WallClockSummary.from_jobs([finished_job(1)])
        with pytest.raises(ValueError):
            summary.stats_for("Elastic(5%)")


class TestLacOccupancy:
    def test_occupancy_fraction(self):
        stats = LacStatistics(
            admission_tests=100, candidate_windows_evaluated=400
        )
        tracker = LacOccupancyTracker()
        occupancy = tracker.occupancy_fraction(
            stats, workload_cycles=1e9
        )
        assert occupancy == pytest.approx((100 * 5000 + 400 * 500) / 1e9)

    def test_paper_claim_under_one_percent(self):
        # Section 7.5: LAC occupancy < 1% of a workload's wall-clock.
        stats = LacStatistics(
            admission_tests=2000, candidate_windows_evaluated=8000
        )
        tracker = LacOccupancyTracker()
        occupancy = tracker.occupancy_fraction(
            stats, workload_cycles=3.0e9
        )
        assert occupancy < 0.01

    def test_scaled_occupancy_grows_proportionally(self):
        stats = LacStatistics(admission_tests=10)
        tracker = LacOccupancyTracker()
        base = tracker.occupancy_fraction(stats, workload_cycles=1e9)
        scaled = tracker.scaled_occupancy(
            stats, workload_cycles=1e9, job_multiplier=2.0,
            core_multiplier=3.0,
        )
        assert scaled == pytest.approx(base * 6.0)
