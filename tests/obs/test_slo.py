"""Tests for the projection-based SLO violation monitor."""

import math

import pytest

from repro.obs.slo import RECOVERED, VIOLATION, SloMonitor


def make_monitor():
    monitor = SloMonitor()
    monitor.register(1, deadline=10.0, instructions=100.0, now=0.0)
    return monitor


class TestRegistration:
    def test_idempotent(self):
        monitor = make_monitor()
        monitor.register(1, deadline=99.0, instructions=5.0, now=3.0)
        assert len(monitor) == 1
        # First registration wins.
        report = monitor.report(now=0.0)
        assert report.for_job(1).deadline == 10.0

    def test_infinite_deadline_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SloMonitor().register(
                1, deadline=math.inf, instructions=1.0, now=0.0
            )

    def test_non_positive_instructions_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SloMonitor().register(1, deadline=1.0, instructions=0.0, now=0.0)


class TestTransitions:
    def test_on_track_job_never_transitions(self):
        monitor = make_monitor()
        # 100 instructions at rate 20/s from t=1 → projected 6 < 10.
        assert monitor.observe(1.0, 1, progress=0.0, rate=20.0) is None
        assert monitor.observe(2.0, 1, progress=20.0, rate=20.0) is None

    def test_slow_rate_triggers_violation_once(self):
        monitor = make_monitor()
        # Rate 5/s → projected 21 > 10: violation, then steady-state.
        assert monitor.observe(1.0, 1, progress=0.0, rate=5.0) == VIOLATION
        assert monitor.observe(2.0, 1, progress=5.0, rate=5.0) is None

    def test_zero_rate_with_work_left_projects_infinity(self):
        monitor = make_monitor()
        assert monitor.observe(1.0, 1, progress=0.0, rate=0.0) == VIOLATION
        assert monitor.report(now=1.0).for_job(1).last_projected == math.inf

    def test_recovery_when_projection_returns(self):
        monitor = make_monitor()
        assert monitor.observe(1.0, 1, progress=0.0, rate=5.0) == VIOLATION
        assert (
            monitor.observe(3.0, 1, progress=10.0, rate=50.0) == RECOVERED
        )
        summary = monitor.report(now=3.0).for_job(1)
        assert summary.violations == 1
        assert not summary.currently_violating

    def test_completed_work_projects_now(self):
        monitor = make_monitor()
        monitor.observe(1.0, 1, progress=0.0, rate=5.0)
        assert (
            monitor.observe(4.0, 1, progress=100.0, rate=0.0) == RECOVERED
        )

    def test_unknown_job_ignored(self):
        assert (
            SloMonitor().observe(1.0, 7, progress=0.0, rate=0.0) is None
        )

    def test_deadline_is_exact(self):
        # Projected exactly at the deadline: on track.  Projected one
        # float past it: a violation, with no grace.
        on_time = make_monitor()
        assert on_time.observe(0.0, 1, progress=0.0, rate=10.0) is None
        late = make_monitor()
        past = math.nextafter(10.0, math.inf) - 10.0
        assert late.observe(past, 1, progress=0.0, rate=10.0) == VIOLATION
        projected = late.report(now=past).for_job(1).last_projected
        assert projected == math.nextafter(10.0, math.inf)


class TestViolationFraction:
    def test_accumulates_across_episodes(self):
        monitor = make_monitor()
        monitor.observe(2.0, 1, progress=0.0, rate=1.0)  # violating 2..4
        monitor.observe(4.0, 1, progress=50.0, rate=100.0)  # recovered
        monitor.observe(6.0, 1, progress=60.0, rate=1.0)  # violating 6..8
        monitor.finish(8.0, 1, met_deadline=False)
        # 4 of 8 monitored seconds in violation.
        assert monitor.violation_fraction(1) == pytest.approx(0.5)
        summary = monitor.report().for_job(1)
        assert summary.violations == 2
        assert summary.violation_fraction == pytest.approx(0.5)

    def test_open_interval_needs_now(self):
        monitor = make_monitor()
        monitor.observe(2.0, 1, progress=0.0, rate=1.0)
        with pytest.raises(ValueError, match="pass now="):
            monitor.violation_fraction(1)
        assert monitor.violation_fraction(1, now=4.0) == pytest.approx(0.5)

    def test_zero_lifetime_reports_zero(self):
        monitor = make_monitor()
        monitor.finish(0.0, 1, met_deadline=True)
        assert monitor.violation_fraction(1) == 0.0


class TestFinishAndReport:
    def test_finish_closes_open_episode(self):
        monitor = make_monitor()
        monitor.observe(2.0, 1, progress=0.0, rate=0.0)
        monitor.finish(4.0, 1, met_deadline=False)
        summary = monitor.report().for_job(1)
        assert not summary.currently_violating
        assert summary.violations == 1
        assert summary.met_deadline is False
        assert summary.violation_fraction == pytest.approx(0.5)

    def test_observe_after_finish_is_inert(self):
        monitor = make_monitor()
        monitor.finish(4.0, 1, met_deadline=True)
        assert monitor.observe(5.0, 1, progress=0.0, rate=0.0) is None
        assert monitor.report().for_job(1).violations == 0

    def test_report_orders_by_job_id(self):
        monitor = SloMonitor()
        for job_id in (3, 1, 2):
            monitor.register(
                job_id, deadline=10.0, instructions=1.0, now=0.0
            )
            monitor.finish(1.0, job_id, met_deadline=True)
        report = monitor.report()
        assert [job.job_id for job in report.jobs] == [1, 2, 3]

    def test_aggregates(self):
        monitor = SloMonitor()
        for job_id in (1, 2):
            monitor.register(
                job_id, deadline=10.0, instructions=100.0, now=0.0
            )
        monitor.observe(1.0, 1, progress=0.0, rate=0.0)
        monitor.observe(2.0, 1, progress=0.0, rate=50.0)
        monitor.observe(3.0, 1, progress=0.0, rate=0.0)
        for job_id in (1, 2):
            monitor.finish(5.0, job_id, met_deadline=True)
        report = monitor.report()
        assert report.total_violations == 2
        assert report.jobs_violated == 1

    def test_for_job_unknown_raises(self):
        with pytest.raises(KeyError, match="never registered"):
            SloMonitor().report().for_job(9)


class TestSimulationIntegration:
    def test_seeded_run_attaches_slo_report(self):
        """An observed run produces a report consistent with the
        deadline outcome; an unobserved run leaves ``slo`` None."""
        from repro.core.config import CONFIGURATIONS
        from repro.obs import observed
        from repro.sim.system import QoSSystemSimulator
        from repro.workloads.composer import single_benchmark_workload

        workload = single_benchmark_workload(
            "bzip2", CONFIGURATIONS["Hybrid-1"], count=6, seed=42
        )
        with observed() as obs:
            result = QoSSystemSimulator(workload).run()
        assert result.slo is not None
        monitored = {job.job_id for job in result.slo.jobs}
        with_deadlines = {
            job.job_id for job in result.jobs if job.deadline is not None
        }
        assert monitored == with_deadlines
        # Gauges published for every monitored job.
        for job in result.slo.jobs:
            assert (
                obs.metrics.value_of(
                    "slo.violation_fraction", job=job.job_id
                )
                is not None
            )
        # A violation episode implies the matching event was emitted.
        if result.slo.total_violations:
            assert obs.events.of_kind("slo.violation")

        unobserved = QoSSystemSimulator(
            single_benchmark_workload(
                "bzip2", CONFIGURATIONS["Hybrid-1"], count=6, seed=42
            )
        ).run()
        assert unobserved.slo is None
