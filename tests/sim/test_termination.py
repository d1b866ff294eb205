"""Tests for maximum-wall-clock enforcement (Section 3.2).

The paper borrows the batch-system contract: a job declares its own
maximum wall-clock time and "may be terminated if it runs longer".
These tests declare deliberately under-estimated limits and verify the
job is killed at its reservation boundary, its resources reclaimed,
and the rest of the schedule untouched.
"""

import pytest

from repro.core.config import ModeMixConfig
from repro.core.job import JobState
from repro.core.modes import ExecutionMode
from repro.sim.config import SimulationConfig
from repro.sim.system import QoSSystemSimulator
from repro.workloads.arrival import DeadlineClass
from repro.workloads.composer import JobSpec, WorkloadSpec


def workload_with_underestimate(honest_jobs=2):
    """One job declaring half the wall-clock it needs, plus honest ones."""
    strict = ExecutionMode.strict()
    # The fake bzip2 curve gives T(7 ways) ~= 0.29 s; declaring 0.1 s
    # is a gross under-estimate.
    liar = JobSpec(
        benchmark="bzip2",
        mode=strict,
        deadline_class=DeadlineClass.RELAXED,
        requested_ways=7,
        max_wall_clock=0.1,
    )
    honest = tuple(
        JobSpec(
            benchmark="bzip2",
            mode=strict,
            deadline_class=DeadlineClass.RELAXED,
            requested_ways=7,
        )
        for _ in range(honest_jobs)
    )
    return WorkloadSpec(
        name="underestimate",
        jobs=(liar,) + honest,
        configuration=ModeMixConfig(name="term", strict_fraction=1.0),
    )


@pytest.fixture(scope="module")
def result(fake_curves_module):
    workload = workload_with_underestimate()
    return QoSSystemSimulator(
        workload,
        curves=fake_curves_module,
        sim_config=SimulationConfig(accepted_jobs_target=2),
        record_trace=True,
    ).run()


@pytest.fixture(scope="module")
def fake_curves_module():
    from tests.sim.conftest import linear_curve

    return {
        "bzip2": linear_curve("bzip2", 0.0275, high=0.60, low=0.18, knee=7)
    }


class TestTermination:
    def test_liar_is_terminated(self, result):
        liar = result.jobs[0]
        assert liar.state is JobState.TERMINATED
        assert liar.terminated_time == pytest.approx(
            liar.start_time + 0.1, rel=1e-3
        )
        assert liar.completion_time is None
        assert liar.met_deadline is False

    def test_terminations_counted(self, result):
        assert result.terminations == 1

    def test_honest_jobs_unaffected(self, result):
        honest = result.jobs[1:]
        assert all(j.state is JobState.COMPLETED for j in honest)
        assert all(j.met_deadline for j in honest)

    def test_resources_reclaimed_after_termination(self, result):
        # The freed slot lets the next honest job start right at the
        # termination instant (both cannot co-reside: 7 + 7 + 7 > 16).
        liar = result.jobs[0]
        third = result.jobs[2]
        assert third.start_time == pytest.approx(
            liar.terminated_time, abs=1e-3
        )

    def test_trace_closed_for_terminated_job(self, result):
        span = result.trace.job_span(result.jobs[0].job_id)
        assert span is not None
        start, end = span
        assert end == pytest.approx(result.jobs[0].terminated_time)

    def test_throughput_measured_over_completed_jobs(self, result):
        assert result.throughput.jobs_measured == 2


class TestEnforcementToggle:
    def test_disabled_enforcement_lets_the_job_finish(
        self, fake_curves_module
    ):
        workload = workload_with_underestimate(honest_jobs=1)
        result = QoSSystemSimulator(
            workload,
            curves=fake_curves_module,
            sim_config=SimulationConfig(
                accepted_jobs_target=2, enforce_wall_clock=False
            ),
        ).run()
        assert all(
            j.state is JobState.COMPLETED for j in result.jobs
        )
        assert result.terminations == 0

    def test_honest_workloads_never_terminate(self, fake_curves_module):
        from repro.core.config import ALL_STRICT
        from repro.workloads.composer import single_benchmark_workload

        workload = single_benchmark_workload("bzip2", ALL_STRICT)
        result = QoSSystemSimulator(
            workload,
            curves=fake_curves_module,
            sim_config=SimulationConfig(),
        ).run()
        assert result.terminations == 0
        assert result.deadline_report.hit_rate == 1.0


class TestReservationBoundary:
    """A reservation ending at ``t`` frees its ways before one starting
    at ``t`` is dispatched, even when the next job's dispatch event was
    queued first."""

    @staticmethod
    def simulator(fake_curves_module, *, stall_from=None, stall_for=0.0):
        # 9 + 8 > 16 and 8 + 9 > 16: three back-to-back reservations.
        # The third job is admitted (its dispatch queued) before the
        # second starts and schedules its own wall-clock check.
        jobs = tuple(
            JobSpec(
                benchmark="bzip2",
                mode=ExecutionMode.strict(),
                deadline_class=DeadlineClass.RELAXED,
                requested_ways=ways,
            )
            for ways in (9, 8, 9)
        )
        workload = WorkloadSpec(
            name="back-to-back",
            jobs=jobs,
            configuration=ModeMixConfig(name="b2b", strict_fraction=1.0),
        )
        sim = QoSSystemSimulator(workload, curves=fake_curves_module)
        if stall_from is not None:
            # The second job runs on core 0 once the first completes.
            sim.events.schedule(
                stall_from,
                lambda now: sim.stall_core(0, duration=stall_for, now=now),
            )
        return sim

    def test_stalled_job_overrunning_into_next_reservation(
        self, fake_curves_module
    ):
        clean = self.simulator(fake_curves_module).run()
        first, second, third = clean.jobs
        assert second.start_time == pytest.approx(
            first.completion_time, abs=1e-3
        )
        assert third.start_time > second.completion_time
        assert {
            segment.core_id
            for segment in clean.trace.segments
            if segment.job_id == second.job_id
        } == {0}
        length = second.max_wall_clock

        stalled = self.simulator(
            fake_curves_module,
            stall_from=second.start_time + length / 4,
            stall_for=length / 2,
        ).run()
        first, second, third = stalled.jobs
        assert first.state is JobState.COMPLETED
        assert second.state is JobState.TERMINATED
        assert third.state is JobState.COMPLETED
        assert second.terminated_time == third.start_time
        assert stalled.terminations == 1
