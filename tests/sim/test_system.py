"""Integration tests for the QoS system simulator."""

import dataclasses

import pytest

from repro.core.config import (
    ALL_STRICT,
    ALL_STRICT_AUTODOWN,
    EQUAL_PART,
    HYBRID_1,
    HYBRID_2,
)
from repro.core.job import JobState
from repro.core.modes import ExecutionMode, ModeKind
from repro.core.policy import make_policy
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.system import STEALING_MIN_WAYS, QoSSystemSimulator
from repro.workloads.arrival import DeadlineClass
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import mixed_workload, single_benchmark_workload


SIM = SimulationConfig()


def run(benchmark, configuration, fake_curves, **kwargs):
    workload = single_benchmark_workload(benchmark, configuration)
    simulator = QoSSystemSimulator(
        workload, curves=fake_curves, sim_config=SIM, **kwargs
    )
    return simulator.run()


class TestAllStrict:
    @pytest.fixture(scope="class")
    def result(self, fake_curves):
        return run("bzip2", ALL_STRICT, fake_curves)

    def test_all_ten_jobs_complete(self, result):
        assert len(result.jobs) == 10
        assert all(j.state is JobState.COMPLETED for j in result.jobs)

    def test_hundred_percent_deadline_hit(self, result):
        # The framework's headline guarantee (Figure 5a).
        assert result.deadline_report.hit_rate == 1.0
        assert result.deadline_report.considered == 10

    def test_makespan_is_five_sequential_rounds(self, result):
        # 10 jobs, two 7-way reservations at a time: 5 rounds of
        # T(7 ways) each.  mpi(7)=0.18*0.0275; CPI = 1.275 + mpi*300.
        cpi = 1.0 + 0.0275 * 10 + 0.18 * 0.0275 * 300
        round_seconds = 200e6 * cpi / 2e9
        assert result.makespan_seconds == pytest.approx(
            5 * round_seconds, rel=0.03
        )

    def test_at_most_two_jobs_concurrent(self, result):
        trace = result.trace
        for t in trace.breakpoints():
            assert trace.cores_in_use_at(t) <= 2.0 + 1e-9

    def test_cache_never_oversubscribed(self, result):
        trace = result.trace
        for t in trace.breakpoints():
            assert trace.ways_in_use_at(t) <= 16

    def test_strict_jobs_keep_their_mode(self, result):
        for job in result.jobs:
            assert job.requested_mode.kind is ModeKind.STRICT
            assert len(job.mode_history) == 1

    def test_wall_clock_is_uniform_across_strict_jobs(self, result):
        # Figure 6: Strict jobs have short, almost-constant wall clock.
        stats = result.wall_clock.stats_for("Strict")
        assert stats.spread / stats.mean < 0.02


class TestHybrid1:
    @pytest.fixture(scope="class")
    def results(self, fake_curves):
        return (
            run("bzip2", ALL_STRICT, fake_curves),
            run("bzip2", HYBRID_1, fake_curves),
        )

    def test_opportunistic_jobs_improve_throughput(self, results):
        all_strict, hybrid1 = results
        improvement = hybrid1.throughput.normalised_to(
            all_strict.throughput
        )
        # Figure 5(b): ~25% improvement from filling idle cores/ways.
        assert improvement > 1.10

    def test_opportunistic_jobs_slower_and_more_variable(self, results):
        _, hybrid1 = results
        strict = hybrid1.wall_clock.stats_for("Strict")
        opportunistic = hybrid1.wall_clock.stats_for("Opportunistic")
        assert opportunistic.mean > strict.mean
        assert opportunistic.spread >= strict.spread

    def test_deadline_hit_only_counts_reserved_jobs(self, results):
        _, hybrid1 = results
        assert hybrid1.deadline_report.considered == 7
        assert hybrid1.deadline_report.hit_rate == 1.0


class TestHybrid2:
    @pytest.fixture(scope="class")
    def result(self, fake_curves):
        return run("gobmk", HYBRID_2, fake_curves)

    def test_elastic_jobs_donate_ways(self, result):
        # gobmk's flat curve makes it an ideal donor: stealing should
        # take ways without ever hitting the 5% slack.
        assert result.steal_transfers > 0

    def test_elastic_jobs_still_meet_deadlines(self, result):
        assert result.deadline_report.hit_rate == 1.0

    def test_elastic_allocation_never_below_floor(self, result):
        for job in result.jobs:
            if job.requested_mode.kind is not ModeKind.ELASTIC:
                continue
            history = result.per_job_ways_history[job.job_id]
            reserved_phases = [w for w in history if w > 0]
            assert min(reserved_phases) >= STEALING_MIN_WAYS


class TestAutoDowngrade:
    @pytest.fixture(scope="class")
    def result(self, fake_curves):
        return run("bzip2", ALL_STRICT_AUTODOWN, fake_curves)

    def test_only_moderate_and_relaxed_jobs_downgrade(self, result):
        workload = single_benchmark_workload("bzip2", ALL_STRICT_AUTODOWN)
        for job, spec in zip(result.jobs, workload.jobs):
            if job.auto_downgraded:
                assert spec.deadline_class in (
                    DeadlineClass.MODERATE,
                    DeadlineClass.RELAXED,
                )

    def test_some_jobs_downgraded(self, result):
        assert any(j.auto_downgraded for j in result.jobs)

    def test_downgraded_jobs_meet_deadlines(self, result):
        # The whole point of reserving the late timeslot (Section 3.4).
        assert result.deadline_report.hit_rate == 1.0

    def test_downgraded_jobs_record_mode_history(self, result):
        downgraded = [j for j in result.jobs if j.auto_downgraded]
        for job in downgraded:
            kinds = [m.kind for _, m in job.mode_history]
            assert kinds[0] is ModeKind.STRICT
            assert ModeKind.OPPORTUNISTIC in kinds

    def test_throughput_beats_all_strict(self, result, fake_curves):
        baseline = run("bzip2", ALL_STRICT, fake_curves)
        assert result.throughput.normalised_to(baseline.throughput) > 1.0

    def test_switch_back_time_matches_reservation(self, result):
        for job in result.jobs:
            if job.auto_downgraded and job.switch_back_time is not None:
                assert job.switch_back_time <= job.deadline


class TestDeterminismAndGuards:
    def test_same_seed_same_result(self, fake_curves):
        a = run("bzip2", ALL_STRICT, fake_curves)
        b = run("bzip2", ALL_STRICT, fake_curves)
        assert a.makespan_seconds == b.makespan_seconds
        assert [j.completion_time for j in a.jobs] == [
            j.completion_time for j in b.jobs
        ]

    def test_different_seed_different_timing(self, fake_curves):
        workload = single_benchmark_workload("bzip2", ALL_STRICT)
        a = QoSSystemSimulator(
            workload,
            curves=fake_curves,
            sim_config=SimulationConfig(seed=1),
        ).run()
        b = QoSSystemSimulator(
            workload,
            curves=fake_curves,
            sim_config=SimulationConfig(seed=2),
        ).run()
        assert a.makespan_seconds != b.makespan_seconds

    def test_equalpart_workload_rejected(self, fake_curves):
        workload = single_benchmark_workload("bzip2", EQUAL_PART)
        with pytest.raises(ValueError, match="EqualPart"):
            QoSSystemSimulator(workload, curves=fake_curves)

    def test_oversized_request_raises(self, fake_curves):
        workload = single_benchmark_workload(
            "bzip2", ALL_STRICT, requested_ways=17
        )
        simulator = QoSSystemSimulator(
            workload, curves=fake_curves, sim_config=SIM
        )
        with pytest.raises(RuntimeError, match="never be admitted"):
            simulator.run()

    def test_request_infeasible_on_an_idle_node_raises(self, fake_curves):
        class HalfDeadline(QoSSystemSimulator):
            """Deadlines half the reservation: nothing can ever fit."""

            def _request_for(self, spec):
                request = super()._request_for(spec)
                return dataclasses.replace(
                    request, deadline_span=request.max_wall_clock / 2
                )

        workload = single_benchmark_workload("bzip2", ALL_STRICT)
        simulator = HalfDeadline(workload, curves=fake_curves, sim_config=SIM)
        with pytest.raises(RuntimeError, match="infeasible even on an idle"):
            simulator.run()

    def test_lac_statistics_populated(self, fake_curves):
        result = run("bzip2", ALL_STRICT, fake_curves)
        assert result.lac_admission_tests >= 10
        assert result.probes >= 10
        assert result.rejections == result.probes - 10


class TestOpportunisticStarvation:
    """Edge case: all four cores pinned to reserved jobs leaves the
    Opportunistic pool with no CPU at all until a core frees."""

    @pytest.fixture(scope="class")
    def result(self, fake_curves):
        from repro.core.config import ModeMixConfig
        from repro.workloads.arrival import DeadlineClass
        from repro.workloads.composer import JobSpec, WorkloadSpec

        strict = ExecutionMode.strict()
        specs = [
            JobSpec(
                benchmark="gobmk",
                mode=strict,
                deadline_class=DeadlineClass.TIGHT,
                requested_ways=4,
            )
            for _ in range(4)
        ] + [
            JobSpec(
                benchmark="bzip2",
                mode=ExecutionMode.opportunistic(),
                deadline_class=DeadlineClass.RELAXED,
                requested_ways=4,
            )
            for _ in range(2)
        ]
        workload = WorkloadSpec(
            name="starve",
            jobs=tuple(specs),
            configuration=ModeMixConfig(name="starve", strict_fraction=1.0),
        )
        return QoSSystemSimulator(
            workload,
            curves=fake_curves,
            sim_config=SimulationConfig(accepted_jobs_target=6),
            record_trace=True,
        ).run()

    def test_everything_completes(self, result):
        assert len(result.jobs) == 6
        assert all(j.state is JobState.COMPLETED for j in result.jobs)

    def test_reserved_jobs_unaffected_by_starving_pool(self, result):
        assert result.deadline_report.hit_rate == 1.0

    def test_opportunistic_jobs_stall_then_run(self, result):
        opportunistic = [
            j
            for j in result.jobs
            if j.requested_mode.kind is ModeKind.OPPORTUNISTIC
        ]
        assert opportunistic
        stalled = [
            s
            for j in opportunistic
            for s in result.trace.segments_for(j.job_id)
            if s.cpu_share == 0.0
        ]
        running = [
            s
            for j in opportunistic
            for s in result.trace.segments_for(j.job_id)
            if s.cpu_share > 0.0
        ]
        assert stalled, "expected a zero-CPU stall while cores were pinned"
        assert running, "expected execution after a core freed"

    def test_opportunistic_jobs_finish_after_strict(self, result):
        strict_end = max(
            j.completion_time
            for j in result.jobs
            if j.requested_mode.kind is ModeKind.STRICT
        )
        opportunistic_end = max(
            j.completion_time
            for j in result.jobs
            if j.requested_mode.kind is ModeKind.OPPORTUNISTIC
        )
        assert opportunistic_end > strict_end - 1e-9


class TestBusSaturationWiring:
    """Footnote 2: stealing must pause while the memory bus saturates.

    A machine with a short miss penalty (30 cycles) lets per-job miss
    throughput climb high enough to saturate the 6.4 GB/s bus; with a
    flat high-miss mcf curve, every Elastic donor's steal check then
    sees ``bus_saturated`` and holds.
    """

    def test_stealing_pauses_at_saturation(self):
        from repro.core.config import HYBRID_2
        from repro.sim.config import MachineConfig
        from repro.workloads.composer import single_benchmark_workload
        from tests.sim.conftest import linear_curve

        curves = {
            # Flat and high: mcf's h2 of 0.06 at a 90% miss rate keeps
            # the bus loaded regardless of allocation.
            "mcf": linear_curve("mcf", 0.060, high=0.92, low=0.90, knee=2),
        }
        machine = MachineConfig(memory_latency=30.0)
        workload = single_benchmark_workload("mcf", HYBRID_2)
        result = QoSSystemSimulator(
            workload,
            curves=curves,
            machine=machine,
            sim_config=SimulationConfig(),
        ).run()
        # The run completes and the guarantee holds...
        assert result.deadline_report.hit_rate == 1.0
        # ...but no ways were ever stolen: the saturated bus vetoed
        # every steal attempt (and with a flat curve, no cancellations
        # occurred either — nothing was ever taken).
        assert result.steal_transfers == 0
        assert result.steal_cancellations == 0

    def test_same_workload_steals_when_bus_is_fast(self):
        from repro.core.config import HYBRID_2
        from repro.sim.config import MachineConfig
        from repro.workloads.composer import single_benchmark_workload
        from tests.sim.conftest import linear_curve

        curves = {
            "mcf": linear_curve("mcf", 0.060, high=0.92, low=0.90, knee=2),
        }
        # A 10x-faster bus never saturates at this load.
        machine = MachineConfig(
            memory_latency=30.0,
            peak_bandwidth_bytes_per_second=64e9,
        )
        workload = single_benchmark_workload("mcf", HYBRID_2)
        result = QoSSystemSimulator(
            workload,
            curves=curves,
            machine=machine,
            sim_config=SimulationConfig(),
        ).run()
        assert result.steal_transfers > 0


class TestPolicySensors:
    def test_rates_by_ways_are_each_jobs_own(self, fake_curves):
        """Every epoch's rate table equals a fresh one for the job's
        benchmark, in a run whose reserved jobs run three benchmarks."""

        class Recording(QoSSystemSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.tables = []

            def _policy_sensors(self, now):
                snapshot = super()._policy_sensors(now)
                for sensor in snapshot.jobs:
                    if sensor.rates_by_ways:
                        benchmark = self._states[sensor.job_id].spec.benchmark
                        self.tables.append((benchmark, sensor.rates_by_ways))
                return snapshot

        machine = MachineConfig()

        def fresh(benchmark):
            cpi_model = get_benchmark(benchmark).cpi_model(
                l2_latency=machine.l2_latency,
                memory_latency=machine.memory_latency,
            )
            curve = fake_curves[benchmark]
            return tuple(
                0.0
                if ways == 0
                else machine.clock_hz / cpi_model.cpi(curve.mpi(ways))
                for ways in range(machine.l2_ways + 1)
            )

        simulator = Recording(
            mixed_workload("Mix-1", ALL_STRICT, seed=0),
            machine=machine,
            curves=fake_curves,
            policy=make_policy("grow-shrink"),
        )
        simulator.run()
        seen = {benchmark for benchmark, _ in simulator.tables}
        assert seen == set(fake_curves)
        for benchmark, table in simulator.tables:
            assert table == fresh(benchmark), benchmark
