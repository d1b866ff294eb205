"""System-level fault injection: determinism, degradation, checkpointing.

These tests pin the acceptance criteria of the fault layer:

- a zero-rate fault config is byte-identical to no fault config;
- the same fault seed reproduces identical timelines, downgrades and
  metrics;
- a displaced Strict job is re-admitted with backoff when capacity
  exists, and walks the Strict → Elastic → Opportunistic ladder when
  it does not;
- budget-bounded runs abort gracefully with a partial report and can
  be checkpointed and resumed to the byte-identical final result.
"""

import pytest

from repro.core.config import (
    ALL_STRICT,
    ALL_STRICT_AUTODOWN,
    HYBRID_1,
    HYBRID_2,
)
from repro.core.job import JobState
from repro.core.modes import ExecutionMode, ModeKind
from repro.faults import (
    FaultConfig,
    InvariantChecker,
    InvariantViolation,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import RUN_EVENT_BUDGET, RUN_WALL_CLOCK_BUDGET, RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.workloads.arrival import DeadlineClass
from repro.workloads.composer import (
    JobSpec,
    WorkloadSpec,
    mixed_workload,
    single_benchmark_workload,
)

SIM = SimulationConfig()

#: Aggressive failures on a saturated node: re-admission cannot fit
#: before the deadlines, so displaced jobs walk the downgrade ladder.
LADDER_FAULTS = FaultConfig(seed=11, core_failure_rate=8.0)


def make_simulator(fake_curves, fault_config=None, configuration=ALL_STRICT):
    workload = single_benchmark_workload("bzip2", configuration)
    return QoSSystemSimulator(
        workload, curves=fake_curves, sim_config=SIM, fault_config=fault_config
    )


def sparse_simulator(fake_curves, fault_config):
    """Two relaxed-deadline jobs on four cores: spare capacity exists."""
    jobs = tuple(
        JobSpec(
            benchmark="bzip2",
            mode=ExecutionMode.strict(),
            deadline_class=DeadlineClass.RELAXED,
            requested_ways=7,
        )
        for _ in range(2)
    )
    workload = WorkloadSpec(name="sparse", jobs=jobs, configuration=ALL_STRICT)
    return QoSSystemSimulator(
        workload,
        curves=fake_curves,
        sim_config=SimulationConfig(accepted_jobs_target=2),
        fault_config=fault_config,
    )


def signature(result):
    """Everything that must be byte-identical across identical runs."""
    return (
        result.makespan_seconds,
        tuple((j.job_id, j.start_time, j.completion_time) for j in result.jobs),
    )


class TestZeroFaultIdentity:
    def test_zero_rates_match_no_fault_config(self, fake_curves):
        baseline = make_simulator(fake_curves, fault_config=None).run()
        zeroed = make_simulator(fake_curves, fault_config=FaultConfig()).run()
        assert signature(zeroed) == signature(baseline)

    def test_zero_rate_resilience_report_is_empty(self, fake_curves):
        result = make_simulator(fake_curves, fault_config=FaultConfig()).run()
        resilience = result.resilience
        assert resilience is not None
        assert resilience.faults_injected == 0
        assert resilience.displacements == 0
        assert resilience.downgrades == ()
        assert result.fault_timeline_digest is None

    def test_no_fault_config_has_no_report(self, fake_curves):
        result = make_simulator(fake_curves).run()
        assert result.resilience is None
        assert not result.partial


class TestFaultDeterminism:
    def test_same_seed_same_everything(self, fake_curves):
        a = make_simulator(fake_curves, fault_config=LADDER_FAULTS).run()
        b = make_simulator(fake_curves, fault_config=LADDER_FAULTS).run()
        assert signature(a) == signature(b)
        assert a.fault_timeline_digest == b.fault_timeline_digest
        assert a.resilience == b.resilience

    def test_different_seed_different_timeline(self, fake_curves):
        a = make_simulator(fake_curves, fault_config=LADDER_FAULTS).run()
        other = FaultConfig(seed=12, core_failure_rate=8.0)
        b = make_simulator(fake_curves, fault_config=other).run()
        assert a.fault_timeline_digest != b.fault_timeline_digest


class TestDegradationLadder:
    @pytest.fixture(scope="class")
    def result(self, fake_curves):
        return make_simulator(fake_curves, fault_config=LADDER_FAULTS).run()

    def test_faults_were_injected(self, result):
        assert result.resilience.faults_injected > 0
        assert result.resilience.fault_counts["core-failure"] > 0

    def test_displacements_happened(self, result):
        assert result.resilience.displacements >= 1
        assert result.resilience.readmission_attempts >= 1

    def test_ladder_is_walked_rung_by_rung(self, result):
        displaced = {r.job_id for r in result.resilience.downgrades}
        assert displaced  # at least one job exhausted its retries
        for job_id in displaced:
            records = result.resilience.downgrades_for(job_id)
            assert records[0].from_mode == "Strict"
            assert records[0].to_mode.startswith("Elastic")
            if len(records) > 1:
                assert records[1].from_mode.startswith("Elastic")
                assert records[1].to_mode == "Opportunistic"

    def test_downgrade_reason_names_the_retry_budget(self, result):
        record = result.resilience.downgrades[0]
        assert "re-admission failed" in record.reason

    def test_every_job_still_completes(self, result):
        assert all(j.state is JobState.COMPLETED for j in result.jobs)

    def test_downgraded_jobs_changed_mode(self, result):
        displaced = {r.job_id for r in result.resilience.downgrades}
        by_id = {j.job_id: j for j in result.jobs}
        for job_id in displaced:
            assert by_id[job_id].current_mode.kind is not ModeKind.STRICT


class TestReadmission:
    def test_displaced_job_is_readmitted_when_capacity_exists(
        self, fake_curves
    ):
        faults = FaultConfig(
            seed=3, core_failure_rate=6.0, core_repair_time=0.08, horizon=0.25
        )
        result = sparse_simulator(fake_curves, faults).run()
        resilience = result.resilience
        assert resilience.displacements >= 1
        assert resilience.readmissions >= 1
        # Re-admission preserved the guarantee: no downgrades needed
        # and both jobs still met their (relaxed) deadlines.
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
        assert result.deadline_report.hit_rate == 1.0


class TestDisplacedJobsLeaveTheTrace:
    """A displaced job holds no core and no ways until it resumes, so
    the Figure 7 trace must show it nowhere in between: at every
    segment boundary of a seeded fault run, the jobs the trace shows
    running fit the node."""

    @pytest.mark.parametrize("mix", ["Mix-1", "Mix-2"])
    @pytest.mark.parametrize(
        "configuration",
        [ALL_STRICT, HYBRID_1, HYBRID_2, ALL_STRICT_AUTODOWN],
        ids=lambda configuration: configuration.name,
    )
    def test_every_breakpoint_fits_the_node(
        self, fake_curves, mix, configuration
    ):
        machine = MachineConfig()
        displacements = 0
        for seed in range(6):
            faults = FaultConfig(
                seed=seed, core_failure_rate=8.0, core_stall_rate=4.0
            )
            result = QoSSystemSimulator(
                mixed_workload(mix, configuration, seed=seed),
                curves=fake_curves,
                fault_config=faults,
            ).run()
            displacements += result.resilience.displacements
            trace = result.trace
            for t in trace.breakpoints():
                assert trace.cores_in_use_at(t) <= machine.num_cores + 1e-9, (
                    f"seed {seed}: {trace.cores_in_use_at(t)} cores at {t}"
                )
                assert trace.ways_in_use_at(t) <= machine.l2_ways, (
                    f"seed {seed}: {trace.ways_in_use_at(t)} ways at {t}"
                )
        assert displacements > 0, "no job was displaced: nothing audited"


class TestOtherFaultKinds:
    def test_bandwidth_brownouts_complete_cleanly(self, fake_curves):
        faults = FaultConfig(seed=5, bandwidth_degradation_rate=4.0)
        result = make_simulator(fake_curves, fault_config=faults).run()
        assert result.resilience.fault_counts.get(
            "bandwidth-degradation", 0
        ) > 0
        assert all(j.state is JobState.COMPLETED for j in result.jobs)

    def test_core_stalls_reach_terminal_states(self, fake_curves):
        faults = FaultConfig(seed=5, core_stall_rate=6.0)
        result = make_simulator(fake_curves, fault_config=faults).run()
        assert result.resilience.fault_counts.get("core-stall", 0) > 0
        # A stalled job keeps its reservation and may overrun it, in
        # which case the §3.2 wall-clock contract terminates it — but
        # nothing hangs or is left mid-flight.
        assert all(
            j.state in (JobState.COMPLETED, JobState.TERMINATED)
            for j in result.jobs
        )
        assert any(j.state is JobState.COMPLETED for j in result.jobs)

    def test_ecc_upsets_complete_cleanly(self, fake_curves):
        faults = FaultConfig(seed=5, ecc_error_rate=8.0)
        result = make_simulator(
            fake_curves, fault_config=faults, configuration=HYBRID_2
        ).run()
        assert result.resilience.fault_counts.get("ecc-tag-error", 0) > 0
        assert all(
            j.state in (JobState.COMPLETED, JobState.REJECTED)
            for j in result.jobs
        )


class TestRunBudgets:
    def test_event_budget_aborts_with_partial_report(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        result = simulator.run(budget=RunBudget(max_events=50))
        assert result.partial
        assert result.abort_reason == RUN_EVENT_BUDGET
        assert result.makespan_seconds >= 0.0

    def test_wall_clock_budget_aborts(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        result = simulator.run(budget=RunBudget(max_wall_seconds=0.0))
        assert result.partial
        assert result.abort_reason == RUN_WALL_CLOCK_BUDGET

    def test_aborted_run_can_simply_continue(self, fake_curves):
        reference = make_simulator(
            fake_curves, fault_config=LADDER_FAULTS
        ).run()
        simulator = make_simulator(fake_curves, fault_config=LADDER_FAULTS)
        partial = simulator.run(budget=RunBudget(max_events=120))
        assert partial.partial
        final = simulator.run()
        assert not final.partial
        assert signature(final) == signature(reference)


class TestCheckpointResume:
    def test_checkpoint_resume_matches_uninterrupted_run(
        self, fake_curves, tmp_path
    ):
        reference = make_simulator(
            fake_curves, fault_config=LADDER_FAULTS
        ).run()

        simulator = make_simulator(fake_curves, fault_config=LADDER_FAULTS)
        partial = simulator.run(budget=RunBudget(max_events=120))
        assert partial.partial
        path = save_checkpoint(
            checkpoint_simulator(simulator), tmp_path / "run.ckpt"
        )

        checkpoint = load_checkpoint(path)
        assert checkpoint.events_fired == 120
        resumed = resume_simulator(checkpoint, curves=fake_curves)
        assert resumed.events.events_fired == 120
        assert resumed.events.now == pytest.approx(simulator.events.now)

        final = resumed.run()
        assert signature(final) == signature(reference)
        assert final.resilience == reference.resilience
        assert final.fault_timeline_digest == reference.fault_timeline_digest

    def test_checkpoint_describe_mentions_progress(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        simulator.run(budget=RunBudget(max_events=10))
        checkpoint = checkpoint_simulator(simulator)
        assert "10 events" in checkpoint.describe()


class TestInvariantChecker:
    def test_healthy_run_passes_and_counts(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=LADDER_FAULTS)
        result = simulator.run()
        assert result.resilience.invariant_checks > 0

    def test_check_passes_on_a_finished_simulator(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        simulator.run()
        checker = InvariantChecker(simulator)
        checker.check()
        assert checker.checks_run == 1

    def test_negative_rate_is_caught(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        simulator.run()
        state = next(iter(simulator._states.values()))
        state.rate = -1.0
        with pytest.raises(InvariantViolation, match="negative rate"):
            InvariantChecker(simulator).check()

    def test_oversubscribed_bus_is_caught(self, fake_curves):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        simulator.run()
        simulator.bandwidth._derate_factors.append(0.0)  # corrupt directly
        with pytest.raises(InvariantViolation, match="effective peak"):
            InvariantChecker(simulator).check()

    def test_maybe_check_respects_cadence(self, fake_curves, monkeypatch):
        simulator = make_simulator(fake_curves, fault_config=FaultConfig())
        simulator.run()
        monkeypatch.setattr(InvariantChecker, "EVERY_N_EVENTS", 10**9)
        checker = InvariantChecker(simulator)
        checker.maybe_check()
        assert checker.checks_run == 0
