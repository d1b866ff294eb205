"""The EqualPart baseline (Table 2, last row).

Mimics Virtual Private Caches without admission control: the L2 is
split equally among the cores (4 ways each on the machine model), every
arriving job is accepted immediately, and a Linux-like scheduler
timeshares jobs round-robin on the least-loaded core.  Jobs still carry
deadlines (assigned exactly as in the QoS configurations) so the
baseline's low deadline hit rates (Figures 5a, 9a) fall out of the
timesharing delay, not out of different workloads.

Bus contention applies to everyone — without a QoS framework there is
no request prioritisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.job import Job, JobState
from repro.core.metrics import (
    DeadlineReport,
    ThroughputReport,
    WallClockSummary,
)
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest
from repro.cpu.cpi import CpiModel
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import EventHandle, EventQueue
from repro.sim.system import SystemResult, _PROGRESS_EPSILON
from repro.sim.tracing import ExecutionTrace
from repro.util.rng import DeterministicRng
from repro.workloads.arrival import DeadlinePolicy
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import JobSpec, WorkloadSpec
from repro.workloads.profiler import MissRatioCurve, get_curve


@dataclass
class _EqualRun:
    job: Job
    spec: JobSpec
    curve: MissRatioCurve
    cpi_model: CpiModel
    core_id: int
    rate: float = 0.0
    progress: float = 0.0
    completion_handle: Optional[EventHandle] = None


class EqualPartSimulator:
    """Simulate a workload with equal partitioning and no admission."""

    def __init__(
        self,
        workload: WorkloadSpec,
        *,
        machine: Optional[MachineConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
        curves: Optional[Dict[str, MissRatioCurve]] = None,
        record_trace: bool = True,
    ) -> None:
        self.workload = workload
        self.machine = machine if machine is not None else MachineConfig()
        self.sim_config = (
            sim_config if sim_config is not None else SimulationConfig()
        )
        self.bandwidth = self.machine.make_bandwidth_model()
        self.events = EventQueue()
        self.trace = ExecutionTrace()
        self.record_trace = record_trace
        self.rng = DeterministicRng(self.sim_config.seed, "equalpart-sim")
        self._curves = dict(curves) if curves else {}
        self._states: Dict[int, _EqualRun] = {}
        self._accepted: List[Job] = []
        self._last_advance = 0.0
        self._finished = False
        # Equal split: every core owns 1/num_cores of the ways.
        self.ways_per_core = self.machine.l2_ways / self.machine.num_cores

    def _curve_for(self, benchmark: str) -> MissRatioCurve:
        if benchmark not in self._curves:
            self._curves[benchmark] = get_curve(
                get_benchmark(benchmark),
                num_sets=self.sim_config.profile_num_sets,
                accesses=self.sim_config.profile_accesses,
            )
        return self._curves[benchmark]

    def _requested_wall_clock(self, spec: JobSpec) -> float:
        """The user's tw expectation — at the *requested* allocation.

        Deadlines are ``ta + multiplier * tw`` exactly as in the QoS
        configurations; the user asked for 7 ways and a core whether or
        not this system can deliver them.
        """
        profile = get_benchmark(spec.benchmark)
        curve = self._curve_for(spec.benchmark)
        cpi = profile.cpi_model(
            l2_latency=self.machine.l2_latency,
            memory_latency=self.machine.memory_latency,
        ).cpi(curve.mpi(spec.requested_ways))
        cycles = self.sim_config.instructions_per_job * cpi
        return self.machine.cycles_to_seconds(cycles)

    # -- main entry -------------------------------------------------------------

    def run(self) -> SystemResult:
        """Admit everything at Poisson arrival instants; run to completion."""
        reference_tw = sum(
            self._requested_wall_clock(spec) for spec in self.workload.jobs
        ) / len(self.workload.jobs)
        mean_gap = reference_tw * self.sim_config.probe_interarrival_fraction
        arrival_rng = self.rng.stream("arrivals")
        now = 0.0
        for index, spec in enumerate(self.workload.jobs):
            self.events.schedule(now, self._make_arrival(spec))
            now += arrival_rng.exponential(mean_gap)
        self.events.run(stop_when=lambda: self._finished)
        if not self._finished:
            raise RuntimeError(
                "event queue drained before the workload completed"
            )
        return self._build_result()

    def _make_arrival(self, spec: JobSpec):
        def arrive(now: float) -> None:
            self._advance_all(now)
            self._admit(spec, now)
            self._recompute(now)

        return arrive

    def _admit(self, spec: JobSpec, now: float) -> None:
        tw = self._requested_wall_clock(spec)
        deadline = now + DeadlinePolicy.multiplier(spec.deadline_class) * tw
        target = QoSTarget(
            resources=ResourceVector(
                cores=spec.requested_cores, cache_ways=spec.requested_ways
            ),
            timeslot=TimeslotRequest(max_wall_clock=tw, deadline=deadline),
            mode=spec.mode,
        )
        job = Job(
            job_id=len(self._accepted) + 1,
            benchmark=spec.benchmark,
            target=target,
            arrival_time=now,
            instructions=self.sim_config.instructions_per_job,
        )
        job.mark_accepted()
        # Linux-like placement: least-loaded core, ties to the lowest id.
        loads = [0] * self.machine.num_cores
        for state in self._states.values():
            if state.job.state is JobState.RUNNING:
                loads[state.core_id] += 1
        core = min(range(self.machine.num_cores), key=lambda c: loads[c])
        job.mark_started(now, core_id=core)
        self._accepted.append(job)
        self._states[job.job_id] = _EqualRun(
            job=job,
            spec=spec,
            curve=self._curve_for(spec.benchmark),
            cpi_model=get_benchmark(spec.benchmark).cpi_model(
                l2_latency=self.machine.l2_latency,
                memory_latency=self.machine.memory_latency,
            ),
            core_id=core,
        )

    # -- progress and rates ----------------------------------------------------------

    def _advance_all(self, now: float) -> None:
        delta = now - self._last_advance
        if delta > 0:
            for state in self._states.values():
                if state.job.state is JobState.RUNNING and state.rate > 0:
                    state.progress += state.rate * delta
        self._last_advance = now

    def _recompute(self, now: float) -> None:
        running = [
            s
            for s in self._states.values()
            if s.job.state is JobState.RUNNING
        ]
        # Linux-like load balancing: runnable jobs migrate so cores stay
        # evenly loaded (an idle core never sits next to a queue).
        running.sort(key=lambda s: s.job.job_id)
        for index, state in enumerate(running):
            state.core_id = index % self.machine.num_cores
            state.job.assigned_core = state.core_id
        per_core: Dict[int, List[_EqualRun]] = {}
        for state in running:
            per_core.setdefault(state.core_id, []).append(state)

        # Aggregate bus load with everyone contending equally.
        transfers_per_cycle = 0.0
        for core, jobs_on_core in per_core.items():
            share = 1.0 / len(jobs_on_core)
            for state in jobs_on_core:
                mpi = state.curve.mpi(self.ways_per_core)
                writeback_factor = 1.0 + get_benchmark(
                    state.spec.benchmark
                ).write_fraction
                transfers_per_cycle += (
                    share * mpi * writeback_factor / state.cpi_model.cpi(mpi)
                )
        multiplier = self.bandwidth.penalty_multiplier(
            transfers_per_cycle, self.machine.memory_latency
        )

        for core, jobs_on_core in per_core.items():
            share = 1.0 / len(jobs_on_core)
            for state in jobs_on_core:
                efficiency = self._timeshare_efficiency(
                    len(jobs_on_core), state
                )
                cpi = state.cpi_model.cpi(
                    state.curve.mpi(self.ways_per_core),
                    miss_penalty_multiplier=multiplier,
                )
                state.rate = share * efficiency * self.machine.clock_hz / cpi
                if self.record_trace:
                    self.trace.update(
                        now,
                        state.job.job_id,
                        mode=state.job.current_mode,
                        ways=int(self.ways_per_core),
                        core_id=core,
                        cpu_share=share,
                    )
                self._reschedule_completion(state, now)

    def _timeshare_efficiency(
        self, jobs_on_core: int, state: _EqualRun
    ) -> float:
        """Useful fraction of a quantum after the cold-cache refill.

        When several jobs timeshare one core they also timeshare its
        fixed L2 slice: each quantum begins by re-fetching whatever of
        the job's resident working set the previous job evicted.  For a
        cache-hungry job that is the whole 4-way slice of the 2 MB L2
        (8192 blocks at the 300-cycle miss latency, ~2.5 M cycles of a
        20 M-cycle Linux timeslice); a streaming job re-fetches almost
        nothing.  This timesharing tax (together with queueing for
        cores) drives EqualPart's low deadline hit rates in
        Figures 5(a)/9(a).
        """
        if jobs_on_core <= 1:
            return 1.0
        profile = get_benchmark(state.spec.benchmark)
        resident_ways = min(self.ways_per_core, profile.hot_footprint_ways)
        refill_cycles = (
            resident_ways
            * self.machine.l2_geometry.num_sets
            * self.machine.memory_latency
        )
        quantum_cycles = self.machine.seconds_to_cycles(
            self.machine.timeslice_seconds
        )
        return max(0.1, 1.0 - refill_cycles / quantum_cycles)

    def _reschedule_completion(self, state: _EqualRun, now: float) -> None:
        if state.completion_handle is not None:
            state.completion_handle.cancel()
            state.completion_handle = None
        remaining = state.job.instructions - state.progress
        if remaining <= _PROGRESS_EPSILON:
            self._complete(state, now)
            return
        if state.rate <= 0:
            return
        state.completion_handle = self.events.schedule(
            now + remaining / state.rate,
            self._make_completion(state.job.job_id),
        )

    def _make_completion(self, job_id: int):
        def complete(now: float) -> None:
            state = self._states[job_id]
            if state.job.state is JobState.COMPLETED:
                return
            self._advance_all(now)
            if state.job.instructions - state.progress > _PROGRESS_EPSILON:
                return
            self._complete(state, now)
            self._recompute(now)

        return complete

    def _complete(self, state: _EqualRun, now: float) -> None:
        state.progress = float(state.job.instructions)
        state.job.executed_instructions = state.job.instructions
        state.job.mark_completed(now)
        if state.completion_handle is not None:
            state.completion_handle.cancel()
        if self.record_trace:
            self.trace.finish(now, state.job.job_id)
        if len(self._accepted) == len(self.workload.jobs) and all(
            s.job.state is JobState.COMPLETED for s in self._states.values()
        ):
            self._finished = True

    # -- results --------------------------------------------------------------------

    def _build_result(self) -> SystemResult:
        jobs = list(self._accepted)
        first_n = min(self.sim_config.accepted_jobs_target, len(jobs))
        throughput = ThroughputReport.from_jobs(jobs, first_n=first_n)
        # EqualPart made (implicit) promises to every job.
        deadline = DeadlineReport.from_jobs(jobs, reserved_modes_only=False)
        return SystemResult(
            workload_name=self.workload.name,
            configuration_name=self.workload.configuration.name,
            jobs=jobs,
            makespan_seconds=throughput.makespan,
            makespan_cycles=self.machine.seconds_to_cycles(
                throughput.makespan
            ),
            throughput=throughput,
            deadline_report=deadline,
            wall_clock=WallClockSummary.from_jobs(jobs),
            trace=self.trace,
            probes=len(jobs),
            rejections=0,
            backfills=0,
            terminations=0,
            steal_transfers=0,
            steal_cancellations=0,
            lac_admission_tests=0,
            lac_candidate_windows=0,
        )
