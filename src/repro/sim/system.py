"""The QoS full-system simulator.

Event-driven reimplementation of the paper's evaluation platform
(Section 6): a stream of jobs probes the Local Admission Controller at
Poisson instants; accepted Strict/Elastic jobs get pinned cores and
reserved cache ways; Opportunistic jobs timeshare the remaining cores
and the unreserved ("spare") cache ways; Elastic jobs donate ways via
the resource-stealing controller; All-Strict+AutoDown runs downgradable
jobs Opportunistically in front of a late-placed reservation.

The queue discipline is the paper's FCFS by default; an EASY-backfill
extension (``SimulationConfig(queue_policy="backfill")``) may admit a
later job while the head is blocked whenever doing so provably cannot
delay the head's earliest possible start.

Timing model
------------
Jobs advance at piecewise-constant rates.  While a job holds ``w`` ways
and a CPU share ``s``, it retires ``s * clock / CPI(mpi(w))``
instructions per second, where ``mpi(w)`` comes from the benchmark's
profiled miss-ratio curve and CPI from Luo's model — the same
decomposition the paper uses to reason about stealing (Section 4.2).

Memory-bus contention inflates the L2 miss penalty of *Opportunistic*
jobs by an M/M/1 queueing factor; reserved jobs' requests are
prioritised on the bus (footnote 2 of the paper), so their ``tm`` stays
uncontended — this is what keeps reserved jobs inside their maximum
wall-clock times, and with it the framework's 100% deadline hit rate.

Resource stealing is fed by a curve-based miss predictor that plays the
role of the duplicate tag arrays: cumulative misses at the actual
allocation versus cumulative misses at the baseline allocation, never
reset — exactly the quantity the shadow tags measure in
:mod:`repro.cache.shadow` (where the microarchitectural mechanism is
implemented and tested for real).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.admission import LocalAdmissionController, Reservation
from repro.core.config import ModeMixConfig
from repro.core.job import Job, JobState
from repro.core.metrics import (
    DeadlineReport,
    DowngradeRecord,
    ResilienceReport,
    ThroughputReport,
    WallClockSummary,
)
from repro.core.modes import ExecutionMode, ModeKind
from repro.core.policy import (
    ActuatorState,
    JobSensor,
    Policy,
    SensorSnapshot,
    SetBusGrant,
    SetWays,
    apply_action,
)
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest
from repro.core.stealing import (
    ResourceStealingController,
    StealingAction,
)
from repro.cpu.cpi import CpiModel
from repro.faults.injector import SystemFaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.model import FaultConfig, FaultEvent, FaultSchedule
from repro.faults.resilience import RetryPolicy, downgrade_mode
from repro.obs import get_observer
from repro.obs.slo import SloMonitor, SloReport
from repro.obs.trace import derive_trace_id
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import (
    RUN_EVENT_BUDGET,
    RUN_WALL_CLOCK_BUDGET,
    EventHandle,
    EventQueue,
    RunBudget,
)
from repro.sim.tracing import ExecutionTrace
from repro.util.rng import DeterministicRng
from repro.workloads.arrival import DeadlinePolicy
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import JobSpec, WorkloadSpec
from repro.workloads.profiler import MissRatioCurve, get_curve

_PROGRESS_EPSILON = 1e-3  # instructions; tolerance for float completion
#: Floor below which resource stealing never shrinks an Elastic job.
STEALING_MIN_WAYS = 1


@dataclass
class _JobRun:
    """Mutable per-job simulation state."""

    job: Job
    spec: JobSpec
    curve: MissRatioCurve
    cpi_model: CpiModel
    tw: float
    reservation: Optional[Reservation] = None
    running: bool = False
    reserved_running: bool = False
    core_id: int = -1
    ways: int = 0
    cpu_share: float = 0.0
    rate: float = 0.0  # instructions per second
    progress: float = 0.0  # instructions retired (float-precision)
    # Adaptive-policy override of the reserved allocation (None: the
    # admission-requested ways).  Only meaningful for reserved strict
    # jobs; cleared on (re-)dispatch and displacement.
    policy_ways: Optional[int] = None
    # Model rate at every way count for the policy's sensors: a pure
    # function of the curve, the CPI model and the clock, so built at
    # the first epoch that reads it.
    rates_by_ways: Tuple[float, ...] = ()
    # Elastic stealing state
    steal: Optional[ResourceStealingController] = None
    actual_misses: float = 0.0
    baseline_misses: float = 0.0
    next_interval_at: float = 0.0  # instruction count of next steal check
    # Event handles
    completion_handle: Optional[EventHandle] = None
    steal_handle: Optional[EventHandle] = None
    # Fault-recovery state
    displaced: bool = False
    retry_attempt: int = 0
    best_effort: bool = False
    # Causal tracing: the job's root span and its current lifecycle
    # segment (queued / exec.* / displaced), both None when
    # observability is off.
    trace_root: Optional[object] = None
    segment_span: Optional[object] = None

    def miss_increase_fraction(self) -> float:
        """Curve-predicted analogue of the shadow-tag comparison."""
        if self.baseline_misses <= 0.0:
            return 0.0
        return max(
            0.0,
            (self.actual_misses - self.baseline_misses) / self.baseline_misses,
        )


@dataclass(frozen=True)
class _JobRequest:
    """A pending job's admission request, less the probe's date.

    Everything here follows from the job's template and the simulator's
    configuration, so it is built once per pending job; a probe only
    dates the deadline (``now + deadline_span``) and builds the
    :class:`Job` the LAC tests.
    """

    spec: JobSpec
    tw: float  # uncontended wall-clock time, or the user's declared limit
    max_wall_clock: float  # tw padded by RESERVATION_MARGIN
    deadline_span: float  # deadline minus arrival
    resources: ResourceVector
    auto_down: bool


@dataclass
class SystemResult:
    """Everything the benches and tests read out of one simulation."""

    workload_name: str
    configuration_name: str
    jobs: List[Job]
    makespan_seconds: float
    makespan_cycles: float
    throughput: ThroughputReport
    deadline_report: DeadlineReport
    wall_clock: WallClockSummary
    trace: ExecutionTrace
    probes: int
    rejections: int
    backfills: int
    terminations: int
    steal_transfers: int
    steal_cancellations: int
    lac_admission_tests: int
    lac_candidate_windows: int
    per_job_ways_history: Dict[int, List[int]] = field(default_factory=dict)
    # Fault-injection surface (defaults keep fault-free construction
    # sites unchanged).  ``partial`` marks a budget-aborted run whose
    # throughput/deadline figures cover only the work done so far.
    partial: bool = False
    abort_reason: Optional[str] = None
    resilience: Optional[ResilienceReport] = None
    fault_timeline_digest: Optional[str] = None
    # In-run QoS/SLO monitoring outcome; populated only when an
    # observer is live (the monitor exists for the run's duration).
    slo: Optional[SloReport] = None
    # Effective adaptive-policy actions committed during the run; 0 for
    # policy-free runs and disabled adaptive policies.
    policy_decisions: int = 0

    def counter_snapshot(self) -> Dict[str, object]:
        """Deterministic flat view of every scalar observable.

        The comparison surface for the differential harness
        (:mod:`repro.verify.differential`): two runs that should be
        equivalent must produce equal snapshots.  Only values that are
        pure functions of the simulation trajectory appear — no wall
        time, no object identities — and per-job fields are keyed by
        job id so mismatches name the job that diverged.  The SLO and
        resilience sections are included only when present, because
        their presence itself is part of the contract under test
        (observer-off runs and fault-free runs omit them).
        """
        snapshot: Dict[str, object] = {
            "workload": self.workload_name,
            "configuration": self.configuration_name,
            "makespan_seconds": self.makespan_seconds,
            "makespan_cycles": self.makespan_cycles,
            "throughput.jobs_measured": self.throughput.jobs_measured,
            "throughput.makespan": self.throughput.makespan,
            "deadline.considered": self.deadline_report.considered,
            "deadline.met": self.deadline_report.met,
            "probes": self.probes,
            "rejections": self.rejections,
            "backfills": self.backfills,
            "terminations": self.terminations,
            "steal_transfers": self.steal_transfers,
            "steal_cancellations": self.steal_cancellations,
            "lac_admission_tests": self.lac_admission_tests,
            "lac_candidate_windows": self.lac_candidate_windows,
            "partial": self.partial,
            "abort_reason": self.abort_reason,
        }
        for job in self.jobs:
            prefix = f"job[{job.job_id}]"
            snapshot[f"{prefix}.benchmark"] = job.benchmark
            snapshot[f"{prefix}.state"] = job.state.value
            snapshot[f"{prefix}.mode"] = job.current_mode.describe()
            snapshot[f"{prefix}.auto_downgraded"] = job.auto_downgraded
            snapshot[f"{prefix}.start_time"] = job.start_time
            snapshot[f"{prefix}.completion_time"] = job.completion_time
            snapshot[f"{prefix}.executed_instructions"] = (
                job.executed_instructions
            )
            snapshot[f"{prefix}.met_deadline"] = job.met_deadline
        for job_id in sorted(self.per_job_ways_history):
            snapshot[f"ways_history[{job_id}]"] = list(
                self.per_job_ways_history[job_id]
            )
        # Present only when an adaptive policy actually acted, so runs
        # without a policy (and runs under disabled adaptive policies)
        # keep a byte-identical snapshot surface.
        if self.policy_decisions:
            snapshot["policy.decisions"] = self.policy_decisions
        if self.resilience is not None:
            res = self.resilience
            snapshot["resilience.faults_injected"] = res.faults_injected
            snapshot["resilience.displacements"] = res.displacements
            snapshot["resilience.readmissions"] = res.readmissions
            snapshot["resilience.readmission_attempts"] = (
                res.readmission_attempts
            )
            snapshot["resilience.downgrade_count"] = res.downgrade_count
            snapshot["resilience.best_effort_jobs"] = res.best_effort_jobs
            snapshot["resilience.deferred_dispatches"] = (
                res.deferred_dispatches
            )
            snapshot["resilience.ecc_cancellations"] = res.ecc_cancellations
            for kind in sorted(res.fault_counts):
                snapshot[f"resilience.faults[{kind}]"] = res.fault_counts[kind]
        if self.fault_timeline_digest is not None:
            snapshot["fault_timeline_digest"] = self.fault_timeline_digest
        if self.slo is not None:
            for slo_job in self.slo.jobs:
                prefix = f"slo[{slo_job.job_id}]"
                snapshot[f"{prefix}.violations"] = slo_job.violations
                snapshot[f"{prefix}.violation_fraction"] = (
                    slo_job.violation_fraction
                )
        return snapshot

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`counter_snapshot`.

        Two equivalent runs (backend pair, jobs pair, zero-rate-faults
        pair modulo the resilience section) hash identically; the hash
        is what ``verify diff`` reports and what fuzz cases pin.
        """
        import hashlib
        import json

        payload = json.dumps(
            self.counter_snapshot(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_artifact(
        self, *, metrics: Optional[List[dict]] = None
    ) -> "ResultArtifact":
        """Distil this result into a persistable, diffable artifact.

        ``metrics`` attaches an observability metrics snapshot
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) captured
        over the run.  Everything in the artifact derives from the
        simulation trajectory alone, so two equivalent runs serialise
        byte-identically.
        """
        hit_rate = self.deadline_report.hit_rate
        return ResultArtifact(
            version=ARTIFACT_VERSION,
            workload=self.workload_name,
            configuration=self.configuration_name,
            counters=self.counter_snapshot(),
            figures_of_merit={
                "deadline_hit_rate": float(hit_rate),
                "makespan_cycles": float(self.makespan_cycles),
                "makespan_seconds": float(self.makespan_seconds),
                "rejections": float(self.rejections),
                "steal_transfers": float(self.steal_transfers),
                "throughput_makespan": float(self.throughput.makespan),
            },
            slo=None
            if self.slo is None
            else [dataclasses.asdict(job) for job in self.slo.jobs],
            metrics=metrics,
        )


#: Schema version of :class:`ResultArtifact`; bumping it orphans every
#: stored artifact (the version participates in the scenario digest).
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class ResultArtifact:
    """The on-disk form of one :class:`SystemResult`.

    What the results store (:class:`repro.analysis.store.ResultStore`)
    persists per sweep point: the full counter snapshot (the
    differential-harness comparison surface), the SLO report, the key
    figures of merit the sweep reports and diffs on, and optionally an
    observability metrics snapshot.  Plain-JSON round-trippable:
    ``from_dict(artifact.to_dict())`` reconstructs an equal artifact,
    and :meth:`counter_fingerprint` of the reconstruction matches the
    original result's :meth:`SystemResult.fingerprint`.
    """

    version: int
    workload: str
    configuration: str
    counters: Dict[str, object]
    figures_of_merit: Dict[str, float]
    slo: Optional[List[Dict[str, object]]]
    metrics: Optional[List[dict]]

    def to_dict(self) -> dict:
        """Plain-data form (stable key order is the caller's concern)."""
        return {
            "version": self.version,
            "workload": self.workload,
            "configuration": self.configuration,
            "counters": dict(self.counters),
            "figures_of_merit": dict(self.figures_of_merit),
            "slo": None if self.slo is None else [dict(j) for j in self.slo],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultArtifact":
        """Rebuild an artifact; raises on any schema mismatch.

        ``ValueError``/``KeyError``/``TypeError`` here make the results
        store quarantine the entry, exactly like unparseable JSON.
        """
        version = payload["version"]
        if version != ARTIFACT_VERSION:
            raise ValueError(
                f"artifact version {version!r} != {ARTIFACT_VERSION}"
            )
        slo = payload["slo"]
        return cls(
            version=int(version),
            workload=str(payload["workload"]),
            configuration=str(payload["configuration"]),
            counters=dict(payload["counters"]),
            figures_of_merit={
                str(key): float(value)
                for key, value in payload["figures_of_merit"].items()
            },
            slo=None if slo is None else [dict(job) for job in slo],
            metrics=payload["metrics"],
        )

    def counter_fingerprint(self) -> str:
        """SHA-256 of the counter snapshot — :meth:`SystemResult.fingerprint`.

        Computed over the *stored* counters, so it doubles as an
        integrity check: an artifact that round-tripped losslessly
        hashes identically to the live result it came from.
        """
        import hashlib
        import json

        payload = json.dumps(
            self.counters,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def slo_report(self) -> Optional[SloReport]:
        """Reconstruct the :class:`~repro.obs.slo.SloReport`, if any."""
        from repro.obs.slo import JobSloSummary

        if self.slo is None:
            return None
        return SloReport(
            jobs=tuple(JobSloSummary(**job) for job in self.slo)
        )


class QoSSystemSimulator:
    """Simulate one workload under one Table 2 QoS configuration.

    Not for EqualPart — that baseline has no admission control and is
    modelled by :class:`repro.sim.equalpart.EqualPartSimulator`.
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        *,
        machine: Optional[MachineConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
        curves: Optional[Dict[str, MissRatioCurve]] = None,
        record_trace: bool = True,
        fault_config: Optional[FaultConfig] = None,
        policy: Optional[Policy] = None,
    ) -> None:
        if workload.configuration.equal_partition:
            raise ValueError(
                "EqualPart workloads run on EqualPartSimulator, not the "
                "QoS simulator"
            )
        self.workload = workload
        self.machine = machine if machine is not None else MachineConfig()
        self.sim_config = (
            sim_config if sim_config is not None else SimulationConfig()
        )
        self.config: ModeMixConfig = workload.configuration
        self.record_trace = record_trace

        self.lac = LocalAdmissionController(
            ResourceVector(
                cores=self.machine.num_cores, cache_ways=self.machine.l2_ways
            )
        )
        self.bandwidth = self.machine.make_bandwidth_model()
        self.events = EventQueue()
        self.trace = ExecutionTrace()
        self.rng = DeterministicRng(self.sim_config.seed, "system-sim")

        self._curves = dict(curves) if curves else {}
        # One request per template job, built by start() (it needs the
        # curves); backfill takes requests out of the middle.
        self._pending: List[_JobRequest] = []
        self._pending_index = 0
        self._states: Dict[int, _JobRun] = {}
        self._accepted: List[Job] = []
        self._reserved_cores: Dict[int, int] = {}  # core_id -> job_id
        self._probes = 0
        self._rejections = 0
        self._backfills = 0
        self._terminations = 0
        self._steal_transfers = 0
        self._ways_history: Dict[int, List[int]] = {}
        self._last_advance = 0.0
        self._finished = False
        self._bus_saturated = False
        # Running jobs as of the last derivation in _recompute, and
        # whether the next call must derive again although it may
        # re-date: set when a job completes or is terminated.
        self._running: List[_JobRun] = []
        self._derive_next = True

        # Closed-loop adaptive policy (None: open-loop, exactly the
        # pre-policy simulator: no decision epoch is ever scheduled).
        self.policy = policy
        self._policy_epoch_seconds = self.machine.cycles_to_seconds(
            self.machine.repartition_interval_instructions
        )
        self._policy_epoch_index = 0
        self._policy_decisions = 0
        self._policy_bus_grant = False
        self._last_bus_utilisation = 0.0
        # (now, reserved_ways, spare_ways) after each epoch's actuation;
        # the capacity-conservation law audits this.
        self._policy_audit: List[Tuple[float, int, int]] = []

        # Fault injection and resilience (all inert when fault_config is
        # None or injects nothing: no events are scheduled, no RNG
        # streams are drawn, and the trajectory is byte-identical to the
        # pre-fault simulator).
        self.fault_config = fault_config
        self._retry_policy = (
            RetryPolicy(
                max_retries=fault_config.max_retries,
                backoff_base=fault_config.backoff_base,
                backoff_factor=fault_config.backoff_factor,
            )
            if fault_config is not None
            else RetryPolicy()
        )
        self._failed_cores: Dict[int, float] = {}  # core -> repair time
        self._stalled_cores: Dict[int, float] = {}  # core -> stall end
        self._fault_log: List[Tuple[float, FaultEvent]] = []
        self._downgrades: List[DowngradeRecord] = []
        self._displacements = 0
        self._readmissions = 0
        self._readmission_attempts = 0
        self._deferred_dispatches = 0
        self._ecc_cancellations = 0
        self._fault_schedule: Optional[FaultSchedule] = None
        self._injector: Optional[SystemFaultInjector] = None
        self._invariants: Optional[InvariantChecker] = None
        self._started = False
        self._abort_reason: Optional[str] = None
        self._slo: Optional[SloMonitor] = None

    # -- curve and timing helpers -------------------------------------------------

    def _curve_for(self, benchmark: str) -> MissRatioCurve:
        if benchmark not in self._curves:
            self._curves[benchmark] = get_curve(
                get_benchmark(benchmark),
                num_sets=self.sim_config.profile_num_sets,
                accesses=self.sim_config.profile_accesses,
            )
        return self._curves[benchmark]

    def _wall_clock_at(
        self, spec: JobSpec, ways: float, *, penalty_multiplier: float = 1.0
    ) -> float:
        """Uncontended execution time (seconds) at a fixed allocation."""
        profile = get_benchmark(spec.benchmark)
        curve = self._curve_for(spec.benchmark)
        cpi = profile.cpi_model(
            l2_latency=self.machine.l2_latency,
            memory_latency=self.machine.memory_latency,
        ).cpi(curve.mpi(ways), miss_penalty_multiplier=penalty_multiplier)
        cycles = self.sim_config.instructions_per_job * cpi
        return self.machine.cycles_to_seconds(cycles)

    def _mean_probe_gap(self) -> float:
        reference_tw = sum(
            self._wall_clock_at(spec, spec.requested_ways)
            for spec in self.workload.jobs
        ) / len(self.workload.jobs)
        return reference_tw * self.sim_config.probe_interarrival_fraction

    # -- main entry ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether every job has reached a terminal state."""
        return self._finished

    def _estimate_fault_horizon(self) -> float:
        """Fault-process horizon when the config leaves it unset.

        Twice the serialised runtime of the whole workload — a
        deterministic over-estimate of the makespan, so the fault
        process covers the entire run.  Events past completion simply
        never fire.
        """
        reference_tw = (
            self._mean_gap / self.sim_config.probe_interarrival_fraction
        )
        return 2.0 * reference_tw * (len(self.workload.jobs) + 1)

    def start(self) -> None:
        """Schedule the initial events (idempotent).

        Split out of :meth:`run` so checkpoint replay and budget-limited
        runs can drive the event queue directly.
        """
        if self._started:
            return
        self._started = True
        if get_observer().enabled:
            # The monitor itself is pure state; the simulator drives it
            # and owns all event emission, so runs without an observer
            # skip the projection work entirely.
            self._slo = SloMonitor()
        self._mean_gap = self._mean_probe_gap()
        self._pending = [
            self._request_for(spec) for spec in self.workload.jobs
        ]
        self._probe_rng = self.rng.stream("probes")
        self.events.schedule(0.0, self._on_probe)
        if self.policy is not None:
            self.policy.reset()
            self.events.schedule(
                self._policy_epoch_seconds, self._on_policy_epoch
            )
        if self.fault_config is not None:
            if self.fault_config.has_any_faults:
                horizon = self.fault_config.horizon
                if horizon is None:
                    horizon = self._estimate_fault_horizon()
                self._fault_schedule = FaultSchedule.generate(
                    self.fault_config,
                    horizon=horizon,
                    num_cores=self.machine.num_cores,
                )
                self._injector = SystemFaultInjector(
                    self, self._fault_schedule
                )
                self._injector.arm()
            if self.fault_config.invariant_check_interval > 0:
                self._invariants = InvariantChecker(
                    self,
                    every_n_events=self.fault_config.invariant_check_interval,
                )

    def run(self, *, budget: Optional[RunBudget] = None) -> SystemResult:
        """Run to completion of all template jobs and build the result.

        With a :class:`~repro.sim.engine.RunBudget`, exhausting the
        budget aborts gracefully: the returned result is marked
        ``partial`` (with ``abort_reason``) and covers the work done so
        far, and the simulator can be checkpointed via
        :func:`repro.faults.checkpoint.checkpoint_simulator` or simply
        :meth:`run` again to continue.
        """
        self.start()
        outcome = self.events.run(
            stop_when=lambda: self._finished, budget=budget
        )
        if not self._finished:
            if outcome in (RUN_EVENT_BUDGET, RUN_WALL_CLOCK_BUDGET):
                self._abort_reason = outcome
                return self._build_result(partial=True)
            raise RuntimeError(
                "event queue drained before the workload completed; "
                "simulation deadlocked"
            )
        return self._build_result()

    # -- probing and admission ----------------------------------------------------------

    def _on_probe(self, now: float) -> None:
        self._advance_all(now)
        if self._pending_index < len(self._pending):
            self._probes += 1
            request = self._pending[self._pending_index]
            admitted = self._try_admit(request, now)
            if admitted:
                self._pending_index += 1
            else:
                self._rejections += 1
                if self.sim_config.queue_policy == "backfill":
                    admitted = self._try_backfill(now)
            # A probe that admitted nothing changed no allocation.
            self._recompute(now, redate=not admitted)
        if self._pending_index < len(self._pending):
            gap = self._probe_rng.exponential(self._mean_gap)
            self.events.schedule(now + gap, self._on_probe)

    def _try_backfill(self, now: float) -> bool:
        """EASY backfill: admit a later job that cannot delay the head.

        An extension over the paper's plain FCFS LAC (enabled with
        ``SimulationConfig(queue_policy="backfill")``): when the head of
        the queue does not fit yet, later pending jobs may be admitted
        as long as the head's earliest *unconstrained* start does not
        move — the classic EASY-backfilling criterion from batch
        scheduling, whose vocabulary (Section 3.2) the paper borrows.
        Returns whether a job was admitted.
        """
        head = self._pending[self._pending_index]
        head_duration = head.spec.mode.reservation_duration(
            head.max_wall_clock
        )
        if head_duration <= 0:
            return False  # an Opportunistic head is never blocked
        head_before = self.lac.earliest_fit(
            head.resources, head_duration, not_before=now
        )

        index = self._pending_index + 1
        while index < len(self._pending):
            request = self._pending[index]
            job = self._probe_job(request, now)
            decision = self.lac.admit(
                job, now=now, auto_downgrade=request.auto_down
            )
            if not decision.accepted:
                index += 1
                continue
            head_after = self.lac.earliest_fit(
                head.resources, head_duration, not_before=now
            )
            delays_head = (
                head_before is not None
                and (head_after is None or head_after > head_before + 1e-12)
            )
            if delays_head:
                if decision.reservation is not None:
                    self.lac.cancel(decision.reservation)
                index += 1
                continue
            self._backfills += 1
            self._register_accepted(job, request, decision, now)
            del self._pending[index]
            # Only one backfill per probe: keep the schedule close to
            # FCFS and re-evaluate the head at the next probe.
            return True
        return False

    # Reservations are padded by this relative margin so a job completing
    # at exactly its maximum wall-clock time finishes strictly inside its
    # slot — otherwise the next job's dispatch event (scheduled at the
    # slot boundary) can fire before this job's completion event at the
    # same simulated instant and transiently oversubscribe the cache.
    RESERVATION_MARGIN = 1e-6

    def _request_for(self, spec: JobSpec) -> _JobRequest:
        """The probe-invariant admission request of template job ``spec``."""
        if spec.max_wall_clock is not None:
            # The user declared their own limit (the batch-system way);
            # overruns are terminated at the reservation boundary.
            tw = spec.max_wall_clock
        else:
            tw = self._wall_clock_at(spec, spec.requested_ways)
        max_wall_clock = tw * (1.0 + self.RESERVATION_MARGIN)
        # Deadline classes scale the *mode-adjusted* completion promise:
        # an Elastic(X) user accepted an up-to-X% stretch, so their
        # "tight" deadline is 1.05x the stretched duration — otherwise
        # Elastic-with-tight-deadline could never be admitted at all.
        promised = spec.mode.reservation_duration(max_wall_clock)
        if promised <= 0.0:  # Opportunistic: no reservation to scale
            promised = max_wall_clock
        multiplier = DeadlinePolicy.multiplier(spec.deadline_class)
        return _JobRequest(
            spec=spec,
            tw=tw,
            max_wall_clock=max_wall_clock,
            deadline_span=multiplier * promised,
            resources=ResourceVector(
                cores=spec.requested_cores, cache_ways=spec.requested_ways
            ),
            auto_down=(
                self.config.auto_downgrade
                and spec.mode.kind is ModeKind.STRICT
                and DeadlinePolicy.is_auto_downgradable(spec.deadline_class)
            ),
        )

    def _probe_job(self, request: _JobRequest, now: float) -> Job:
        """The :class:`Job` ``request`` puts to the LAC when probing at ``now``.

        Nothing is registered yet.
        """
        return Job(
            job_id=len(self._accepted) + 1,
            benchmark=request.spec.benchmark,
            target=QoSTarget(
                resources=request.resources,
                timeslot=TimeslotRequest(
                    max_wall_clock=request.max_wall_clock,
                    deadline=now + request.deadline_span,
                ),
                mode=request.spec.mode,
            ),
            arrival_time=now,
            instructions=self.sim_config.instructions_per_job,
        )

    def _try_admit(self, request: _JobRequest, now: float) -> bool:
        spec = request.spec
        job = self._probe_job(request, now)
        decision = self.lac.admit(
            job, now=now, auto_downgrade=request.auto_down
        )
        obs = get_observer()
        if obs.enabled and not decision.accepted:
            obs.metrics.counter("sim.admission.rejected").inc()
            obs.events.emit(
                "admission",
                now,
                job_id=job.job_id,
                benchmark=spec.benchmark,
                mode=spec.mode.describe(),
                accepted=False,
                reason=decision.reason,
            )
        if not decision.accepted:
            if not request.resources.fits_within(self.lac.capacity):
                raise RuntimeError(
                    f"job requests {request.resources}, beyond node "
                    f"capacity; it can never be admitted"
                )
            if not self.lac.booked_from(now):
                # Nothing is booked now or in the future, yet the job
                # still does not fit before its deadline: it never will.
                raise RuntimeError(
                    f"job ({spec.benchmark}, {spec.mode.describe()}, "
                    f"{spec.deadline_class.value}) is infeasible even on "
                    "an idle node; the workload cannot complete"
                )
            return False
        self._register_accepted(job, request, decision, now)
        return True

    def _register_accepted(
        self, job: Job, request: _JobRequest, decision, now: float
    ) -> None:
        """Post-acceptance registration: state, dispatch, downgrade."""
        spec = request.spec
        auto_down = request.auto_down
        job.mark_accepted()
        self._accepted.append(job)
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("sim.admission.accepted").inc()
            obs.events.emit(
                "admission",
                now,
                job_id=job.job_id,
                benchmark=spec.benchmark,
                mode=spec.mode.describe(),
                accepted=True,
                auto_downgrade=auto_down,
                reserved_start=(
                    decision.reservation.start
                    if decision.reservation is not None
                    else None
                ),
            )
        state = _JobRun(
            job=job,
            spec=spec,
            curve=self._curve_for(spec.benchmark),
            cpi_model=get_benchmark(spec.benchmark).cpi_model(
                l2_latency=self.machine.l2_latency,
                memory_latency=self.machine.memory_latency,
            ),
            tw=request.tw,
            reservation=decision.reservation,
        )
        self._states[job.job_id] = state
        self._ways_history[job.job_id] = []
        if obs.enabled:
            # Trace id derives from (workload, configuration, job id) —
            # the same job gets the same id in every run, making traces
            # diffable across runs and mergeable across workers.
            trace_id = derive_trace_id(
                "job", self.workload.name, self.config.name, job.job_id
            )
            state.trace_root = obs.trace.start_span(
                trace_id,
                "job",
                now,
                job=job.job_id,
                benchmark=spec.benchmark,
                mode=spec.mode.describe(),
            )
        if self._slo is not None and job.deadline is not None:
            self._slo.register(
                job.job_id,
                deadline=job.deadline,
                instructions=float(job.instructions),
                now=now,
            )

        if spec.mode.kind is ModeKind.OPPORTUNISTIC:
            self._start_opportunistic(state, now)
        elif decision.reservation is not None:
            start = decision.reservation.start
            if auto_down and start > now:
                # Automatic downgrade: run Opportunistically in front of
                # the late-placed reservation (Section 3.4).
                job.auto_downgraded = True
                job.switch_back_time = start
                self._start_opportunistic(state, now)
                job.change_mode(now, ExecutionMode.opportunistic())
                if obs.enabled:
                    obs.metrics.counter("sim.auto_downgrades").inc()
                    obs.events.emit(
                        "auto_downgrade",
                        now,
                        job_id=job.job_id,
                        switch_back_at=start,
                    )
                self.events.schedule(
                    start, self._make_switch_back(job.job_id)
                )
            elif start <= now + 1e-12:
                self._dispatch_reserved(state, now)
            else:
                self._trace_segment(state, "queued", now)
                self.events.schedule(
                    start, self._make_reserved_dispatch(job.job_id)
                )

    # -- causal tracing -----------------------------------------------------------------

    def _trace_segment(self, state: _JobRun, name: str, now: float) -> None:
        """Close the job's current lifecycle segment and open ``name``.

        Segments (``queued``, ``exec.opportunistic``, ``exec.reserved``,
        ``displaced``) are children of the job's root span; contiguous
        and non-overlapping, so the root's breakdown decomposes the
        job's end-to-end latency by cause.
        """
        obs = get_observer()
        if not obs.enabled or state.trace_root is None:
            return
        if state.segment_span is not None and state.segment_span.end is None:
            obs.trace.end_span(state.segment_span, now)
        state.segment_span = obs.trace.start_span(
            state.trace_root.trace_id, name, now, parent=state.trace_root
        )

    def _trace_finish(self, state: _JobRun, now: float, status: str) -> None:
        """Close the job's open segment and root span at a terminal event."""
        obs = get_observer()
        if not obs.enabled or state.trace_root is None:
            return
        if state.segment_span is not None and state.segment_span.end is None:
            obs.trace.end_span(state.segment_span, now)
        state.segment_span = None
        if state.trace_root.end is None:
            obs.trace.end_span(state.trace_root, now, status=status)
        state.trace_root = None

    # -- dispatch -----------------------------------------------------------------------

    def _start_opportunistic(self, state: _JobRun, now: float) -> None:
        state.running = True
        state.reserved_running = False
        state.job.mark_started(now, core_id=-1)
        self._trace_segment(state, "exec.opportunistic", now)

    def _make_reserved_dispatch(self, job_id: int):
        def dispatch(now: float) -> None:
            state = self._states[job_id]
            if state.job.state is JobState.COMPLETED:
                return
            self._advance_all(now)
            self._dispatch_reserved(state, now)
            self._recompute(now)

        return dispatch

    def _make_switch_back(self, job_id: int):
        def switch_back(now: float) -> None:
            state = self._states[job_id]
            if state.job.state is JobState.COMPLETED:
                return
            self._advance_all(now)
            # The reserved timeslot begins: resume Strict execution on a
            # pinned core (Section 3.4's switch-back arrow in Figure 7b).
            state.job.change_mode(now, ExecutionMode.strict())
            obs = get_observer()
            if obs.enabled:
                obs.metrics.counter("sim.switch_backs").inc()
                obs.events.emit("switch_back", now, job_id=job_id)
            self._dispatch_reserved(state, now)
            self._recompute(now)

        return switch_back

    def _make_wall_clock_check(self, job_id: int, reservation_id: int):
        def check(now: float) -> None:
            state = self._states[job_id]
            if state.job.state is not JobState.RUNNING:
                return
            if not state.reserved_running:
                return
            if (
                state.reservation is None
                or state.reservation.reservation_id != reservation_id
            ):
                # Stale check from a reservation lost to a core fault;
                # the re-admitted reservation scheduled its own check.
                return
            self._advance_all(now)
            if state.job.instructions - state.progress <= _PROGRESS_EPSILON:
                return  # the completion event at this instant will land
            self._terminate(state, now)
            self._recompute(now)

        return check

    def _terminate(self, state: _JobRun, now: float) -> None:
        """Kill a reserved job that overran its wall-clock limit (§3.2)."""
        state.job.mark_terminated(now)
        state.running = False
        state.rate = 0.0
        self._derive_next = True
        if state.completion_handle is not None:
            state.completion_handle.cancel()
        if state.steal_handle is not None:
            state.steal_handle.cancel()
        for core, job_id in list(self._reserved_cores.items()):
            if job_id == state.job.job_id:
                del self._reserved_cores[core]
        state.reserved_running = False
        if state.reservation is not None:
            self.lac.release(state.reservation, at_time=now)
        if self.record_trace:
            self.trace.finish(now, state.job.job_id)
        self._terminations += 1
        self._trace_finish(state, now, "terminated")
        if self._slo is not None:
            self._slo.finish(now, state.job.job_id, met_deadline=False)
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("sim.jobs.terminated").inc()
            obs.events.emit(
                "job_terminate",
                now,
                job_id=state.job.job_id,
                progress=state.progress,
            )
        if all(
            s.job.state in (JobState.COMPLETED, JobState.TERMINATED)
            for s in self._states.values()
        ) and self._pending_index >= len(self._pending):
            self._finished = True

    def _dispatch_reserved(self, state: _JobRun, now: float) -> None:
        # A reservation ending at ``now`` releases its ways before one
        # starting at ``now`` is dispatched: an overrunning job (stalled
        # core, displacement) whose wall-clock check has not fired yet
        # at this instant is terminated first (Section 3.2).
        for other in self._states.values():
            if (
                other is not state
                and other.reserved_running
                and other.reservation is not None
                and other.reservation.end <= now
                and other.job.instructions - other.progress
                > _PROGRESS_EPSILON
            ):
                self._terminate(other, now)
        free_cores = [
            core
            for core in range(self.machine.num_cores)
            if core not in self._reserved_cores
            and core not in self._failed_cores
        ]
        if not free_cores:
            if self._failed_cores:
                # Every unreserved core is down: hold the dispatch until
                # the earliest repair instead of declaring the LAC
                # broken — the LAC booked against nominal capacity and
                # cannot see hardware faults.
                self._deferred_dispatches += 1
                retry_at = max(now, min(self._failed_cores.values())) + 1e-9
                self.events.schedule(
                    retry_at, self._make_reserved_dispatch(state.job.job_id)
                )
                return
            raise RuntimeError(
                f"no free core for reserved job {state.job.job_id}; the "
                "LAC over-admitted cores"
            )
        core = free_cores[0]
        self._reserved_cores[core] = state.job.job_id
        state.core_id = core
        state.reserved_running = True
        state.policy_ways = None
        self._trace_segment(state, "exec.reserved", now)
        if not state.running:
            state.running = True
            if state.job.state is JobState.ACCEPTED:
                state.job.mark_started(now, core_id=core)
            else:
                # Re-admitted after displacement: already RUNNING.
                state.job.assigned_core = core
        else:
            state.job.assigned_core = core

        if (
            state.reservation is not None
            and state.reservation.end != float("inf")
        ):
            self.events.schedule(
                max(now, state.reservation.end),
                self._make_wall_clock_check(
                    state.job.job_id, state.reservation.reservation_id
                ),
            )

        mode = state.spec.mode
        if mode.kind is ModeKind.ELASTIC:
            state.steal = ResourceStealingController(
                slack=mode.slack,
                baseline_ways=state.spec.requested_ways,
                min_ways=STEALING_MIN_WAYS,
                interval_instructions=(
                    self.machine.repartition_interval_instructions
                ),
            )
            state.next_interval_at = (
                state.progress
                + self.machine.repartition_interval_instructions
            )

    # -- progress accounting ---------------------------------------------------------------

    def _advance_all(self, now: float) -> None:
        delta = now - self._last_advance
        if delta <= 0:
            self._last_advance = now
            return
        for state in self._states.values():
            if not state.running or state.rate <= 0.0:
                continue
            instructions = state.rate * delta
            state.progress += instructions
            mpi_actual = state.curve.mpi(state.ways)
            state.actual_misses += instructions * mpi_actual
            if state.steal is not None:
                state.baseline_misses += instructions * state.curve.mpi(
                    state.steal.baseline_ways
                )
        self._last_advance = now

    # -- allocation & rate recomputation ------------------------------------------------------

    def _recompute(self, now: float, *, redate: bool = False) -> None:
        """Re-derive allocations, bus contention, rates, and events.

        ``redate`` marks a call after which no allocation can have
        changed (a probe that admitted nothing).  Unless a job completed
        or was terminated since the last derivation, the derived
        allocations, bus load, rates and trace segments then still hold,
        and only each running job's history entry, completion and steal
        events are re-dated (DESIGN.md §7.5).
        """
        derive = not redate or self._derive_next
        if derive:
            # Cleared first: a completion inside the loop below sets it.
            self._derive_next = False
            running = [s for s in self._states.values() if s.running]
            self._running = running
            opp_multiplier = self._derive_allocations(running)
        else:
            running = self._running
        obs = get_observer()
        if obs.enabled and self._bus_saturated:
            obs.metrics.counter("mem.bus.saturated_intervals").inc()

        # Rates, trace, and event rescheduling.
        for state in running:
            if derive:
                multiplier = (
                    1.0 if state.reserved_running else opp_multiplier
                )
                if state.cpu_share <= 0.0:
                    state.rate = 0.0
                else:
                    cpi = state.cpi_model.cpi(
                        state.curve.mpi(state.ways),
                        miss_penalty_multiplier=multiplier,
                    )
                    state.rate = (
                        state.cpu_share * self.machine.clock_hz / cpi
                    )
                if self.record_trace:
                    self.trace.update(
                        now,
                        state.job.job_id,
                        mode=state.job.current_mode,
                        ways=state.ways,
                        core_id=state.core_id,
                        cpu_share=state.cpu_share,
                    )
            self._ways_history[state.job.job_id].append(state.ways)
            self._reschedule_completion(state, now)
            self._reschedule_steal(state, now)

        # SLO projection pass: rates are final for this interval, so
        # project every monitored in-flight job (including displaced
        # jobs, whose zero rate projects to infinity — violating until
        # resources return).  States iterate in admission order, so the
        # emitted transition events are deterministic.
        if self._slo is not None:
            for state in self._states.values():
                if state.job.state is not JobState.RUNNING:
                    continue
                transition = self._slo.observe(
                    now,
                    state.job.job_id,
                    progress=state.progress,
                    rate=state.rate,
                )
                if transition is not None:
                    obs.events.emit(
                        "slo." + transition,
                        now,
                        job_id=state.job.job_id,
                        deadline=state.job.deadline,
                    )

        if self._invariants is not None:
            self._invariants.maybe_check()

    def _derive_allocations(self, running: List[_JobRun]) -> float:
        """Ways, CPU shares and bus load of the running jobs.

        Returns the miss-penalty multiplier Opportunistic jobs pay for
        bus contention.
        """
        reserved = [s for s in running if s.reserved_running]
        opportunistic = [s for s in running if not s.reserved_running]

        # Reserved jobs: pinned core, own (possibly stealing-reduced) ways.
        # A reserved job on a stalled core keeps its reservation but
        # retires nothing until the stall ends (it may then overrun).
        reserved_ways_total = 0
        for state in reserved:
            state.cpu_share = (
                0.0 if state.core_id in self._stalled_cores else 1.0
            )
            if state.steal is not None:
                state.ways = state.steal.current_ways
            elif state.policy_ways is not None:
                state.ways = state.policy_ways
            else:
                state.ways = state.spec.requested_ways
            reserved_ways_total += state.ways

        # Opportunistic pool: round-robin over unreserved healthy cores,
        # sharing the spare ways (unreserved + stolen).
        free_cores = [
            core
            for core in range(self.machine.num_cores)
            if core not in self._reserved_cores
            and core not in self._failed_cores
            and core not in self._stalled_cores
        ]
        spare_ways = self.machine.l2_ways - reserved_ways_total
        if spare_ways < 0:
            raise AssertionError(
                f"cache oversubscribed: {reserved_ways_total} reserved ways "
                f"in a {self.machine.l2_ways}-way L2"
            )
        if opportunistic and free_cores:
            opportunistic.sort(key=lambda s: s.job.job_id)
            used_cores = min(len(free_cores), len(opportunistic))
            core_jobs: Dict[int, List[_JobRun]] = {
                free_cores[i]: [] for i in range(used_cores)
            }
            for index, state in enumerate(opportunistic):
                core = free_cores[index % used_cores]
                core_jobs[core].append(state)
            share_ways, remainder = divmod(spare_ways, used_cores)
            for slot, (core, jobs_on_core) in enumerate(
                sorted(core_jobs.items())
            ):
                core_ways = share_ways + (1 if slot < remainder else 0)
                for state in jobs_on_core:
                    state.core_id = core
                    state.job.assigned_core = core
                    state.cpu_share = 1.0 / len(jobs_on_core)
                    state.ways = core_ways
        else:
            for state in opportunistic:
                state.cpu_share = 0.0
                state.ways = 0
                state.core_id = -1

        # Memory-bus contention: reserved jobs' requests are prioritised
        # (footnote 2), so only Opportunistic jobs see queueing delay.
        transfers_per_cycle = 0.0
        for state in running:
            if state.cpu_share <= 0.0:
                continue
            mpi = state.curve.mpi(state.ways)
            cpi = state.cpi_model.cpi(mpi)
            # Each miss moves a fill block plus, for the dirty fraction,
            # a write-back block.
            writeback_factor = 1.0 + get_benchmark(
                state.spec.benchmark
            ).write_fraction
            transfers_per_cycle += (
                state.cpu_share * mpi * writeback_factor / cpi
            )
        bus = self.bandwidth.breakdown(
            transfers_per_cycle, self.machine.memory_latency
        )
        opp_multiplier = bus["penalty_multiplier"]
        self._bus_saturated = bus["saturated"]
        self._last_bus_utilisation = bus["utilisation"]
        # An active bandwidth-steal grant hands opportunistic traffic
        # the idle bus: no queueing penalty.  Reserved jobs were never
        # penalised, and utilisation is computed from base CPI, so the
        # grant cannot feed back into the sensor.
        if self._policy_bus_grant:
            opp_multiplier = 1.0
        obs = get_observer()
        if obs.enabled:
            obs.metrics.gauge("mem.bus.penalty_multiplier").set(
                opp_multiplier
            )
            obs.metrics.gauge("mem.bus.utilisation").set(bus["utilisation"])
            obs.metrics.gauge("mem.bus.queueing_delay_cycles").set(
                bus["queueing_delay_cycles"]
            )
        return opp_multiplier

    # -- adaptive policy epochs -------------------------------------------------

    @property
    def policy_audit(self) -> List[Tuple[float, int, int]]:
        """(now, reserved_ways, spare_ways) after each decision epoch."""
        return list(self._policy_audit)

    def _policy_sensors(self, now: float) -> SensorSnapshot:
        """Pure sensor read: no simulation state is mutated.

        Progress is projected locally from the piecewise-constant rates
        (``progress + rate * (now - last_advance)``) instead of calling
        ``_advance_all``, so an epoch whose decision is empty leaves the
        trajectory byte-identical to a run without the policy.  A job's
        ``rates_by_ways`` is built at its first read and memoised.
        """
        elapsed = max(0.0, now - self._last_advance)
        jobs: List[JobSensor] = []
        reserved_ways_total = 0
        for job_id in sorted(self._states):
            state = self._states[job_id]
            if not state.running or state.job.state is not JobState.RUNNING:
                continue
            if state.reserved_running:
                reserved_ways_total += state.ways
            progress = state.progress
            if state.rate > 0.0 and elapsed > 0.0:
                progress = min(
                    progress + state.rate * elapsed,
                    float(state.job.instructions),
                )
            remaining = state.job.instructions - progress
            if remaining <= _PROGRESS_EPSILON:
                projected = now
            elif state.rate > 0.0:
                projected = now + remaining / state.rate
            else:
                projected = math.inf
            rates_by_ways: Tuple[float, ...] = ()
            if state.reserved_running and state.steal is None:
                if not state.rates_by_ways:
                    state.rates_by_ways = tuple(
                        0.0
                        if ways == 0
                        else self.machine.clock_hz
                        / state.cpi_model.cpi(state.curve.mpi(ways))
                        for ways in range(self.machine.l2_ways + 1)
                    )
                rates_by_ways = state.rates_by_ways
            reservation_end: Optional[float] = None
            if (
                state.reservation is not None
                and state.reservation.end != math.inf
            ):
                reservation_end = state.reservation.end
            jobs.append(
                JobSensor(
                    job_id=job_id,
                    mode=state.job.current_mode.kind.value,
                    reserved=state.reserved_running,
                    elastic=state.steal is not None,
                    ways=state.ways,
                    requested_ways=state.spec.requested_ways,
                    progress=progress,
                    instructions=state.job.instructions,
                    rate=state.rate,
                    deadline=state.job.deadline,
                    reservation_end=reservation_end,
                    projected_finish=projected,
                    miss_increase_fraction=state.miss_increase_fraction(),
                    rates_by_ways=rates_by_ways,
                )
            )
        return SensorSnapshot(
            now=now,
            epoch_index=self._policy_epoch_index,
            l2_ways=self.machine.l2_ways,
            reserved_ways=reserved_ways_total,
            spare_ways=self.machine.l2_ways - reserved_ways_total,
            bus_utilisation=self._last_bus_utilisation,
            bus_saturated=self._bus_saturated,
            bus_granted=self._policy_bus_grant,
            jobs=tuple(jobs),
        )

    def _policy_actuator_view(self) -> ActuatorState:
        """Shadow of the actuatable state, for effectiveness filtering.

        Every reserved job counts toward the capacity total, but only
        reserved strict jobs (no stealing controller) accept ``SetWays``
        — elastic allocations are owned by their stealing controllers.
        Targets are capped at the admission-requested ways, which is
        what the LAC booked, so policy growth can never oversubscribe.
        """
        ways: Dict[int, int] = {}
        caps: Dict[int, int] = {}
        locked = set()
        for job_id, state in self._states.items():
            if not state.running or not state.reserved_running:
                continue
            ways[job_id] = state.ways
            caps[job_id] = state.spec.requested_ways
            if state.steal is not None:
                locked.add(job_id)
        return ActuatorState(
            total_ways=self.machine.l2_ways,
            ways=ways,
            caps=caps,
            locked=frozenset(locked),
            bus_granted=self._policy_bus_grant,
        )

    def _on_policy_epoch(self, now: float) -> None:
        if self._finished or self.policy is None:
            return
        snapshot = self._policy_sensors(now)
        actions = self.policy.decide(snapshot)
        view = self._policy_actuator_view()
        effective = [a for a in actions if apply_action(view, a)]
        self._policy_epoch_index += 1
        self._policy_audit.append((now, view.reserved_total(), view.spare()))
        if effective:
            self._advance_all(now)
            obs = get_observer()
            for action in effective:
                self._commit_policy_action(action)
                self._policy_decisions += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "sim.policy.decisions", policy=self.policy.name
                    ).inc()
                    obs.events.emit(
                        "policy.decision",
                        now,
                        policy=self.policy.name,
                        **action.describe(),
                    )
            self._recompute(now)
        self.events.schedule(
            now + self._policy_epoch_seconds, self._on_policy_epoch
        )

    def _commit_policy_action(self, action) -> None:
        if isinstance(action, SetWays):
            self._states[action.job_id].policy_ways = action.ways
        elif isinstance(action, SetBusGrant):
            self._policy_bus_grant = action.granted

    def _reschedule_completion(self, state: _JobRun, now: float) -> None:
        if state.completion_handle is not None:
            state.completion_handle.cancel()
            state.completion_handle = None
        remaining = state.job.instructions - state.progress
        if remaining <= _PROGRESS_EPSILON:
            self._complete(state, now)
            return
        if state.rate <= 0.0:
            return
        eta = now + remaining / state.rate
        state.completion_handle = self.events.schedule(
            eta, self._make_completion(state.job.job_id)
        )

    def _make_completion(self, job_id: int):
        def complete(now: float) -> None:
            state = self._states[job_id]
            if state.job.state is JobState.COMPLETED:
                return
            self._advance_all(now)
            if state.job.instructions - state.progress > _PROGRESS_EPSILON:
                # A rate change landed between scheduling and firing;
                # recompute already rescheduled us.
                return
            self._complete(state, now)
            self._recompute(now)

        return complete

    def _complete(self, state: _JobRun, now: float) -> None:
        state.progress = float(state.job.instructions)
        state.job.executed_instructions = state.job.instructions
        state.job.mark_completed(now)
        state.running = False
        state.rate = 0.0
        # Its core and ways are free now: the next _recompute must derive
        # even if it is only a re-date (this runs inside one, too).
        self._derive_next = True
        if state.completion_handle is not None:
            state.completion_handle.cancel()
        if state.steal_handle is not None:
            state.steal_handle.cancel()
        if state.reserved_running:
            for core, job_id in list(self._reserved_cores.items()):
                if job_id == state.job.job_id:
                    del self._reserved_cores[core]
        state.reserved_running = False
        if state.reservation is not None:
            # Reclaim the unused remainder (or the whole future slot for
            # an AutoDown job that finished Opportunistically early).
            self.lac.release(state.reservation, at_time=now)
        if self.record_trace:
            self.trace.finish(now, state.job.job_id)
        self._trace_finish(state, now, "completed")
        if self._slo is not None:
            self._slo.finish(
                now, state.job.job_id, met_deadline=state.job.met_deadline
            )
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("sim.jobs.completed").inc()
            started = state.job.start_time
            obs.metrics.summary("sim.job_wall_clock").add(
                now - (started if started is not None else now)
            )
            obs.events.emit(
                "job_complete",
                now,
                job_id=state.job.job_id,
                benchmark=state.spec.benchmark,
                met_deadline=state.job.met_deadline,
            )
        if all(
            s.job.state in (JobState.COMPLETED, JobState.TERMINATED)
            for s in self._states.values()
        ) and self._pending_index >= len(self._pending):
            self._finished = True

    # -- resource stealing ---------------------------------------------------------------------

    def _reschedule_steal(self, state: _JobRun, now: float) -> None:
        if state.steal_handle is not None:
            state.steal_handle.cancel()
            state.steal_handle = None
        if (
            state.steal is None
            or not state.reserved_running
            or state.rate <= 0.0
        ):
            return
        remaining = state.next_interval_at - state.progress
        if remaining <= 0:
            remaining = 0.0
        eta = now + remaining / state.rate
        state.steal_handle = self.events.schedule(
            eta, self._make_steal_interval(state.job.job_id)
        )

    def _make_steal_interval(self, job_id: int):
        def interval(now: float) -> None:
            state = self._states[job_id]
            if (
                state.job.state is JobState.COMPLETED
                or state.steal is None
                or not state.reserved_running
            ):
                return
            self._advance_all(now)
            if state.progress + _PROGRESS_EPSILON < state.next_interval_at:
                # Stale event after a rate change; the reschedule in
                # _recompute covers the real instant.
                return
            decision = state.steal.on_interval(
                state, bus_saturated=self._bus_saturated
            )
            if decision.action is StealingAction.STEAL_ONE:
                self._steal_transfers += 1
            obs = get_observer()
            if obs.enabled and decision.action is not StealingAction.HOLD:
                obs.metrics.counter(
                    "sim.repartitions", action=decision.action.value
                ).inc()
                obs.events.emit(
                    "repartition",
                    now,
                    job_id=job_id,
                    action=decision.action.value,
                    ways=state.steal.current_ways,
                )
            state.next_interval_at = (
                state.progress
                + self.machine.repartition_interval_instructions
            )
            self._recompute(now)

        return interval

    # -- fault injection & graceful degradation ----------------------------------------------------

    def record_fault(self, event: FaultEvent, now: float) -> None:
        """Log one injected fault (called by the fault injector)."""
        self._fault_log.append((now, event))

    def fail_core(self, core: int, *, duration: float, now: float) -> None:
        """A core goes down for ``duration``; displace its reserved job."""
        core = core % self.machine.num_cores
        self._advance_all(now)
        repair_at = now + duration
        self._failed_cores[core] = max(
            repair_at, self._failed_cores.get(core, 0.0)
        )
        self.events.schedule(repair_at, self._make_core_repair(core))
        # A stall on a core that then fails is subsumed by the failure
        # (the pending stall-end event no-ops once the core is gone).
        self._stalled_cores.pop(core, None)
        job_id = self._reserved_cores.get(core)
        if job_id is not None:
            self._displace(self._states[job_id], now)
        self._recompute(now)

    def _make_core_repair(self, core: int):
        def repair(now: float) -> None:
            # Overlapping failures extend the repair time; only the
            # event matching the final repair instant clears the core.
            if self._failed_cores.get(core, math.inf) <= now + 1e-12:
                del self._failed_cores[core]
                self._advance_all(now)
                self._recompute(now)

        return repair

    def stall_core(self, core: int, *, duration: float, now: float) -> None:
        """Transient stall: the core retires nothing until it ends.

        Jobs on the core keep their reservations and may consequently
        overrun them (terminated at the boundary per Section 3.2).
        """
        core = core % self.machine.num_cores
        if core in self._failed_cores:
            return  # a failed core cannot also stall
        self._advance_all(now)
        end_at = now + duration
        self._stalled_cores[core] = max(
            end_at, self._stalled_cores.get(core, 0.0)
        )
        self.events.schedule(end_at, self._make_stall_end(core))
        self._recompute(now)

    def _make_stall_end(self, core: int):
        def end(now: float) -> None:
            if self._stalled_cores.get(core, math.inf) <= now + 1e-12:
                del self._stalled_cores[core]
                self._advance_all(now)
                self._recompute(now)

        return end

    def degrade_bandwidth(
        self, factor: float, *, duration: float, now: float
    ) -> None:
        """Brown-out: derate the bus peak by ``factor`` for ``duration``."""
        self._advance_all(now)
        self.bandwidth.apply_derate(factor)
        self.events.schedule(now + duration, self._make_derate_end(factor))
        self._recompute(now)

    def _make_derate_end(self, factor: float):
        def end(now: float) -> None:
            self.bandwidth.remove_derate(factor)
            self._advance_all(now)
            self._recompute(now)

        return end

    def inject_ecc_error(self, target: int, *, now: float) -> None:
        """ECC upset in a duplicate tag array: cancel that job's stealing.

        The victim is the ``target``-th (mod count) reserved-running
        Elastic job in job-id order — deterministic for a given
        simulator state.  With no stealing jobs active the upset hits an
        idle array and is harmless (still logged by the injector).
        """
        self._advance_all(now)
        candidates = sorted(
            (
                s
                for s in self._states.values()
                if s.steal is not None and s.reserved_running
            ),
            key=lambda s: s.job.job_id,
        )
        if not candidates:
            return
        state = candidates[target % len(candidates)]
        state.steal.on_ecc_error()
        self._ecc_cancellations += 1
        # The curve-based shadow observation restarts from scratch,
        # mirroring ShadowTagArray.inject_ecc_error.
        state.actual_misses = 0.0
        state.baseline_misses = 0.0
        self._recompute(now)

    def _displace(self, state: _JobRun, now: float) -> None:
        """Strip a faulted job of its core and reservation (recovery
        step 1); re-admission is scheduled with backoff."""
        self._displacements += 1
        job = state.job
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("sim.faults.displacements").inc()
            obs.events.emit("displacement", now, job_id=job.job_id)
        self._trace_segment(state, "displaced", now)
        if state.reservation is not None:
            self.lac.release(state.reservation, at_time=now)
            state.reservation = None
        for reserved_core, job_id in list(self._reserved_cores.items()):
            if job_id == job.job_id:
                del self._reserved_cores[reserved_core]
        state.reserved_running = False
        state.running = False
        state.displaced = True
        state.rate = 0.0
        state.cpu_share = 0.0
        state.core_id = -1
        if state.completion_handle is not None:
            state.completion_handle.cancel()
            state.completion_handle = None
        if state.steal_handle is not None:
            state.steal_handle.cancel()
            state.steal_handle = None
        state.steal = None
        state.policy_ways = None
        state.retry_attempt = 0
        self.events.schedule(
            now + self._retry_policy.delay(0),
            self._make_readmit(job.job_id),
        )

    def _make_readmit(self, job_id: int):
        def readmit(now: float) -> None:
            state = self._states[job_id]
            if not state.displaced or state.job.state is not JobState.RUNNING:
                return
            self._advance_all(now)
            self._try_readmit(state, now)
            self._recompute(now)

        return readmit

    def _remaining_duration(
        self, state: _JobRun, mode: ExecutionMode
    ) -> float:
        """Reservation length for the job's remaining instructions."""
        remaining_fraction = max(
            0.0, 1.0 - state.progress / state.job.instructions
        )
        remaining_tw = (
            state.tw * remaining_fraction * (1.0 + self.RESERVATION_MARGIN)
        )
        return mode.reservation_duration(remaining_tw)

    def _try_readmit(self, state: _JobRun, now: float) -> None:
        """One re-admission attempt; on repeated failure, walk the
        strict → elastic → opportunistic → best-effort ladder."""
        job = state.job
        mode = job.current_mode
        if mode.kind is ModeKind.OPPORTUNISTIC:
            self._resume_opportunistic(state, now)
            return
        self._readmission_attempts += 1
        duration = self._remaining_duration(state, mode)
        if duration <= 0.0:
            self._resume_opportunistic(state, now)
            return
        deadline = job.deadline
        latest_end = deadline if deadline is not None else math.inf
        reservation = self.lac.reserve_window(
            job.job_id,
            job.target.resources,
            duration,
            not_before=now,
            latest_end=latest_end,
        )
        if reservation is not None:
            self._readmissions += 1
            obs = get_observer()
            if obs.enabled:
                obs.metrics.counter("sim.faults.readmissions").inc()
                obs.events.emit(
                    "readmission",
                    now,
                    job_id=job.job_id,
                    start=reservation.start,
                    end=reservation.end,
                )
            state.reservation = reservation
            state.displaced = False
            state.retry_attempt = 0
            if reservation.start <= now + 1e-12:
                self._dispatch_reserved(state, now)
            else:
                self.events.schedule(
                    reservation.start,
                    self._make_reserved_dispatch(job.job_id),
                )
            return
        attempt = state.retry_attempt + 1
        if not self._retry_policy.exhausted(attempt):
            state.retry_attempt = attempt
            self.events.schedule(
                now + self._retry_policy.delay(attempt),
                self._make_readmit(job.job_id),
            )
            return
        # Retries exhausted at this rung: one step down the ladder.
        slack = (
            self.fault_config.elastic_downgrade_slack
            if self.fault_config is not None
            else 0.10
        )
        new_mode = downgrade_mode(mode, elastic_slack=slack)
        if new_mode is None:
            # Past Opportunistic: the guarantee is formally surrendered
            # and the job finishes on spare resources (best-effort).
            state.best_effort = True
            self._record_downgrade(
                now,
                job,
                mode,
                None,
                f"retries exhausted after {attempt} attempts at the "
                "final reserved rung; guarantee surrendered",
            )
            opportunistic = ExecutionMode.opportunistic()
            job.change_mode(now, opportunistic)
            state.spec = dataclasses.replace(state.spec, mode=opportunistic)
            self._resume_opportunistic(state, now)
            return
        self._record_downgrade(
            now,
            job,
            mode,
            new_mode,
            f"re-admission failed after {attempt} attempts",
        )
        job.change_mode(now, new_mode)
        state.spec = dataclasses.replace(state.spec, mode=new_mode)
        state.retry_attempt = 0
        if new_mode.kind is ModeKind.OPPORTUNISTIC:
            self._resume_opportunistic(state, now)
        else:
            self.events.schedule(
                now + self._retry_policy.delay(0),
                self._make_readmit(job.job_id),
            )

    def _resume_opportunistic(self, state: _JobRun, now: float) -> None:
        """A displaced job resumes on spare resources (no reservation)."""
        state.displaced = False
        state.running = True
        state.reserved_running = False
        state.core_id = -1
        self._trace_segment(state, "exec.opportunistic", now)

    def _record_downgrade(
        self,
        now: float,
        job: Job,
        from_mode: ExecutionMode,
        to_mode: Optional[ExecutionMode],
        reason: str,
    ) -> None:
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("sim.faults.downgrades").inc()
            obs.events.emit(
                "mode_downgrade",
                now,
                job_id=job.job_id,
                from_mode=from_mode.describe(),
                to_mode=(
                    to_mode.describe() if to_mode is not None else "best-effort"
                ),
                reason=reason,
            )
        self._downgrades.append(
            DowngradeRecord(
                time=now,
                job_id=job.job_id,
                from_mode=from_mode.describe(),
                to_mode=(
                    to_mode.describe()
                    if to_mode is not None
                    else "best-effort"
                ),
                reason=reason,
            )
        )

    # -- results -----------------------------------------------------------------------------------

    def _build_result(self, *, partial: bool = False) -> SystemResult:
        obs = get_observer()
        slo_report: Optional[SloReport] = None
        if self._slo is not None and len(self._slo):
            slo_report = self._slo.report(now=self.events.now)
            if obs.enabled:
                for summary in slo_report.jobs:
                    obs.metrics.gauge(
                        "slo.violation_fraction", job=summary.job_id
                    ).set(summary.violation_fraction)
                obs.metrics.gauge("slo.total_violations").set(
                    slo_report.total_violations
                )
                obs.metrics.gauge("slo.jobs_violated").set(
                    slo_report.jobs_violated
                )
        if obs.enabled:
            labels = {"configuration": self.config.name}
            obs.metrics.gauge("sim.probes", **labels).set(self._probes)
            obs.metrics.gauge("sim.rejections", **labels).set(
                self._rejections
            )
            obs.metrics.gauge("sim.backfills", **labels).set(
                self._backfills
            )
            obs.metrics.gauge("sim.steal_transfers", **labels).set(
                self._steal_transfers
            )
            obs.metrics.gauge("lac.admission_tests", **labels).set(
                self.lac.stats.admission_tests
            )
            obs.metrics.gauge("lac.candidate_windows", **labels).set(
                self.lac.stats.candidate_windows_evaluated
            )
            obs.events.emit(
                "run_result",
                self.events.now,
                workload=self.workload.name,
                configuration=self.config.name,
                partial=partial,
                jobs=len(self._accepted),
            )
        jobs = list(self._accepted)
        completed = sum(
            1 for job in jobs if job.state is JobState.COMPLETED
        )
        first_n = min(self.sim_config.accepted_jobs_target, completed)
        if partial:
            # A budget abort leaves jobs mid-flight; measure throughput
            # over whatever completed, never raising on the remainder.
            finished_jobs = [
                job for job in jobs if job.state is JobState.COMPLETED
            ]
            throughput = (
                ThroughputReport.from_jobs(finished_jobs, first_n=first_n)
                if first_n > 0
                else ThroughputReport(
                    jobs_measured=0, makespan=self.events.now
                )
            )
        else:
            throughput = ThroughputReport.from_jobs(jobs, first_n=first_n)
        deadline = DeadlineReport.from_jobs(jobs, reserved_modes_only=True)
        wall_clock = WallClockSummary.from_jobs(jobs)
        cancellations = sum(
            state.steal.cancellations
            for state in self._states.values()
            if state.steal is not None
        )
        resilience: Optional[ResilienceReport] = None
        digest: Optional[str] = None
        if self.fault_config is not None:
            fault_counts: Dict[str, int] = {}
            for _, event in self._fault_log:
                fault_counts[event.kind.value] = (
                    fault_counts.get(event.kind.value, 0) + 1
                )
            resilience = ResilienceReport(
                faults_injected=len(self._fault_log),
                fault_counts=fault_counts,
                downgrades=tuple(self._downgrades),
                displacements=self._displacements,
                readmissions=self._readmissions,
                readmission_attempts=self._readmission_attempts,
                deferred_dispatches=self._deferred_dispatches,
                best_effort_jobs=sum(
                    1 for s in self._states.values() if s.best_effort
                ),
                ecc_cancellations=self._ecc_cancellations,
                invariant_checks=(
                    self._invariants.checks_run
                    if self._invariants is not None
                    else 0
                ),
            )
            if self._fault_schedule is not None:
                digest = self._fault_schedule.digest()
        return SystemResult(
            workload_name=self.workload.name,
            configuration_name=self.config.name,
            jobs=jobs,
            makespan_seconds=throughput.makespan,
            makespan_cycles=self.machine.seconds_to_cycles(
                throughput.makespan
            ),
            throughput=throughput,
            deadline_report=deadline,
            wall_clock=wall_clock,
            trace=self.trace,
            probes=self._probes,
            rejections=self._rejections,
            backfills=self._backfills,
            terminations=self._terminations,
            steal_transfers=self._steal_transfers,
            steal_cancellations=cancellations,
            lac_admission_tests=self.lac.stats.admission_tests,
            lac_candidate_windows=self.lac.stats.candidate_windows_evaluated,
            per_job_ways_history=self._ways_history,
            partial=partial,
            abort_reason=self._abort_reason,
            resilience=resilience,
            fault_timeline_digest=digest,
            slo=slo_report,
            policy_decisions=self._policy_decisions,
        )
