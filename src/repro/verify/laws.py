"""Metamorphic paper-level laws.

Each law is an oracle-free property the reproduction must satisfy for
*any* seed — not because a golden file says so, but because the
paper's model (or basic queueing/caching theory) says so:

- **miss-curve-monotone** — under LRU inclusion, giving a benchmark
  more cache ways never increases its measured miss rate (checked on
  the *raw* per-way measurements, before the curve normalisation that
  would hide an inversion), and both backends must measure the same
  raw points.  The fast arm's one-pass stack profile is monotone by
  construction, so the law can fail on the reference arm's per-way
  replay or on the cross-check between the two.
- **mode-downgrade-floor** — walking the Strict → Elastic(X) →
  Opportunistic ladder (voluntary, Section 3.3–3.4, or the fault-
  recovery ladder of :mod:`repro.faults.resilience`) never *raises*
  the throughput floor a job is promised, never climbs back up the
  guarantee ranks, and terminates.
- **core-permutation-symmetry** — a way-partitioned cache is
  symmetric in core identity: relabelling the cores of an access
  stream permutes the per-core counters and leaves every aggregate
  counter unchanged, on both backends.
- **fair-queue-conservation** — the memory bus neither creates nor
  destroys service: every submitted request completes exactly once,
  each occupies the bus for exactly ``service_cycles``, grants never
  overlap, and the bus never idles while an arrived request waits
  (work conservation), for both SFQ and FCFS.
- **figure5-shapes** — the qualitative Figure 5 claims
  (:func:`repro.analysis.report.shape_checks`) hold for the sweep at
  the given seed, not just the golden one.

``run_laws`` packages the verdicts as a :class:`VerifyReport` for the
``repro verify laws`` CLI and the CI gate.

The *policy conformance suite* (``repro verify laws --policy all``)
applies three further laws to every policy in the
:mod:`repro.core.policy` registry:

- **policy-throughput-floor** — running under a policy never loses a
  deadline the policy-free run met and never meaningfully inflates the
  makespan.
- **policy-capacity-conservation** — at every decision epoch the
  post-actuation reserved ways plus spare ways equal the L2's ways,
  and spare never goes negative.
- **policy-actuation-idempotence** — policy actions carry absolute
  targets, so re-applying an already-applied decision changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import shape_checks
from repro.analysis.runner import run_all_configurations
from repro.core.policy import (
    ActuatorState,
    JobSensor,
    SensorSnapshot,
    apply_action,
    make_policy,
    policy_names,
)
from repro.cache.backend import (
    BACKENDS,
    make_partitioned_cache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.core.modes import (
    ExecutionMode,
    downgrade_to_elastic,
    is_interchangeable,
    opportunistic_window,
    time_slack,
)
from repro.faults.resilience import downgrade_mode
from repro.mem.fair_queue import FairQueueBus, FcfsBus
from repro.sim.config import SimulationConfig
from repro.util.rng import DeterministicRng
from repro.verify.report import CheckResult, PairReport, VerifyReport
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.profiler import measure_miss_rates

#: Measurement noise allowance for raw miss-rate inversions on finite
#: traces (the reason MissRatioCurve normalises at all).  A real
#: monotonicity bug — e.g. a replacement-policy regression — moves
#: rates by far more than this on the law's trace lengths.
_MONOTONE_EPSILON = 0.01

#: Benchmarks the curve law samples: one from each Figure 4 sensitivity
#: group (cache-sensitive, moderate, insensitive).
_LAW_BENCHMARKS = ("bzip2", "hmmer", "gobmk")


@dataclass(frozen=True)
class Law:
    """One metamorphic property: a checker returning violation lines."""

    name: str
    description: str
    check: Callable[[int], List[str]]


# -----------------------------------------------------------------------------
# miss-curve-monotone
# -----------------------------------------------------------------------------


def _check_miss_curve_monotone(seed: int) -> List[str]:
    violations: List[str] = []
    for name in _LAW_BENCHMARKS:
        profile = get_benchmark(name)
        per_backend: Dict[str, Dict[int, float]] = {}
        for backend in BACKENDS:
            raw = measure_miss_rates(
                profile,
                ways_list=range(1, 17),
                num_sets=16,
                accesses=6_000,
                warmup=2_000,
                seed=seed,
                backend=backend,
            )
            per_backend[backend] = raw
            previous_ways: Optional[int] = None
            for ways in sorted(raw):
                if (
                    previous_ways is not None
                    and raw[ways] > raw[previous_ways] + _MONOTONE_EPSILON
                ):
                    violations.append(
                        f"{name}[{backend}]: miss rate rose from "
                        f"{raw[previous_ways]:.4f}@{previous_ways}w to "
                        f"{raw[ways]:.4f}@{ways}w"
                    )
                previous_ways = ways
        if per_backend["reference"] != per_backend["fast"]:
            drifted = sorted(
                ways
                for ways in per_backend["reference"]
                if per_backend["reference"][ways]
                != per_backend["fast"][ways]
            )
            for ways in drifted[:8]:
                violations.append(
                    f"{name}@{ways}w: backends disagree on the raw rate "
                    f"({per_backend['reference'][ways]:.6f} reference vs "
                    f"{per_backend['fast'][ways]:.6f} fast)"
                )
    return violations


# -----------------------------------------------------------------------------
# mode-downgrade-floor
# -----------------------------------------------------------------------------


def _ladder_walk(start: ExecutionMode, elastic_slack: float) -> List[str]:
    """Violations along the fault-recovery ladder from ``start``."""
    violations: List[str] = []
    mode: Optional[ExecutionMode] = start
    steps = 0
    while mode is not None:
        lower = downgrade_mode(mode, elastic_slack=elastic_slack)
        steps += 1
        if steps > 4:
            violations.append(
                f"ladder from {start.describe()} did not terminate"
            )
            break
        if lower is None:
            break
        if lower.throughput_floor > mode.throughput_floor:
            violations.append(
                f"downgrade {mode.describe()} -> {lower.describe()} raised "
                f"the throughput floor ({mode.throughput_floor:.4f} -> "
                f"{lower.throughput_floor:.4f})"
            )
        if lower.guarantee_rank <= mode.guarantee_rank:
            violations.append(
                f"downgrade {mode.describe()} -> {lower.describe()} did "
                "not descend the guarantee ladder"
            )
        mode = lower
    return violations


def _check_mode_downgrade_floor(seed: int) -> List[str]:
    violations: List[str] = []
    rng = DeterministicRng(seed, "verify-mode-ladder")
    for case in range(200):
        arrival = rng.uniform(0.0, 1.0)
        tw = rng.uniform(0.01, 0.5)
        deadline = arrival + tw * rng.uniform(1.0, 3.0)
        strict = ExecutionMode.strict()

        elastic = downgrade_to_elastic(arrival, deadline, tw)
        slack = time_slack(arrival, deadline, tw)
        if elastic is not None:
            if elastic.throughput_floor > strict.throughput_floor:
                violations.append(
                    f"case {case}: Elastic({elastic.slack:.4f}) floor "
                    f"{elastic.throughput_floor:.4f} above Strict's"
                )
            if not is_interchangeable(
                strict,
                elastic,
                arrival=arrival,
                deadline=deadline,
                max_wall_clock=tw,
            ):
                violations.append(
                    f"case {case}: voluntary downgrade produced a "
                    "non-interchangeable Elastic mode"
                )
        elif slack > 1e-12:
            violations.append(
                f"case {case}: positive slack {slack:.6f} but no "
                "Elastic downgrade offered"
            )

        window = opportunistic_window(arrival, deadline, tw)
        if (window is not None) != (slack > 0.0):
            violations.append(
                f"case {case}: opportunistic window offered iff slack>0 "
                f"violated (slack={slack:.6f}, window={window})"
            )

        elastic_slack = rng.uniform(0.01, 0.5)
        violations.extend(_ladder_walk(strict, elastic_slack))
        violations.extend(
            _ladder_walk(ExecutionMode.elastic(elastic_slack), elastic_slack)
        )
        opportunistic = ExecutionMode.opportunistic()
        # Idempotence at the bottom: Opportunistic's only remaining rung
        # is best-effort, which *is* Opportunistic execution — walking
        # further must change nothing and then stop.
        below = downgrade_mode(opportunistic, elastic_slack=elastic_slack)
        if below is not None and below != opportunistic:
            violations.append(
                f"case {case}: below Opportunistic came "
                f"{below.describe()}, not best-effort"
            )
    return violations


# -----------------------------------------------------------------------------
# core-permutation-symmetry
# -----------------------------------------------------------------------------


def _check_core_permutation_symmetry(seed: int) -> List[str]:
    violations: List[str] = []
    rng = DeterministicRng(seed, "verify-core-permutation")
    num_cores = 4
    geometry = CacheGeometry.from_sets(16, 8, 64)
    accesses = [
        (rng.randint(0, 255) * 64, rng.uniform() < 0.3, rng.randint(0, 3))
        for _ in range(3_000)
    ]
    permutation = list(range(num_cores))
    rng.shuffle(permutation)
    for backend in BACKENDS:
        base = make_partitioned_cache(
            geometry, num_cores, name="verify-base", backend=backend
        )
        relabeled = make_partitioned_cache(
            geometry, num_cores, name="verify-perm", backend=backend
        )
        for cache, mapping in (
            (base, list(range(num_cores))),
            (relabeled, permutation),
        ):
            for core in range(num_cores):
                cache.set_target(mapping[core], 2)
                cache.set_class(mapping[core], PartitionClass.RESERVED)
        for address, is_write, core in accesses:
            base.access(core, address, is_write=is_write)
            relabeled.access(
                permutation[core], address, is_write=is_write
            )
        for counter in (
            "accesses",
            "hits",
            "misses",
            "evictions",
            "writebacks",
            "fills",
        ):
            left = getattr(base.stats, counter)
            right = getattr(relabeled.stats, counter)
            if left != right:
                violations.append(
                    f"[{backend}] aggregate {counter} changed under core "
                    f"permutation: {left} vs {right}"
                )
        for core in range(num_cores):
            left_counters = base.stats.per_core.get(core)
            right_counters = relabeled.stats.per_core.get(
                permutation[core]
            )
            if left_counters != right_counters:
                violations.append(
                    f"[{backend}] core {core} counters != relabeled core "
                    f"{permutation[core]}: {left_counters} vs "
                    f"{right_counters}"
                )
    return violations


# -----------------------------------------------------------------------------
# fair-queue-conservation
# -----------------------------------------------------------------------------


def _check_fair_queue_conservation(seed: int) -> List[str]:
    violations: List[str] = []
    rng = DeterministicRng(seed, "verify-fair-queue")
    num_cores = 4
    shares = {core: 1.0 / num_cores for core in range(num_cores)}
    submissions = []
    clock = 0.0
    for _ in range(400):
        # Mix of bursts (zero gap) and idle stretches, so both the
        # backlogged and the idle-bus paths of drain() are exercised.
        clock += rng.choice([0.0, 0.0, rng.uniform(0.0, 15.0), 80.0])
        submissions.append((rng.randint(0, num_cores - 1), clock))
    for label, bus in (
        ("sfq", FairQueueBus(shares, service_cycles=20.0)),
        ("fcfs", FcfsBus(service_cycles=20.0)),
    ):
        for core, arrival in submissions:
            bus.submit(core, arrival)
        completed = bus.drain()
        if len(completed) != len(submissions):
            violations.append(
                f"[{label}] {len(submissions)} submitted but "
                f"{len(completed)} completed"
            )
            continue
        for index, request in enumerate(completed):
            if not math.isclose(
                request.finish - request.start,
                bus.service_cycles,
                rel_tol=1e-9,
            ):
                violations.append(
                    f"[{label}] grant {index} held the bus for "
                    f"{request.finish - request.start} cycles"
                )
            if request.start < request.arrival:
                violations.append(
                    f"[{label}] grant {index} started before its arrival"
                )
        # The completed list is in service order: grants must tile the
        # busy periods without overlap, and an idle gap is legal only
        # when nothing still waiting had already arrived.
        for index in range(1, len(completed)):
            previous, current = completed[index - 1], completed[index]
            if current.start < previous.finish:
                violations.append(
                    f"[{label}] grants {index - 1} and {index} overlap"
                )
            elif current.start > previous.finish:
                earliest_waiting = min(
                    request.arrival for request in completed[index:]
                )
                if earliest_waiting <= previous.finish:
                    violations.append(
                        f"[{label}] bus idled over "
                        f"({previous.finish}, {current.start}) while a "
                        f"request arrived at {earliest_waiting} waited"
                    )
    return violations


# -----------------------------------------------------------------------------
# figure5-shapes
# -----------------------------------------------------------------------------


def _check_figure5_shapes(seed: int) -> List[str]:
    sim_config = SimulationConfig(
        instructions_per_job=2_000_000,
        seed=seed,
        profile_num_sets=16,
        profile_accesses=4_000,
    )
    results = run_all_configurations(
        "bzip2", count=10, seed=seed, sim_config=sim_config
    )
    checks = shape_checks(results)
    return [
        f"shape invariant {name!r} failed at seed {seed}"
        for name, passed in sorted(checks.items())
        if not passed
    ]


# -----------------------------------------------------------------------------
# policy conformance laws
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyLaw:
    """One conformance property every registered policy must satisfy."""

    name: str
    description: str
    check: Callable[[int, str], List[str]]


class SyntheticPolicyWorld:
    """Deterministic closed-loop sandbox for exercising policies.

    A handful of reserved strict jobs with concave rate-vs-ways curves,
    seeded head-start progress (the auto-downgrade switch-back shape
    that gives :class:`~repro.core.policy.GrowShrinkWaysPolicy` real
    headroom), and a scripted bus-utilisation profile.  Actions are
    applied through the same :func:`~repro.core.policy.apply_action`
    harness the simulator uses, so laws and property tests checked here
    exercise exactly the production actuation path.
    """

    def __init__(
        self,
        seed: int,
        *,
        jobs: int = 3,
        l2_ways: int = 16,
        epoch: float = 0.001,
        utilisation: Optional[Callable[[float], float]] = None,
    ) -> None:
        rng = DeterministicRng(seed, "verify-policy-world")
        self.now = 0.0
        self.epoch = epoch
        self.epoch_index = 0
        self.l2_ways = l2_ways
        self.utilisation_fn = (
            utilisation if utilisation is not None else (lambda now: 0.3)
        )
        self._jobs: List[Dict[str, object]] = []
        ways: Dict[int, int] = {}
        caps: Dict[int, int] = {}
        for job_id in range(jobs):
            requested = rng.randint(2, 5)
            base = 2.0e9 * rng.uniform(0.5, 1.0)
            rates = tuple(
                0.0 if w == 0 else base * w / (w + 2.0)
                for w in range(l2_ways + 1)
            )
            instructions = int(rates[requested] * rng.uniform(0.004, 0.008))
            horizon = (
                instructions / rates[requested]
            ) * (1.0 + rng.uniform(0.05, 0.30))
            self._jobs.append(
                {
                    "job_id": job_id,
                    "requested": requested,
                    "rates": rates,
                    "instructions": instructions,
                    "progress": rng.uniform(0.0, 0.5) * instructions,
                    "limit": horizon,
                }
            )
            ways[job_id] = requested
            caps[job_id] = requested
        self.state = ActuatorState(
            total_ways=l2_ways, ways=ways, caps=caps
        )

    def finished(self) -> bool:
        return all(
            job["progress"] >= job["instructions"] for job in self._jobs
        )

    def apply(self, action) -> bool:
        """Apply one policy action through the shared harness."""
        return apply_action(self.state, action)

    def snapshot(self) -> SensorSnapshot:
        sensors = []
        reserved = 0
        for job in self._jobs:
            if job["progress"] >= job["instructions"]:
                continue
            ways = self.state.ways[job["job_id"]]
            reserved += ways
            rate = job["rates"][ways]
            remaining = job["instructions"] - job["progress"]
            projected = (
                self.now + remaining / rate if rate > 0.0 else math.inf
            )
            sensors.append(
                JobSensor(
                    job_id=job["job_id"],
                    mode="strict",
                    reserved=True,
                    elastic=False,
                    ways=ways,
                    requested_ways=job["requested"],
                    progress=job["progress"],
                    instructions=job["instructions"],
                    rate=rate,
                    deadline=job["limit"],
                    reservation_end=job["limit"],
                    projected_finish=projected,
                    miss_increase_fraction=0.0,
                    rates_by_ways=job["rates"],
                )
            )
        utilisation = self.utilisation_fn(self.now)
        return SensorSnapshot(
            now=self.now,
            epoch_index=self.epoch_index,
            l2_ways=self.l2_ways,
            reserved_ways=reserved,
            spare_ways=self.l2_ways - reserved,
            bus_utilisation=utilisation,
            bus_saturated=utilisation >= 1.0,
            bus_granted=self.state.bus_granted,
            jobs=tuple(sensors),
        )

    def advance(self) -> None:
        for job in self._jobs:
            if job["progress"] >= job["instructions"]:
                continue
            rate = job["rates"][self.state.ways[job["job_id"]]]
            job["progress"] = min(
                float(job["instructions"]),
                job["progress"] + rate * self.epoch,
            )
        self.now += self.epoch
        self.epoch_index += 1


#: Utilisation profiles the synthetic-world laws sweep: steady idle,
#: steady contention, and a bursty square wave.
_WORLD_PROFILES: Dict[str, Callable[[float], float]] = {
    "idle": lambda now: 0.2,
    "contended": lambda now: 0.92,
    "bursty": lambda now: 0.95 if int(now / 0.004) % 2 else 0.15,
}

#: (seed, policy name) -> (capacity audit, baseline result, subject
#: result); each policy's small reference simulation runs once and
#: feeds both simulation-backed laws.
_POLICY_RUN_CACHE: Dict = {}


def _policy_law_sim(seed: int, policy_name: Optional[str]):
    from repro.core.config import CONFIGURATIONS
    from repro.sim.system import QoSSystemSimulator
    from repro.workloads.composer import single_benchmark_workload

    sim_config = SimulationConfig(
        instructions_per_job=2_000_000,
        seed=seed,
        profile_num_sets=16,
        profile_accesses=4_000,
    )
    workload = single_benchmark_workload(
        "bzip2",
        CONFIGURATIONS["All-Strict+AutoDown"],
        count=8,
        seed=seed,
    )
    simulator = QoSSystemSimulator(
        workload,
        sim_config=sim_config,
        record_trace=False,
        policy=(
            make_policy(policy_name) if policy_name is not None else None
        ),
    )
    return simulator, simulator.run()


def _policy_run(seed: int, policy_name: Optional[str]):
    key = (seed, policy_name)
    if key not in _POLICY_RUN_CACHE:
        simulator, result = _policy_law_sim(seed, policy_name)
        _POLICY_RUN_CACHE[key] = (simulator.policy_audit, result)
    return _POLICY_RUN_CACHE[key]


def _check_policy_throughput_floor(seed: int, policy: str) -> List[str]:
    violations: List[str] = []
    _, baseline = _policy_run(seed, None)
    _, subject = _policy_run(seed, policy)
    if subject.deadline_report.met < baseline.deadline_report.met:
        violations.append(
            f"{policy}: deadlines met fell from "
            f"{baseline.deadline_report.met} to "
            f"{subject.deadline_report.met}"
        )
    ceiling = baseline.makespan_seconds * 1.05 + 1e-12
    if subject.makespan_seconds > ceiling:
        violations.append(
            f"{policy}: makespan {subject.makespan_seconds:.6f}s exceeds "
            f"the floor ceiling {ceiling:.6f}s "
            f"(baseline {baseline.makespan_seconds:.6f}s)"
        )
    return violations


def _check_policy_capacity_conservation(seed: int, policy: str) -> List[str]:
    from repro.sim.config import MachineConfig

    violations: List[str] = []
    audit, _ = _policy_run(seed, policy)
    l2_ways = MachineConfig().l2_ways
    if not audit:
        violations.append(
            f"{policy}: policy produced no epoch audit records "
            "(epoch hook disconnected?)"
        )
    for now, reserved, spare in audit:
        if reserved + spare != l2_ways:
            violations.append(
                f"{policy}@t={now:.6f}: reserved {reserved} + spare "
                f"{spare} != {l2_ways} L2 ways"
            )
        if spare < 0 or reserved < 0:
            violations.append(
                f"{policy}@t={now:.6f}: negative allocation "
                f"(reserved={reserved}, spare={spare})"
            )
    return violations


def _check_policy_actuation_idempotence(
    seed: int, policy: str
) -> List[str]:
    violations: List[str] = []
    for profile_name, profile in _WORLD_PROFILES.items():
        instance = make_policy(policy)
        instance.reset()
        world = SyntheticPolicyWorld(
            seed, utilisation=profile
        )
        for step in range(60):
            if world.finished():
                break
            snapshot = world.snapshot()
            actions = instance.decide(snapshot)
            for action in actions:
                first = world.apply(action)
                second = world.apply(action)
                if second:
                    violations.append(
                        f"{policy}[{profile_name}] step {step}: "
                        f"re-applying {action.describe()} was not a "
                        "no-op"
                    )
                if not first:
                    # Emitting an action the harness rejects is legal
                    # (the simulator filters it) but an action that is
                    # *rejected then accepted* would be stateful.
                    again = world.apply(action)
                    if again:
                        violations.append(
                            f"{policy}[{profile_name}] step {step}: "
                            f"{action.describe()} rejected then "
                            "accepted"
                        )
            world.advance()
    return violations


POLICY_LAWS: Dict[str, PolicyLaw] = {
    law.name: law
    for law in (
        PolicyLaw(
            name="policy-throughput-floor",
            description="a policy never loses deadlines or meaningfully "
            "inflates makespan vs the policy-free run",
            check=_check_policy_throughput_floor,
        ),
        PolicyLaw(
            name="policy-capacity-conservation",
            description="reserved + spare ways equal the L2 at every "
            "decision epoch, spare never negative",
            check=_check_policy_capacity_conservation,
        ),
        PolicyLaw(
            name="policy-actuation-idempotence",
            description="re-applying an already-applied decision is a "
            "no-op",
            check=_check_policy_actuation_idempotence,
        ),
    )
}


LAWS: Dict[str, Law] = {
    law.name: law
    for law in (
        Law(
            name="miss-curve-monotone",
            description="more ways never raise the raw miss rate (by "
            "construction on the fast arm, replayed per way on the "
            "reference arm); backends measure identical raw points",
            check=_check_miss_curve_monotone,
        ),
        Law(
            name="mode-downgrade-floor",
            description="the downgrade ladder never raises a job's "
            "throughput floor and always terminates",
            check=_check_mode_downgrade_floor,
        ),
        Law(
            name="core-permutation-symmetry",
            description="partitioned-cache counters are equivariant "
            "under core relabelling",
            check=_check_core_permutation_symmetry,
        ),
        Law(
            name="fair-queue-conservation",
            description="the memory bus conserves service and never "
            "idles over a waiting request",
            check=_check_fair_queue_conservation,
        ),
        Law(
            name="figure5-shapes",
            description="the qualitative Figure 5 claims hold at this "
            "seed",
            check=_check_figure5_shapes,
        ),
    )
}


def run_laws(
    seed: int = 0,
    *,
    names: Optional[Sequence[str]] = None,
    policy: Optional[str] = None,
) -> VerifyReport:
    """Check the requested laws (default: all) at ``seed``.

    With ``policy`` set — one registry name or ``"all"`` — the *policy
    conformance* laws run instead, against the named policies;
    ``names`` then selects among :data:`POLICY_LAWS`.
    """
    if policy is not None:
        return run_policy_laws(seed, policy=policy, names=names)
    selected = list(names) if names is not None else list(LAWS)
    unknown = sorted(set(selected) - set(LAWS))
    if unknown:
        raise ValueError(
            f"unknown law(s) {unknown}; expected among {sorted(LAWS)}"
        )
    report = VerifyReport(command="laws")
    for name in selected:
        law = LAWS[name]
        violations = law.check(seed)
        report.reports.append(
            PairReport(
                kind=name,
                subject=f"{law.description} (seed={seed})",
                checks=[CheckResult.from_violations(name, violations)],
            )
        )
    return report


def run_policy_laws(
    seed: int = 0,
    *,
    policy: str = "all",
    names: Optional[Sequence[str]] = None,
) -> VerifyReport:
    """Run the policy conformance suite at ``seed``.

    ``policy`` is one registry name or ``"all"``; every selected law
    runs against every selected policy, so ``repro verify laws
    --policy all`` is the full conformance matrix.
    """
    registered = policy_names()
    targets = list(registered) if policy == "all" else [policy]
    unknown_policies = sorted(set(targets) - set(registered))
    if unknown_policies:
        raise ValueError(
            f"unknown policy(ies) {unknown_policies}; expected among "
            f"{sorted(registered)} or 'all'"
        )
    selected = list(names) if names is not None else list(POLICY_LAWS)
    unknown = sorted(set(selected) - set(POLICY_LAWS))
    if unknown:
        raise ValueError(
            f"unknown policy law(s) {unknown}; expected among "
            f"{sorted(POLICY_LAWS)}"
        )
    report = VerifyReport(command="laws")
    for name in selected:
        law = POLICY_LAWS[name]
        for target in targets:
            violations = law.check(seed, target)
            report.reports.append(
                PairReport(
                    kind=name,
                    subject=(
                        f"{law.description} "
                        f"(policy={target}, seed={seed})"
                    ),
                    checks=[
                        CheckResult.from_violations(
                            f"{name}[{target}]", violations
                        )
                    ],
                )
            )
    return report
