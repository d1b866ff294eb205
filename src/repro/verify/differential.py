"""Paired-execution differential harness.

One :class:`Scenario` — a workload, a configuration subset, a seed,
and scaled-down profiling/instruction knobs — is executed twice per
*pair*, with exactly one implementation choice flipped between the
arms, and every observable compared:

- **backend** — miss curves profiled by a per-way replay on the
  ``reference`` cache model versus the ``fast`` backend's one-pass LRU
  stack profile, and the sweep run on each set.  Curves must match
  point-for-point and every downstream scalar byte-for-byte.
- **jobs** — the same sweep with ``jobs=1`` versus ``jobs=N``
  multiprocessing.  Counter snapshots *and* the metrics and events
  JSONL artifact streams must be byte-identical (the observer-merge
  contract of :mod:`repro.analysis.parallel`).
- **faults** — each configuration run with ``fault_config=None``
  versus an all-zero-rate :class:`~repro.faults.model.FaultConfig`.
  The fault layer documents that a zero-rate config schedules no
  events and draws no RNG streams, so the trajectory must be
  byte-identical; only the presence of the (all-zero) resilience
  report may differ.
- **policy** — the sweep under a *disabled* instance of an adaptive
  policy (``grow-shrink`` with an infinite dead-band,
  ``bandwidth-steal`` that never steals) versus no policy at all.  A
  disabled policy still schedules decision epochs; the pair pins that
  observing without acting leaves every counter and artifact stream
  byte-identical — at both ``jobs=1`` and ``jobs=N`` — modulo the
  engine's own event-count bookkeeping, which must count the no-op
  epochs (so a disconnected epoch hook fails the pair).

Both arms of a pair profile their miss curves through
:func:`~repro.workloads.profiler.profile_benchmark` directly —
``get_curve`` always profiles on the fast backend and its memo and
on-disk store carry no backend, so going through them would compare
one cached curve against itself.

Numeric comparisons reuse :func:`repro.obs.diff.diff_snapshots` with
no tolerance: every pair is a gate that must be able to fail, so every
compared value must match exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import run_all_configurations, run_configuration
from repro.core.config import CONFIGURATIONS
from repro.core.policy import (
    BandwidthStealPolicy,
    GrowShrinkWaysPolicy,
    Policy,
    make_policy,
    policy_names,
)
from repro.faults.model import FaultConfig
from repro.obs import Observer, observed
from repro.obs.diff import diff_snapshots
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.system import SystemResult
from repro.verify.report import CheckResult, PairReport, VerifyReport
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import (
    MIX_ROLES,
    mixed_workload,
    single_benchmark_workload,
)
from repro.workloads.profiler import MissRatioCurve, profile_benchmark

#: The differential pairs, in the order ``verify diff`` runs them.
PAIR_NAMES: Tuple[str, ...] = ("backend", "jobs", "faults", "policy")

#: Snapshot keys whose presence legitimately differs between the arms
#: of the faults pair (None config has no resilience report at all).
_FAULT_EXEMPT_PREFIXES = ("resilience.", "fault_timeline_digest")


@dataclass(frozen=True)
class Scenario:
    """One differential subject: what to run and at what fidelity.

    ``instructions_per_job`` and the ``profile_*`` knobs are scaled
    down from the paper defaults because differential verification
    cares about *agreement*, not absolute numbers — and throughput
    results are normalisation-invariant in the instruction count.
    The composer seed and the simulator seed both derive from
    ``seed``.
    """

    workload: str = "bzip2"
    configurations: Tuple[str, ...] = ("All-Strict", "All-Strict+AutoDown")
    count: int = 10
    seed: int = 0
    jobs: int = 2
    instructions_per_job: int = 2_000_000
    profile_num_sets: int = 64
    profile_accesses: int = 40_000
    profile_warmup: int = 15_000
    record_trace: bool = True
    # Registry policy exercised by the "policy" pair (a disabled
    # instance of it vs no policy).
    pair_policy: str = "grow-shrink"
    # Optional registry policy applied to BOTH arms of the other pairs,
    # pinning that adaptive decisions stay deterministic across
    # backends / job counts / the fault layer.
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        for label in ("pair_policy", "policy"):
            name = getattr(self, label)
            if name is not None and name not in policy_names():
                raise ValueError(
                    f"unknown policy {name!r} for {label}; expected "
                    f"among {sorted(policy_names())}"
                )
        unknown = [
            name for name in self.configurations if name not in CONFIGURATIONS
        ]
        if unknown:
            raise ValueError(
                f"unknown configuration(s) {unknown}; "
                f"expected among {sorted(CONFIGURATIONS)}"
            )
        if not self.configurations:
            raise ValueError("scenario needs at least one configuration")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.jobs < 2:
            raise ValueError(
                f"the jobs pair needs jobs >= 2, got {self.jobs}"
            )

    @staticmethod
    def for_figure(fig: str, *, seed: int = 0) -> "Scenario":
        """The scenario matching one of the reproduced figures.

        ``fig7`` pairs the two traced configurations (All-Strict vs
        AutoDown); ``fig5`` sweeps all five Table 2 configurations.
        """
        if fig == "fig7":
            return Scenario(
                workload="bzip2",
                configurations=("All-Strict", "All-Strict+AutoDown"),
                seed=seed,
            )
        if fig == "fig5":
            return Scenario(
                workload="bzip2",
                configurations=tuple(CONFIGURATIONS),
                seed=seed,
            )
        raise ValueError(
            f"no differential scenario for {fig!r}; expected fig5 or fig7"
        )

    def describe(self) -> str:
        return (
            f"{self.workload} x {len(self.configurations)} config(s), "
            f"count={self.count}, seed={self.seed}, jobs={self.jobs}"
        )

    def benchmarks(self) -> List[str]:
        """The distinct benchmarks the workload draws on."""
        if self.workload in MIX_ROLES:
            return sorted({name for name, _ in MIX_ROLES[self.workload]})
        return [self.workload]

    def build_policy(self) -> Optional[Policy]:
        """A fresh instance of :attr:`policy`, or ``None``."""
        return make_policy(self.policy) if self.policy is not None else None

    def sim_config(self) -> SimulationConfig:
        return SimulationConfig(
            instructions_per_job=self.instructions_per_job,
            seed=self.seed,
            profile_num_sets=self.profile_num_sets,
            profile_accesses=self.profile_accesses,
        )

    def workload_spec(self, configuration_name: str):
        """The composed :class:`WorkloadSpec` for one configuration."""
        configuration = CONFIGURATIONS[configuration_name]
        if self.workload in MIX_ROLES:
            return mixed_workload(
                self.workload, configuration, count=self.count, seed=self.seed
            )
        return single_benchmark_workload(
            self.workload, configuration, count=self.count, seed=self.seed
        )

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["configurations"] = list(self.configurations)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict`'s form.

        A saved case is input from outside the program: a payload that
        is not an object, or a field of the wrong JSON type, raises
        ``ValueError``.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"scenario must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(Scenario)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown scenario field(s): {unknown}")
        for name, value in payload.items():
            _check_scenario_field(name, value)
        payload = dict(payload)
        if "configurations" in payload:
            payload["configurations"] = tuple(payload["configurations"])
        return Scenario(**payload)


def _check_scenario_field(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` has field ``name``'s JSON type."""
    if name == "configurations":
        valid = isinstance(value, list) and all(
            isinstance(item, str) for item in value
        )
        expected = "a list of strings"
    elif name == "policy":
        valid = value is None or isinstance(value, str)
        expected = "a string or null"
    elif name == "record_trace":
        valid = isinstance(value, bool)
        expected = "a boolean"
    elif name in ("workload", "pair_policy"):
        valid = isinstance(value, str)
        expected = "a string"
    else:
        valid = isinstance(value, int) and not isinstance(value, bool)
        expected = "an integer"
    if not valid:
        raise ValueError(
            f"scenario field {name!r} must be {expected}, got {value!r}"
        )


def profile_scenario_curves(
    scenario: Scenario, *, backend: str = "fast"
) -> Dict[str, MissRatioCurve]:
    """Profile the scenario's miss curves, bypassing every curve cache.

    Neither the in-process ``get_curve`` memo nor the on-disk
    miss-curve store keys on the backend, so differential arms must
    measure directly or they would compare a cached curve to itself.
    """
    return {
        name: profile_benchmark(
            get_benchmark(name),
            num_sets=scenario.profile_num_sets,
            accesses=scenario.profile_accesses,
            warmup=scenario.profile_warmup,
            backend=backend,
        )
        for name in scenario.benchmarks()
    }


@dataclass
class ArmResult:
    """Everything one arm produced: results plus artifact streams."""

    results: Dict[str, SystemResult]
    metrics_lines: List[str] = field(default_factory=list)
    events_lines: List[str] = field(default_factory=list)


def _run_sweep_arm(
    scenario: Scenario,
    *,
    curves: Dict[str, MissRatioCurve],
    jobs: int,
    policy: Optional[Policy] = None,
) -> ArmResult:
    """Run the scenario's sweep under a fresh observer; capture artifacts."""
    telemetry = Observer(record_samples=True)
    with observed(telemetry):
        results = run_all_configurations(
            scenario.workload,
            configurations=list(scenario.configurations),
            count=scenario.count,
            seed=scenario.seed,
            sim_config=scenario.sim_config(),
            curves=curves,
            record_trace=scenario.record_trace,
            jobs=jobs,
            policy=policy if policy is not None else scenario.build_policy(),
        )
    return ArmResult(
        results=results,
        metrics_lines=list(telemetry.metrics.to_jsonl_lines()),
        events_lines=list(telemetry.events.to_jsonl_lines()),
    )


def _run_fault_arm(
    scenario: Scenario,
    *,
    curves: Dict[str, MissRatioCurve],
    fault_config: Optional[FaultConfig],
    configurations: Sequence[str],
) -> ArmResult:
    """Run each configuration serially with the given fault config."""
    telemetry = Observer(record_samples=True)
    results: Dict[str, SystemResult] = {}
    policy = scenario.build_policy()
    with observed(telemetry):
        for name in configurations:
            results[name] = run_configuration(
                scenario.workload_spec(name),
                sim_config=scenario.sim_config(),
                curves=curves,
                record_trace=scenario.record_trace,
                fault_config=fault_config,
                policy=policy,
            )
    return ArmResult(
        results=results,
        metrics_lines=list(telemetry.metrics.to_jsonl_lines()),
        events_lines=list(telemetry.events.to_jsonl_lines()),
    )


# -----------------------------------------------------------------------------
# Comparison helpers
# -----------------------------------------------------------------------------


def _split_snapshot(
    results: Dict[str, SystemResult],
    *,
    exclude_prefixes: Tuple[str, ...] = (),
) -> Tuple[List[dict], Dict[str, str]]:
    """Flatten result snapshots into diffable records plus exact fields.

    Numeric scalars become ``obs.diff`` counter records (so the
    tolerance classes apply); strings, booleans and ``None`` are
    compared exactly on the side.  Keys are qualified by configuration
    so a mismatch names the configuration *and* the field.
    """
    records: List[dict] = []
    exact: Dict[str, str] = {}
    for config_name, result in results.items():
        for key, value in result.counter_snapshot().items():
            if any(key.startswith(prefix) for prefix in exclude_prefixes):
                continue
            qualified = f"{config_name}.{key}"
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                exact[qualified] = repr(value)
            else:
                records.append(
                    {"type": "counter", "name": qualified, "value": value}
                )
    return records, exact


def _compare_results(
    a: Dict[str, SystemResult],
    b: Dict[str, SystemResult],
    *,
    exclude_prefixes: Tuple[str, ...] = (),
) -> List[str]:
    """All differences between two result sets."""
    violations: List[str] = []
    if list(a) != list(b):
        violations.append(
            f"configuration sets differ: {list(a)} vs {list(b)}"
        )
        return violations
    a_records, a_exact = _split_snapshot(a, exclude_prefixes=exclude_prefixes)
    b_records, b_exact = _split_snapshot(b, exclude_prefixes=exclude_prefixes)
    report = diff_snapshots(a_records, b_records)
    if not report.clean:
        violations.extend(delta.describe() for delta in report.deltas)
    for key in sorted(a_exact.keys() | b_exact.keys()):
        left = a_exact.get(key, "<absent>")
        right = b_exact.get(key, "<absent>")
        if left != right:
            violations.append(f"~ {key}: {left} -> {right}")
    return violations


def _compare_stream(
    name: str, a_lines: List[str], b_lines: List[str]
) -> CheckResult:
    """Byte-compare two JSONL artifact streams, reporting first drifts."""
    violations: List[str] = []
    if len(a_lines) != len(b_lines):
        violations.append(
            f"line counts differ: {len(a_lines)} vs {len(b_lines)}"
        )
    for index, (left, right) in enumerate(zip(a_lines, b_lines)):
        if left != right:
            violations.append(f"line {index}: {left!r} != {right!r}")
            if len(violations) >= 4:  # first few drifts locate the bug
                violations.append("… further drifted lines suppressed")
                break
    return CheckResult.from_violations(f"{name}-stream-identical", violations)


def _without_series(lines: List[str], prefix: str) -> List[str]:
    """Drop JSONL metric lines whose series name starts with ``prefix``."""
    kept = []
    for line in lines:
        record = json.loads(line)
        if str(record.get("name", "")).startswith(prefix):
            continue
        kept.append(line)
    return kept


def _without_event_kind(lines: List[str], kind: str) -> List[str]:
    """Drop JSONL event lines of the given ``kind``."""
    return [
        line
        for line in lines
        if json.loads(line).get("kind") != kind
    ]


# -----------------------------------------------------------------------------
# The pairs
# -----------------------------------------------------------------------------


def _backend_pair(scenario: Scenario) -> PairReport:
    report = PairReport(
        kind="backend",
        subject=f"{scenario.describe()}, reference vs fast",
    )
    reference_curves = profile_scenario_curves(scenario, backend="reference")
    fast_curves = profile_scenario_curves(scenario)

    curve_violations: List[str] = []
    for name in scenario.benchmarks():
        ref, fast = reference_curves[name], fast_curves[name]
        if ref.points != fast.points:
            drifted = sorted(
                ways
                for ways in set(ref.points) | set(fast.points)
                if ref.points.get(ways) != fast.points.get(ways)
            )
            for ways in drifted[:8]:
                curve_violations.append(
                    f"~ {name}@{ways}w: {ref.points.get(ways)} -> "
                    f"{fast.points.get(ways)}"
                )
        if (
            ref.l2_accesses_per_instruction
            != fast.l2_accesses_per_instruction
        ):
            curve_violations.append(
                f"~ {name}.l2_accesses_per_instruction: "
                f"{ref.l2_accesses_per_instruction} -> "
                f"{fast.l2_accesses_per_instruction}"
            )
    report.checks.append(
        CheckResult.from_violations("miss-curves-identical", curve_violations)
    )

    # The arms are handed their curves, so neither builds a cache: any
    # divergence downstream comes from the curves alone.
    arm_a = _run_sweep_arm(scenario, curves=reference_curves, jobs=1)
    arm_b = _run_sweep_arm(scenario, curves=fast_curves, jobs=1)
    report.checks.append(
        CheckResult.from_violations(
            "counters-identical",
            _compare_results(arm_a.results, arm_b.results),
        )
    )
    report.checks.append(
        _compare_stream("metrics", arm_a.metrics_lines, arm_b.metrics_lines)
    )
    report.checks.append(
        _compare_stream("events", arm_a.events_lines, arm_b.events_lines)
    )
    return report


def _jobs_pair(scenario: Scenario) -> PairReport:
    report = PairReport(kind="jobs", subject=scenario.describe())
    # Both arms share one pre-profiled curve set so neither arm profiles
    # under its observer — who profiles (parent once vs each worker)
    # would otherwise legitimately differ between serial and parallel.
    curves = profile_scenario_curves(scenario)
    arm_a = _run_sweep_arm(scenario, curves=curves, jobs=1)
    arm_b = _run_sweep_arm(scenario, curves=curves, jobs=scenario.jobs)
    report.checks.append(
        CheckResult.from_violations(
            "counters-identical",
            _compare_results(arm_a.results, arm_b.results),
        )
    )
    report.checks.append(
        _compare_stream("metrics", arm_a.metrics_lines, arm_b.metrics_lines)
    )
    report.checks.append(
        _compare_stream("events", arm_a.events_lines, arm_b.events_lines)
    )
    return report


def _faults_pair(scenario: Scenario) -> PairReport:
    report = PairReport(kind="faults", subject=scenario.describe())
    # EqualPart rejects fault configs by design (no admission control
    # to degrade); the pair covers the QoS configurations.
    names = [
        name
        for name in scenario.configurations
        if not CONFIGURATIONS[name].equal_partition
    ]
    if not names:
        report.checks.append(
            CheckResult(
                name="zero-rate-faults-inert",
                passed=True,
                details=("no QoS configurations in scenario; vacuous",),
            )
        )
        return report
    curves = profile_scenario_curves(scenario)
    arm_a = _run_fault_arm(
        scenario, curves=curves, fault_config=None, configurations=names
    )
    zero_rate = FaultConfig(seed=scenario.seed)
    arm_b = _run_fault_arm(
        scenario, curves=curves, fault_config=zero_rate, configurations=names
    )
    report.checks.append(
        CheckResult.from_violations(
            "counters-identical",
            _compare_results(
                arm_a.results,
                arm_b.results,
                exclude_prefixes=_FAULT_EXEMPT_PREFIXES,
            ),
        )
    )
    inert_violations: List[str] = []
    for name, result in arm_b.results.items():
        resilience = result.resilience
        if resilience is None:
            inert_violations.append(f"{name}: missing resilience report")
            continue
        if resilience.faults_injected != 0:
            inert_violations.append(
                f"{name}: zero-rate config injected "
                f"{resilience.faults_injected} fault(s)"
            )
        if resilience.downgrade_count != 0:
            inert_violations.append(
                f"{name}: zero-rate config downgraded "
                f"{resilience.downgrade_count} job(s)"
            )
    report.checks.append(
        CheckResult.from_violations(
            "zero-rate-faults-inert", inert_violations
        )
    )
    report.checks.append(
        _compare_stream("events", arm_a.events_lines, arm_b.events_lines)
    )
    return report


def disabled_policy(name: str) -> Policy:
    """An adaptation-disabled instance of registry policy ``name``.

    It schedules every decision epoch but never acts.  Its name is
    deliberately unregistered, so ``checkpoint_simulator`` refuses it
    instead of resuming the active policy.
    """
    if name == "grow-shrink":
        return GrowShrinkWaysPolicy(dead_band=math.inf, name=f"{name}-off")
    if name == "bandwidth-steal":
        return BandwidthStealPolicy(low_watermark=-1.0, name=f"{name}-off")
    raise ValueError(f"unknown policy {name!r}")


def _epoch_due(results: Dict[str, SystemResult]) -> bool:
    """Whether a QoS-simulated run (EqualPart takes no policy) outlasted
    the first decision epoch, so a disabled policy must have fired one."""
    machine = MachineConfig()
    epoch = machine.cycles_to_seconds(
        machine.repartition_interval_instructions
    )
    return any(
        result.makespan_seconds > epoch
        for name, result in results.items()
        if not CONFIGURATIONS[name].equal_partition
    )


def events_fired_check(
    name: str,
    bare_metrics: List[str],
    disabled_metrics: List[str],
    *,
    epoch_due: bool = True,
) -> CheckResult:
    """The disabled arm must fire more engine events than the bare arm.

    Those extra events are its decision epochs; without them the pair
    would compare two policy-free runs and pass vacuously.  With no
    epoch due (``epoch_due`` false) none can fire, and the check passes.
    """
    if not epoch_due:
        return CheckResult(name, True, ("no run outlasted one epoch",))
    bare, disabled = (
        sum(
            record["value"]
            for record in map(json.loads, lines)
            if record.get("name") == "engine.events_fired"
        )
        for lines in (bare_metrics, disabled_metrics)
    )
    violations = []
    if disabled <= bare:
        violations.append(
            f"disabled arm fired {disabled} engine events vs {bare} "
            "without a policy: no decision epoch ran"
        )
    return CheckResult.from_violations(name, violations)


def _policy_pair(scenario: Scenario) -> PairReport:
    disabled = disabled_policy(scenario.pair_policy)
    report = PairReport(
        kind="policy",
        subject=f"{scenario.describe()}, {disabled.name} vs no policy",
    )
    # One shared curve set: the pair flips only the policy, and a
    # disabled adaptive policy must be indistinguishable from no policy
    # — epochs fire, nothing actuates.  The epoch events themselves
    # inflate the engine's own bookkeeping (events-fired totals, pending
    # counts at stop), so engine.* series and engine.run_end records are
    # exempt from the stream comparison and checked to have grown;
    # every simulator-level counter, metric and event must agree
    # byte-for-byte.
    curves = profile_scenario_curves(scenario)
    bare = dataclasses.replace(scenario, policy=None)
    for jobs in (1, scenario.jobs):
        arm_a = _run_sweep_arm(bare, curves=curves, jobs=jobs)
        arm_b = _run_sweep_arm(
            scenario, curves=curves, jobs=jobs, policy=disabled
        )
        suffix = f"jobs={jobs}"
        report.checks.append(
            CheckResult.from_violations(
                f"counters-identical[{suffix}]",
                _compare_results(arm_a.results, arm_b.results),
            )
        )
        report.checks.append(
            _compare_stream(
                f"metrics[{suffix}]",
                _without_series(arm_a.metrics_lines, "engine."),
                _without_series(arm_b.metrics_lines, "engine."),
            )
        )
        report.checks.append(
            events_fired_check(
                f"epochs-fired[{suffix}]",
                arm_a.metrics_lines,
                arm_b.metrics_lines,
                epoch_due=_epoch_due(arm_a.results),
            )
        )
        report.checks.append(
            _compare_stream(
                f"events[{suffix}]",
                _without_event_kind(arm_a.events_lines, "engine.run_end"),
                _without_event_kind(arm_b.events_lines, "engine.run_end"),
            )
        )
    return report


_PAIR_RUNNERS = {
    "backend": _backend_pair,
    "jobs": _jobs_pair,
    "faults": _faults_pair,
    "policy": _policy_pair,
}


def run_pair(scenario: Scenario, pair: str) -> PairReport:
    """Run one differential pair over ``scenario``."""
    try:
        runner = _PAIR_RUNNERS[pair]
    except KeyError:
        raise ValueError(
            f"unknown pair {pair!r}; expected one of {PAIR_NAMES}"
        ) from None
    return runner(scenario)


def run_diff(
    scenario: Scenario, *, pairs: Sequence[str] = PAIR_NAMES
) -> VerifyReport:
    """Run the requested differential pairs; the ``verify diff`` core."""
    report = VerifyReport(command="diff")
    for pair in pairs:
        report.reports.append(run_pair(scenario, pair))
    return report
