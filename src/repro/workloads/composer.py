"""Workload composition (Section 6, Tables 2 and 3).

A workload is an ordered template of jobs to be *accepted*: the paper
measures the wall-clock time to complete the first ten accepted jobs,
with the ten jobs' execution modes set by the Table 2 configuration.

Two compositions are used:

- **single-benchmark**: ten instances of one benchmark (bzip2, hmmer,
  or gobmk), modes from the configuration's percentages.
- **mixed** (Table 3): jobs cycle through three benchmarks with fixed
  *roles* — Mix-1 assigns hmmer→Strict, gobmk→Elastic(5%),
  bzip2→Opportunistic (favourable to stealing: the insensitive
  benchmark donates, the sensitive one receives); Mix-2 swaps bzip2
  and gobmk's roles (unfavourable).

For configurations without Elastic or Opportunistic modes, a role maps
to the strongest mode the configuration supports (e.g. under All-Strict
every role runs Strict; under Hybrid-1 the Elastic role runs Strict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import ModeMixConfig
from repro.core.modes import ExecutionMode, ModeKind
from repro.util.rng import DeterministicRng
from repro.util.validation import check_positive
from repro.workloads.arrival import DeadlineClass, DeadlinePolicy
from repro.workloads.benchmarks import get_benchmark

#: L2 ways each job of a composed workload requests.
REQUESTED_WAYS = 7


@dataclass(frozen=True)
class JobSpec:
    """Template for one job in a workload.

    ``max_wall_clock`` optionally overrides the simulator's derived
    ``tw`` — the batch-system reality (Section 3.2) where users declare
    wall-clock limits themselves and may under-estimate; a reserved job
    that overruns its declared limit is terminated.
    """

    benchmark: str
    mode: ExecutionMode
    deadline_class: DeadlineClass
    requested_ways: int = REQUESTED_WAYS
    requested_cores: int = 1
    max_wall_clock: Optional[float] = None

    def __post_init__(self) -> None:
        get_benchmark(self.benchmark)  # validates the name
        check_positive("requested_ways", self.requested_ways)
        check_positive("requested_cores", self.requested_cores)
        if self.max_wall_clock is not None:
            check_positive("max_wall_clock", self.max_wall_clock)


@dataclass(frozen=True)
class WorkloadSpec:
    """An ordered job template plus its provenance."""

    name: str
    jobs: Tuple[JobSpec, ...]
    configuration: ModeMixConfig

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError(f"workload {self.name} has no jobs")

    @property
    def size(self) -> int:
        """Number of jobs in the template."""
        return len(self.jobs)

    def benchmarks_used(self) -> List[str]:
        """Distinct benchmark names, sorted."""
        return sorted({spec.benchmark for spec in self.jobs})


def _deadline_classes(
    count: int, seed: int, policy: Optional[DeadlinePolicy]
) -> List[DeadlineClass]:
    policy = policy if policy is not None else DeadlinePolicy()
    rng = DeterministicRng(seed, "deadline-classes")
    return policy.assign(count, rng)


def single_benchmark_workload(
    benchmark: str,
    configuration: ModeMixConfig,
    *,
    count: int = 10,
    seed: int = 42,
    requested_ways: int = REQUESTED_WAYS,
    deadline_policy: Optional[DeadlinePolicy] = None,
) -> WorkloadSpec:
    """Ten identical-benchmark jobs with configuration-assigned modes.

    Deadline classes use the same seed across configurations, so e.g.
    All-Strict and AutoDown see identical deadline draws — the paper's
    comparisons rely on that.
    """
    get_benchmark(benchmark)
    check_positive("count", count)
    modes = configuration.mode_sequence(count)
    classes = _deadline_classes(count, seed, deadline_policy)
    jobs = tuple(
        JobSpec(
            benchmark=benchmark,
            mode=mode,
            deadline_class=deadline_class,
            requested_ways=requested_ways,
        )
        for mode, deadline_class in zip(modes, classes)
    )
    return WorkloadSpec(
        name=f"{benchmark}-x{count}-{configuration.name}",
        jobs=jobs,
        configuration=configuration,
    )


#: Table 3 role assignments: benchmark → intended mode kind.
MIX_ROLES = {
    "Mix-1": (
        ("hmmer", ModeKind.STRICT),
        ("gobmk", ModeKind.ELASTIC),
        ("bzip2", ModeKind.OPPORTUNISTIC),
    ),
    "Mix-2": (
        ("hmmer", ModeKind.STRICT),
        ("bzip2", ModeKind.ELASTIC),
        ("gobmk", ModeKind.OPPORTUNISTIC),
    ),
}


def _role_mode(
    role: ModeKind, configuration: ModeMixConfig
) -> ExecutionMode:
    """Resolve a Table 3 role to a mode the configuration supports."""
    if configuration.equal_partition:
        return ExecutionMode.strict()
    if role is ModeKind.OPPORTUNISTIC:
        if configuration.opportunistic_fraction > 0:
            return ExecutionMode.opportunistic()
        return ExecutionMode.strict()
    if role is ModeKind.ELASTIC:
        if configuration.elastic_fraction > 0:
            return ExecutionMode.elastic(configuration.elastic_slack)
        if configuration.opportunistic_fraction > 0:
            # Hybrid-1 has no Elastic mode; the donor role stays Strict
            # (it made a throughput promise it cannot relax further).
            return ExecutionMode.strict()
        return ExecutionMode.strict()
    return ExecutionMode.strict()


def mixed_workload(
    mix_name: str,
    configuration: ModeMixConfig,
    *,
    count: int = 10,
    seed: int = 42,
    requested_ways: int = REQUESTED_WAYS,
    deadline_policy: Optional[DeadlinePolicy] = None,
) -> WorkloadSpec:
    """A Table 3 mixed-benchmark workload under ``configuration``."""
    try:
        roles = MIX_ROLES[mix_name]
    except KeyError:
        raise ValueError(
            f"unknown mix {mix_name!r}; expected one of {sorted(MIX_ROLES)}"
        ) from None
    check_positive("count", count)
    classes = _deadline_classes(count, seed, deadline_policy)
    jobs = []
    for index in range(count):
        benchmark, role = roles[index % len(roles)]
        jobs.append(
            JobSpec(
                benchmark=benchmark,
                mode=_role_mode(role, configuration),
                deadline_class=classes[index],
                requested_ways=requested_ways,
            )
        )
    return WorkloadSpec(
        name=f"{mix_name}-x{count}-{configuration.name}",
        jobs=tuple(jobs),
        configuration=configuration,
    )
