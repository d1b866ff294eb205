"""Cache-space sensitivity classification (Figure 4, Section 6).

The paper classifies its fifteen benchmarks by the CPI increase
suffered when the L2 allocation shrinks from 7 ways to 1 way, and from
7 ways to 4 ways, then reads three groups off the scatter:

- Group 1 (highly sensitive): large increases on both axes.
- Group 2 (moderately sensitive): large 7→1 increase, small 7→4.
- Group 3 (insensitive): small increases on both axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.parallel import current_shared, parallel_map
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkProfile
from repro.workloads.profiler import MissRatioCurve, get_curve


@dataclass(frozen=True)
class SensitivityPoint:
    """One benchmark's coordinates in the Figure 4 scatter."""

    benchmark: str
    declared_group: int
    cpi_increase_7_to_1: float
    cpi_increase_7_to_4: float

    def classify(self, *, threshold: float = 0.25) -> int:
        """Assign a group from the coordinates.

        Group 1 when even the shallow cut (7→4) already costs ≥ the
        threshold in CPI; Group 3 when even the deep cut (7→1) costs
        less than it; Group 2 otherwise — hurt by deep cuts only, the
        Figure 4 shape of the moderately-sensitive cluster.
        """
        if self.cpi_increase_7_to_4 >= threshold:
            return 1
        if self.cpi_increase_7_to_1 < threshold:
            return 3
        return 2


def sensitivity_point(
    profile: BenchmarkProfile,
    *,
    curve: Optional[MissRatioCurve] = None,
    num_sets: int = 64,
    accesses: int = 40_000,
) -> SensitivityPoint:
    """Measure one benchmark's Figure 4 coordinates from its curve."""
    if curve is None:
        curve = get_curve(profile, num_sets=num_sets, accesses=accesses)
    cpi_model = profile.cpi_model()
    return SensitivityPoint(
        benchmark=profile.name,
        declared_group=profile.group,
        cpi_increase_7_to_1=cpi_model.cpi_increase_fraction(
            curve.mpi(7), curve.mpi(1)
        ),
        cpi_increase_7_to_4=cpi_model.cpi_increase_fraction(
            curve.mpi(7), curve.mpi(4)
        ),
    )


def _sensitivity_worker(name: str) -> SensitivityPoint:
    """Profile one benchmark's point (module-level for pickling)."""
    num_sets, accesses = current_shared()
    return sensitivity_point(
        BENCHMARKS[name], num_sets=num_sets, accesses=accesses
    )


def sensitivity_points(
    benchmarks: Optional[Iterable[str]] = None,
    *,
    num_sets: int = 64,
    accesses: int = 40_000,
    jobs: Optional[int] = 1,
) -> List[SensitivityPoint]:
    """Figure 4 coordinates for the given (default: all 15) benchmarks.

    ``jobs`` profiles benchmarks across processes; every point is a
    pure function of its (benchmark, geometry, seed) inputs, so the
    scatter is identical to a serial run.  Workers and the parent share
    the on-disk miss-curve store, so a parallel profiling pass warms
    the cache for everyone.
    """
    names = sorted(benchmarks) if benchmarks is not None else sorted(BENCHMARKS)
    return parallel_map(
        _sensitivity_worker,
        names,
        jobs=jobs,
        shared=(num_sets, accesses),
    )


def classify_benchmarks(
    points: Iterable[SensitivityPoint],
    *,
    threshold: float = 0.25,
) -> Dict[str, int]:
    """Group assignment for each benchmark from measured coordinates."""
    return {
        point.benchmark: point.classify(threshold=threshold)
        for point in points
    }
