"""Parameter-sweep utilities.

The paper's evaluation sweeps one knob at a time (the Elastic slack in
Figure 8; implicitly the workload mix in Figures 5/9).  These helpers
make such sweeps one-liners over the shared simulation stack, for the
benches and for downstream what-if studies:

- :func:`sweep_elastic_slack` — the Figure 8 axis.
- :func:`sweep_cache_size` — how the headline results shift with the
  L2 capacity (a study the paper's machine fixes at 2 MB).
- :func:`sweep_arrival_rate` — cluster acceptance vs offered load.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.parallel import parallel_map
from repro.analysis.pool import current_shared
from repro.cache.geometry import CacheGeometry
from repro.core.cluster import ClusterJobProfile, ClusterSimulator
from repro.core.config import ModeMixConfig
from repro.core.modes import ModeKind
from repro.analysis.runner import run_configuration
from repro.sim.config import MachineConfig, SimulationConfig
from repro.workloads.composer import single_benchmark_workload
from repro.workloads.profiler import MissRatioCurve


@dataclass(frozen=True)
class SlackPoint:
    """One Figure 8 sample."""

    slack: float
    elastic_mean_wall_clock: float
    opportunistic_mean_wall_clock: float
    steal_transfers: int
    deadline_hit_rate: float


def _mean_or_nan(values: Sequence[float]) -> float:
    """Mean, or NaN for an empty class.

    A mode mix can deterministically round to zero Elastic or
    Opportunistic jobs (small counts, skewed fractions); that is a
    legitimate sweep point, not a crash.  NaN propagates cleanly to
    JSON-free renderers (the Figure 8 table shows "-") and poisons any
    arithmetic that would silently misuse it.
    """
    return statistics.mean(values) if values else float("nan")


def _slack_worker(slack: float) -> SlackPoint:
    """Simulate one Figure 8 slack point (module-level for pickling)."""
    benchmark, curves, sim_config, count = current_shared()
    config = ModeMixConfig(
        name=f"Hybrid-2(X={slack:.0%})",
        strict_fraction=0.4,
        elastic_fraction=0.3,
        opportunistic_fraction=0.3,
        elastic_slack=slack,
    )
    workload = single_benchmark_workload(benchmark, config, count=count)
    result = run_configuration(
        workload,
        sim_config=sim_config,
        curves=curves,
        record_trace=False,
    )
    elastic = [
        j.wall_clock_time
        for j in result.jobs
        if j.requested_mode.kind is ModeKind.ELASTIC
    ]
    opportunistic = [
        j.wall_clock_time
        for j in result.jobs
        if j.requested_mode.kind is ModeKind.OPPORTUNISTIC
    ]
    return SlackPoint(
        slack=slack,
        elastic_mean_wall_clock=_mean_or_nan(elastic),
        opportunistic_mean_wall_clock=_mean_or_nan(opportunistic),
        steal_transfers=result.steal_transfers,
        deadline_hit_rate=result.deadline_report.hit_rate,
    )


def sweep_elastic_slack(
    benchmark: str,
    slacks: Sequence[float],
    *,
    curves: Optional[Dict[str, MissRatioCurve]] = None,
    sim_config: Optional[SimulationConfig] = None,
    count: int = 10,
    jobs: Optional[int] = 1,
) -> List[SlackPoint]:
    """Run Hybrid-2 with each slack X; collect the Figure 8 series.

    ``count`` sizes the workload; small counts can round a mode class
    to zero jobs, in which case that class's mean wall clock is NaN.
    ``jobs`` distributes the slack points across processes; every
    point's inputs are fixed by the call, so the series is identical
    to a serial run.
    """
    return parallel_map(
        _slack_worker,
        list(slacks),
        jobs=jobs,
        shared=(benchmark, curves, sim_config, count),
    )


@dataclass(frozen=True)
class CacheSizePoint:
    """One cache-capacity sample."""

    l2_ways: int
    l2_bytes: int
    makespan_cycles: float
    deadline_hit_rate: float


def _cache_size_worker(ways: int) -> CacheSizePoint:
    """Simulate one cache-capacity point (module-level for pickling)."""
    (
        benchmark,
        configuration,
        curves,
        sim_config,
        requested_fraction,
    ) = current_shared()
    machine = MachineConfig(
        l2_geometry=CacheGeometry.from_sets(2048, ways, 64)
    )
    requested = max(1, round(ways * requested_fraction))
    workload = single_benchmark_workload(
        benchmark, configuration, requested_ways=requested
    )
    result = run_configuration(
        workload,
        machine=machine,
        sim_config=sim_config,
        curves=curves,
        record_trace=False,
    )
    return CacheSizePoint(
        l2_ways=ways,
        l2_bytes=machine.l2_geometry.size_bytes,
        makespan_cycles=result.makespan_cycles,
        deadline_hit_rate=result.deadline_report.hit_rate,
    )


def sweep_cache_size(
    benchmark: str,
    way_counts: Sequence[int],
    *,
    configuration: Optional[ModeMixConfig] = None,
    curves: Optional[Dict[str, MissRatioCurve]] = None,
    sim_config: Optional[SimulationConfig] = None,
    requested_fraction: float = 7 / 16,
    jobs: Optional[int] = 1,
) -> List[CacheSizePoint]:
    """Scale the L2 (way count at 128 KB/way) and rerun the workload.

    Jobs keep requesting the same *fraction* of the cache the paper's
    jobs do (7/16), so the admission pattern (two-at-a-time) is
    preserved while per-job capacity grows or shrinks.  ``jobs``
    distributes the capacity points across processes.
    """
    from repro.core.config import ALL_STRICT

    configuration = configuration if configuration is not None else ALL_STRICT
    for ways in way_counts:
        if ways < 2:
            raise ValueError(f"need at least 2 ways, got {ways}")
    return parallel_map(
        _cache_size_worker,
        list(way_counts),
        jobs=jobs,
        shared=(
            benchmark,
            configuration,
            curves,
            sim_config,
            requested_fraction,
        ),
    )


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load sample."""

    mean_interarrival: float
    acceptance_rate: float
    mean_load: float


def _arrival_rate_worker(interarrival: float) -> LoadPoint:
    """Simulate one offered-load point (module-level for pickling)."""
    profiles, num_nodes, horizon, seed = current_shared()
    report = ClusterSimulator(
        num_nodes=num_nodes,
        profiles=list(profiles),
        mean_interarrival=interarrival,
        seed=seed,
    ).run(horizon=horizon)
    return LoadPoint(
        mean_interarrival=interarrival,
        acceptance_rate=report.acceptance_rate,
        mean_load=report.mean_load,
    )


def sweep_arrival_rate(
    profiles: Sequence[ClusterJobProfile],
    interarrivals: Sequence[float],
    *,
    num_nodes: int = 4,
    horizon: float = 40.0,
    seed: int = 42,
    jobs: Optional[int] = 1,
) -> List[LoadPoint]:
    """Cluster acceptance as the offered load grows.

    Every point reuses the same ``seed`` (matching the serial
    behaviour), so acceptance differences across points reflect only
    the offered load; ``jobs`` distributes points across processes.
    """
    return parallel_map(
        _arrival_rate_worker,
        list(interarrivals),
        jobs=jobs,
        shared=(tuple(profiles), num_nodes, horizon, seed),
    )
