"""Shared experiment drivers.

Benches and examples all run the same shapes of experiment: one
workload under one Table 2 configuration, or a benchmark/mix under all
five configurations with normalised throughput.  These helpers
centralise the dispatch (QoS simulator vs EqualPart) and the curve
cache so every entry point measures identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.parallel import parallel_map
from repro.analysis.pool import current_shared
from repro.core.config import CONFIGURATIONS, ModeMixConfig
from repro.core.policy import Policy
from repro.faults.model import FaultConfig
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.equalpart import EqualPartSimulator
from repro.sim.system import QoSSystemSimulator, SystemResult
from repro.workloads.composer import (
    WorkloadSpec,
    mixed_workload,
    single_benchmark_workload,
)
from repro.workloads.profiler import MissRatioCurve


def run_configuration(
    workload: WorkloadSpec,
    *,
    machine: Optional[MachineConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    curves: Optional[Dict[str, MissRatioCurve]] = None,
    record_trace: bool = True,
    fault_config: Optional[FaultConfig] = None,
    policy: Optional[Policy] = None,
) -> SystemResult:
    """Run one workload under its embedded configuration.

    ``fault_config`` arms the fault-injection layer; it only makes
    sense for the QoS simulator (EqualPart has no admission control to
    degrade gracefully, so combining the two is rejected).  ``policy``
    is an adaptive policy (:mod:`repro.core.policy`), reset at the start
    of the run so one instance can serve several runs in turn; it is
    ignored for EqualPart, which has no QoS machinery to actuate.
    """
    if workload.configuration.equal_partition:
        if fault_config is not None:
            raise ValueError(
                "fault injection requires the QoS simulator; "
                f"configuration {workload.configuration.name!r} uses "
                "equal partitioning"
            )
        simulator: object = EqualPartSimulator(
            workload,
            machine=machine,
            sim_config=sim_config,
            curves=curves,
            record_trace=record_trace,
        )
    else:
        simulator = QoSSystemSimulator(
            workload,
            machine=machine,
            sim_config=sim_config,
            curves=curves,
            record_trace=record_trace,
            fault_config=fault_config,
            policy=policy,
        )
    return simulator.run()  # type: ignore[union-attr]


def _workload_for(
    benchmark_or_mix: str,
    configuration: ModeMixConfig,
    *,
    count: int,
    seed: int,
) -> WorkloadSpec:
    if benchmark_or_mix in ("Mix-1", "Mix-2"):
        return mixed_workload(
            benchmark_or_mix, configuration, count=count, seed=seed
        )
    return single_benchmark_workload(
        benchmark_or_mix, configuration, count=count, seed=seed
    )


def _configuration_worker(name: str) -> Tuple[str, SystemResult]:
    """Run one configuration point (module-level for picklability).

    The per-task payload is just the configuration name; everything
    common to the sweep (benchmark, counts, machine/sim configs, the
    curve set) ships once per pool as the shared payload.
    """
    (
        benchmark_or_mix,
        count,
        seed,
        machine,
        sim_config,
        curves,
        record_trace,
        policy,
    ) = current_shared()
    workload = _workload_for(
        benchmark_or_mix, CONFIGURATIONS[name], count=count, seed=seed
    )
    return name, run_configuration(
        workload,
        machine=machine,
        sim_config=sim_config,
        curves=curves,
        record_trace=record_trace,
        policy=policy,
    )


def run_all_configurations(
    benchmark_or_mix: str,
    *,
    configurations: Optional[Iterable[str]] = None,
    count: int = 10,
    seed: int = 42,
    machine: Optional[MachineConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    curves: Optional[Dict[str, MissRatioCurve]] = None,
    record_trace: bool = False,
    jobs: Optional[int] = 1,
    policy: Optional[Policy] = None,
) -> Dict[str, SystemResult]:
    """Run a benchmark (or Table 3 mix) under every Table 2 configuration.

    Deadline draws share the seed across configurations, as in the
    paper's methodology.  ``jobs`` runs the configurations across that
    many processes (:mod:`repro.analysis.parallel`); each point's seed
    is fixed by the call, so parallel results are identical to serial.
    ``policy`` ships once in the pool's shared payload; every run resets
    it on start, so serial reuse and pooled copies replay identically.
    """
    names = (
        list(configurations)
        if configurations is not None
        else list(CONFIGURATIONS)
    )
    shared = (
        benchmark_or_mix,
        count,
        seed,
        machine,
        sim_config,
        curves,
        record_trace,
        policy,
    )
    pairs = parallel_map(
        _configuration_worker, names, jobs=jobs, shared=shared
    )
    return dict(pairs)


def normalised_throughputs(
    results: Dict[str, SystemResult],
    *,
    baseline: str = "All-Strict",
) -> Dict[str, float]:
    """Throughput of each configuration relative to ``baseline``.

    The Figure 5(b)/9(b) y-axis: >1 means the configuration completes
    the same ten jobs faster than All-Strict.
    """
    if baseline not in results:
        raise ValueError(
            f"baseline {baseline!r} missing from results "
            f"({sorted(results)})"
        )
    reference = results[baseline].throughput
    return {
        name: result.throughput.normalised_to(reference)
        for name, result in results.items()
    }
