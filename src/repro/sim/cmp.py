"""A trace-driven CMP node with real microarchitecture.

Where :mod:`repro.sim.system` models timing analytically from miss
curves, this module wires the *actual* substrates together — private
L1s, the way-partitioned shared L2, duplicate tag arrays, DRAM — so
stealing's shadow-tag feedback can run against real caches.  No figure
or bench runs it: the Figure 8 bench uses the analytic sweep and the
partitioning ablation builds its caches directly.  Its callers are the
microarchitecture tests (``tests/sim/test_cmp.py``,
``tests/sim/test_stealing_microarch.py``) and two examples
(``trace_replay.py``, ``resource_stealing_demo.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.cache.backend import (
    AnyCache,
    AnyPartitionedCache,
    make_cache,
    make_partitioned_cache,
    record_cache_stats,
)
from repro.cache.partitioned import PartitionClass
from repro.cache.shadow import ShadowTagArray
from repro.core.partition_manager import PartitionManager
from repro.cpu.core import CoreResult, InOrderCore, MemoryAccess
from repro.cpu.hierarchy import MemoryHierarchy
from repro.obs import get_observer
from repro.sim.config import MachineConfig
from repro.util.validation import check_positive


class CmpNode:
    """The Section 6 machine, built from the real cache substrate."""

    def __init__(self, machine: Optional[MachineConfig] = None) -> None:
        self.machine = machine if machine is not None else MachineConfig()
        self.l1_caches: Dict[int, AnyCache] = {
            core_id: make_cache(
                self.machine.l1_geometry, name=f"l1-core{core_id}"
            )
            for core_id in range(self.machine.num_cores)
        }
        self.l2: AnyPartitionedCache = make_partitioned_cache(
            self.machine.l2_geometry, self.machine.num_cores, name="l2"
        )
        self.dram = self.machine.make_dram()
        self.hierarchy = MemoryHierarchy(
            self.l1_caches,
            self.l2,
            self.dram,
            l1_latency=self.machine.l1_latency,
            l2_latency=self.machine.l2_latency,
        )
        self.partitions = PartitionManager(
            self.machine.l2_ways, self.machine.num_cores
        )
        self.cores: Dict[int, InOrderCore] = {}

    # -- partition control -------------------------------------------------------

    def assign_partition(
        self, core_id: int, ways: int, partition_class: PartitionClass
    ) -> None:
        """Allocate ``ways`` to ``core_id`` and sync the L2 targets."""
        self.partitions.assign(core_id, ways, partition_class)
        self.partitions.apply_to_cache(self.l2)

    def redistribute_spare(self) -> None:
        """Grant spare ways to best-effort cores and sync the L2."""
        self.partitions.redistribute_spare()
        self.partitions.apply_to_cache(self.l2)

    def attach_shadow(self, core_id: int, baseline_ways: int) -> ShadowTagArray:
        """Attach duplicate tags observing ``core_id`` (Section 4.3)."""
        check_positive("baseline_ways", baseline_ways)
        shadow = ShadowTagArray(
            self.machine.l2_geometry,
            baseline_ways,
            sample_period=self.machine.shadow_sample_period,
        )
        self.hierarchy.attach_shadow(core_id, shadow)
        return shadow

    # -- execution ---------------------------------------------------------------

    def core(self, core_id: int, *, cpi_l1_inf: float = 1.0) -> InOrderCore:
        """Get (or lazily create) the in-order core model for ``core_id``."""
        if core_id not in self.cores:
            self.cores[core_id] = InOrderCore(
                core_id, self.hierarchy, cpi_l1_inf=cpi_l1_inf
            )
        return self.cores[core_id]

    def run_segment(
        self,
        core_id: int,
        trace: Iterator[MemoryAccess],
        accesses: int,
    ) -> CoreResult:
        """Run ``accesses`` trace accesses on ``core_id``; return totals."""
        check_positive("accesses", accesses)
        return self.core(core_id).execute_block(trace, max_accesses=accesses)

    def run_interleaved(
        self,
        traces: Dict[int, Iterator[MemoryAccess]],
        accesses_per_core: int,
        *,
        quantum: int = 64,
    ) -> Dict[int, CoreResult]:
        """Round-robin-interleave several cores' traces through the L2.

        Models concurrent execution at access granularity: each core
        issues ``quantum`` accesses in turn until all have issued
        ``accesses_per_core``.  Interleaving is what makes shared-cache
        contention (and partitioning's defence against it) visible.
        """
        check_positive("accesses_per_core", accesses_per_core)
        check_positive("quantum", quantum)
        obs = get_observer()
        with obs.profiler.span("cmp.run_interleaved"):
            remaining = {core_id: accesses_per_core for core_id in traces}
            while any(count > 0 for count in remaining.values()):
                for core_id, trace in traces.items():
                    if remaining[core_id] <= 0:
                        continue
                    burst = min(quantum, remaining[core_id])
                    self.core(core_id).execute_block(
                        trace, max_accesses=burst
                    )
                    remaining[core_id] -= burst
        if obs.enabled:
            self.publish_metrics()
        return {core_id: self.core(core_id).result for core_id in traces}

    # -- inspection ---------------------------------------------------------------

    def l2_occupancies(self) -> Dict[int, int]:
        """Blocks held per core in the shared L2."""
        return {
            core_id: self.l2.occupancy_of(core_id)
            for core_id in range(self.machine.num_cores)
        }

    def publish_metrics(self) -> None:
        """Push the node's cache counters into the metrics registry.

        Snapshot-style (gauge assignment, not per-access increments):
        call after a segment, not inside the access loop.
        """
        record_cache_stats(self.l2, scope="l2")
        for core_id, l1 in self.l1_caches.items():
            record_cache_stats(l1, scope=f"l1.core{core_id}")

    def allocation_errors(self) -> Dict[int, float]:
        """Per-core mean deviation from target allocation (convergence)."""
        return {
            core_id: self.l2.allocation_error(core_id)
            for core_id in range(self.machine.num_cores)
        }
