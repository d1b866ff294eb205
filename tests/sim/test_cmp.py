"""Tests for the trace-driven CMP node (real microarchitecture)."""

from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.sim.cmp import CmpNode
from repro.sim.config import MachineConfig
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark


def small_machine():
    """A scaled-down machine so trace tests stay fast."""
    return MachineConfig(
        num_cores=2,
        l1_geometry=CacheGeometry.from_sets(16, 2, 64),
        l2_geometry=CacheGeometry.from_sets(64, 8, 64),
        shadow_sample_period=4,
    )


def bound_trace(benchmark, *, num_sets=64, seed=7, base=0):
    generator = get_benchmark(benchmark).make_generator()
    generator.bind(
        num_sets=num_sets,
        block_bytes=64,
        rng=DeterministicRng(seed, benchmark),
        base_address=base,
    )
    from repro.cpu.core import MemoryAccess

    def stream():
        while True:
            yield from map(MemoryAccess, *generator.address_block(1024))

    return stream()


class TestConstruction:
    def test_default_machine_shape(self):
        node = CmpNode()
        assert len(node.l1_caches) == 4
        assert node.l2.geometry.num_sets == 2048
        assert node.partitions.total_ways == 16

    def test_partition_assignment_syncs_cache(self):
        node = CmpNode(small_machine())
        node.assign_partition(0, 5, PartitionClass.RESERVED)
        assert node.l2.target_of(0) == 5
        assert node.l2.class_of(0) is PartitionClass.RESERVED

    def test_redistribute_spare_to_best_effort(self):
        node = CmpNode(small_machine())
        node.assign_partition(0, 5, PartitionClass.RESERVED)
        node.assign_partition(1, 0, PartitionClass.BEST_EFFORT)
        node.redistribute_spare()
        assert node.l2.target_of(1) == 3


class TestExecution:
    def test_run_segment_accumulates(self):
        node = CmpNode(small_machine())
        node.assign_partition(0, 8, PartitionClass.RESERVED)
        result = node.run_segment(0, bound_trace("gobmk"), 2000)
        assert result.accesses == 2000
        assert result.cycles > 0
        assert 0.0 < result.l2_miss_rate <= 1.0

    def test_interleaved_execution_shares_l2(self):
        node = CmpNode(small_machine())
        node.assign_partition(0, 6, PartitionClass.RESERVED)
        node.assign_partition(1, 2, PartitionClass.RESERVED)
        results = node.run_interleaved(
            {
                0: bound_trace("bzip2", base=0),
                1: bound_trace("gobmk", base=1 << 30),
            },
            accesses_per_core=3000,
        )
        assert results[0].accesses == 3000
        assert results[1].accesses == 3000
        # Both cores hold blocks in the shared L2.
        occupancies = node.l2_occupancies()
        assert occupancies[0] > 0
        assert occupancies[1] > 0

    def test_partition_convergence_under_contention(self):
        # The Section 4.1 property on the real L2: per-set occupancy
        # converges toward targets even with a co-runner.
        node = CmpNode(small_machine())
        node.assign_partition(0, 6, PartitionClass.RESERVED)
        node.assign_partition(1, 2, PartitionClass.RESERVED)
        node.run_interleaved(
            {
                0: bound_trace("bzip2", base=0),
                1: bound_trace("mcf", base=1 << 30),
            },
            accesses_per_core=12_000,
        )
        errors = node.allocation_errors()
        assert errors[0] < 1.5
        assert errors[1] < 1.5


class TestShadowAttachment:
    def test_shadow_observes_l2_stream(self):
        node = CmpNode(small_machine())
        node.assign_partition(0, 6, PartitionClass.RESERVED)
        shadow = node.attach_shadow(0, baseline_ways=6)
        node.run_segment(0, bound_trace("bzip2"), 4000)
        assert shadow.sampled_accesses > 0

    def test_shadow_respects_sample_period(self):
        node = CmpNode(small_machine())
        shadow = node.attach_shadow(0, baseline_ways=4)
        assert shadow.sample_period == 4
        assert shadow.num_sampled_sets == 16
