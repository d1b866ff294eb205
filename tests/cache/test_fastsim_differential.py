"""Differential properties: fast kernel vs reference implementation.

The fast backend's licence to exist is *byte-identical counters*: any
trace, any geometry, any partition churn must produce exactly the same
hits, misses, evictions, writebacks, victims and per-core statistics as
the reference object model ("Validating Simplified Processor Models",
PAPERS.md — keep the slow model around to validate the fast one).
These property tests drive identical random traces through both
backends and compare every observable output, including the maintenance
surface (flush, invalidate, release, occupancy) and the shadow-tag
interaction through the full memory hierarchy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import make_cache, make_partitioned_cache
from repro.cache.basic import SetAssociativeCache
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.cache.shadow import ShadowTagArray
from repro.cpu.hierarchy import MemoryHierarchy
from repro.mem.dram import DramModel

GEOMETRIES = [
    CacheGeometry.from_sets(1, 1, 64),
    CacheGeometry.from_sets(1, 4, 64),
    CacheGeometry.from_sets(4, 4, 64),
    CacheGeometry.from_sets(8, 2, 32),
    CacheGeometry.from_sets(16, 8, 64),
]

accesses_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # block index
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=3),  # core id
    ),
    max_size=400,
)


def assert_same_result(observed, expected):
    assert observed.hit == expected.hit
    assert observed.evicted_address == expected.evicted_address
    assert observed.writeback == expected.writeback
    assert observed.victim_core == expected.victim_core


def assert_same_stats(fast, reference):
    assert fast.stats.snapshot() == reference.stats.snapshot()
    fast_cores = {k: v for k, v in fast.stats.per_core.items()}
    ref_cores = {k: v for k, v in reference.stats.per_core.items()}
    assert fast_cores == ref_cores


class TestBasicCacheDifferential:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @given(accesses=accesses_strategy)
    @settings(max_examples=25, deadline=None)
    def test_scalar_path_identical(self, geometry, accesses):
        reference = SetAssociativeCache(geometry, policy="lru")
        fast = FastSetAssociativeCache(geometry)
        block_bytes = geometry.block_bytes
        for block, is_write, core_id in accesses:
            address = block * block_bytes
            expected = reference.access(
                address, is_write=is_write, core_id=core_id
            )
            observed = fast.access(
                address, is_write=is_write, core_id=core_id
            )
            assert_same_result(observed, expected)
        assert_same_stats(fast, reference)
        assert fast.resident_blocks() == reference.resident_blocks()
        assert fast.occupancy() == reference.occupancy()

    @given(accesses=accesses_strategy)
    @settings(max_examples=25, deadline=None)
    def test_batch_path_identical(self, accesses):
        geometry = CacheGeometry.from_sets(4, 4, 64)
        reference = SetAssociativeCache(geometry, policy="lru")
        fast = FastSetAssociativeCache(geometry)
        addresses = [block * 64 for block, _, _ in accesses]
        writes = [w for _, w, _ in accesses]
        cores = [c for _, _, c in accesses]
        expected = reference.access_block(addresses, writes, cores)
        observed = fast.access_block(addresses, writes, cores)
        assert observed == expected
        assert_same_stats(fast, reference)

    @given(accesses=accesses_strategy)
    @settings(max_examples=20, deadline=None)
    def test_maintenance_surface_identical(self, accesses):
        geometry = CacheGeometry.from_sets(4, 2, 64)
        reference = SetAssociativeCache(geometry, policy="lru")
        fast = FastSetAssociativeCache(geometry)
        for index, (block, is_write, core_id) in enumerate(accesses):
            address = block * 64
            if index % 13 == 12:
                assert fast.invalidate_address(
                    address
                ) == reference.invalidate_address(address)
                continue
            reference.access(address, is_write=is_write, core_id=core_id)
            fast.access(address, is_write=is_write, core_id=core_id)
            assert fast.contains(address) == reference.contains(address)
        assert fast.flush() == reference.flush()
        assert fast.occupancy() == reference.occupancy() == 0

    @given(accesses=accesses_strategy)
    @settings(max_examples=20, deadline=None)
    def test_interleaved_scalar_and_batch_identical(self, accesses):
        """Scalar accesses between batches see the batches' state.

        ``access_block`` inlines the scalar path's LRU update; recency
        order must survive arbitrary interleaving of the two.
        """
        geometry = CacheGeometry.from_sets(4, 4, 64)
        reference = SetAssociativeCache(geometry, policy="lru")
        fast = FastSetAssociativeCache(geometry)
        for index in range(0, len(accesses), 7):
            window = accesses[index:index + 7]
            if (index // 7) % 2 == 0:
                addresses = [block * 64 for block, _, _ in window]
                writes = [w for _, w, _ in window]
                cores = [c for _, _, c in window]
                expected = reference.access_block(addresses, writes, cores)
                observed = fast.access_block(addresses, writes, cores)
                assert observed == expected
            else:
                for block, is_write, core_id in window:
                    expected = reference.access(
                        block * 64, is_write=is_write, core_id=core_id
                    )
                    observed = fast.access(
                        block * 64, is_write=is_write, core_id=core_id
                    )
                    assert_same_result(observed, expected)
        assert_same_stats(fast, reference)
        assert fast.resident_blocks() == reference.resident_blocks()

    def test_scalar_broadcast_matches_sequences(self):
        geometry = CacheGeometry.from_sets(4, 4, 64)
        broadcast = FastSetAssociativeCache(geometry)
        explicit = FastSetAssociativeCache(geometry)
        addresses = [i * 64 for i in range(120)]
        a = broadcast.access_block(addresses, True, 2)
        b = explicit.access_block(
            addresses, [True] * len(addresses), [2] * len(addresses)
        )
        assert a == b
        assert_same_stats(broadcast, explicit)

    def test_fast_backend_rejects_non_lru(self):
        geometry = CacheGeometry.from_sets(4, 4, 64)
        with pytest.raises(ValueError, match="LRU only"):
            FastSetAssociativeCache(geometry, policy="fifo")

    def test_fast_backend_rejects_negative_core(self):
        cache = FastSetAssociativeCache(CacheGeometry.from_sets(4, 4, 64))
        with pytest.raises(ValueError, match="core_id"):
            cache.access(0, core_id=-1)


partition_ops = st.lists(
    st.one_of(
        # an access: (block, is_write, core)
        st.tuples(
            st.just("access"),
            st.integers(min_value=0, max_value=255),
            st.booleans(),
            st.integers(min_value=0, max_value=2),
        ),
        # partition churn
        st.tuples(
            st.just("target"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.just(False),
        ),
        st.tuples(
            st.just("class"),
            st.integers(min_value=0, max_value=2),
            st.sampled_from(list(PartitionClass)),
            st.just(False),
        ),
        st.tuples(
            st.just("release"),
            st.integers(min_value=0, max_value=2),
            st.just(0),
            st.just(False),
        ),
        st.tuples(
            st.just("flush"),
            st.integers(min_value=0, max_value=2),
            st.just(0),
            st.just(False),
        ),
    ),
    max_size=400,
)


class TestPartitionedCacheDifferential:
    @given(ops=partition_ops)
    @settings(max_examples=30, deadline=None)
    def test_interleaved_access_and_churn_identical(self, ops):
        geometry = CacheGeometry.from_sets(4, 8, 64)
        reference = WayPartitionedCache(geometry, num_cores=3)
        fast = FastWayPartitionedCache(geometry, num_cores=3)
        for op, first, second, third in ops:
            if op == "access":
                address = first * 64
                expected = reference.access(third, address, is_write=second)
                observed = fast.access(third, address, is_write=second)
                assert_same_result(observed, expected)
            elif op == "target":
                # Keep the targets-sum invariant: retarget within the
                # headroom the reference cache would accept.
                headroom = (
                    geometry.associativity
                    - sum(reference.target_of(c) for c in range(3))
                    + reference.target_of(first)
                )
                ways = min(second, headroom)
                reference.set_target(first, ways)
                fast.set_target(first, ways)
            elif op == "class":
                reference.set_class(first, second)
                fast.set_class(first, second)
            elif op == "release":
                reference.release_core(first)
                fast.release_core(first)
            elif op == "flush":
                assert fast.flush_core(first) == reference.flush_core(first)
        assert_same_stats(fast, reference)
        for core in range(3):
            assert fast.occupancy_of(core) == reference.occupancy_of(core)
            assert fast.allocation_error(core) == pytest.approx(
                reference.allocation_error(core)
            )
            assert fast.target_of(core) == reference.target_of(core)
            assert fast.class_of(core) is reference.class_of(core)
        for set_index in range(geometry.num_sets):
            for core in range(3):
                assert fast.set_occupancy(core, set_index) == (
                    reference.set_occupancy(core, set_index)
                )

    @given(accesses=accesses_strategy)
    @settings(max_examples=25, deadline=None)
    def test_batch_path_identical(self, accesses):
        geometry = CacheGeometry.from_sets(8, 8, 64)
        reference = WayPartitionedCache(geometry, num_cores=4)
        fast = FastWayPartitionedCache(geometry, num_cores=4)
        for cache in (reference, fast):
            for core, (target, kind) in enumerate(
                [
                    (3, PartitionClass.RESERVED),
                    (2, PartitionClass.BEST_EFFORT),
                    (2, PartitionClass.RESERVED),
                    (1, PartitionClass.BEST_EFFORT),
                ]
            ):
                cache.set_target(core, target)
                cache.set_class(core, kind)
        addresses = [block * 64 for block, _, _ in accesses]
        writes = [w for _, w, _ in accesses]
        cores = [c for _, _, c in accesses]
        expected = reference.access_block(addresses, writes, cores)
        observed = fast.access_block(addresses, writes, cores)
        assert observed == expected
        assert_same_stats(fast, reference)


class TestHierarchyDifferential:
    """The full L1 → partitioned L2 → DRAM path, including shadow tags."""

    @given(accesses=accesses_strategy)
    @settings(max_examples=15, deadline=None)
    def test_hierarchy_with_shadow_identical(self, accesses):
        outcomes = {}
        for backend in ("reference", "fast"):
            l1s = {
                core: make_cache(
                    CacheGeometry.from_sets(4, 2, 64),
                    name=f"l1-{core}",
                    backend=backend,
                )
                for core in range(4)
            }
            l2 = make_partitioned_cache(
                CacheGeometry.from_sets(8, 8, 64),
                4,
                backend=backend,
            )
            for core in range(4):
                l2.set_target(core, 2)
                l2.set_class(core, PartitionClass.RESERVED)
            dram = DramModel()
            hierarchy = MemoryHierarchy(l1s, l2, dram)
            shadow = ShadowTagArray(
                CacheGeometry.from_sets(8, 8, 64), 4, sample_period=2
            )
            hierarchy.attach_shadow(0, shadow)
            trail = []
            for block, is_write, core_id in accesses:
                outcome = hierarchy.access(
                    core_id, block * 64, is_write=is_write
                )
                trail.append((outcome.level, outcome.latency_cycles))
            outcomes[backend] = (
                trail,
                dram.reads,
                dram.writebacks,
                shadow.sampled_accesses,
                shadow.shadow_misses,
                shadow.main_misses,
                l2.stats.snapshot(),
            )
        assert outcomes["fast"] == outcomes["reference"]

    @given(accesses=accesses_strategy)
    @settings(max_examples=15, deadline=None)
    def test_batch_hierarchy_matches_scalar(self, accesses):
        """access_block through the hierarchy ≡ per-access calls."""
        results = []
        for batched in (False, True):
            l1s = {
                0: make_cache(
                    CacheGeometry.from_sets(4, 2, 64), backend="fast"
                )
            }
            l2 = make_partitioned_cache(
                CacheGeometry.from_sets(8, 4, 64), 1, backend="fast"
            )
            l2.set_target(0, 4)
            dram = DramModel()
            hierarchy = MemoryHierarchy(l1s, l2, dram)
            addresses = [block * 64 for block, _, _ in accesses]
            writes = [w for _, w, _ in accesses]
            if batched:
                outcome = hierarchy.access_block(0, addresses, writes)
                summary = (
                    outcome.l1_hits,
                    outcome.l2_hits,
                    outcome.l2_misses,
                    outcome.latency_cycles,
                )
            else:
                l1_hits = l2_hits = l2_misses = 0
                latency = 0.0
                for address, is_write in zip(addresses, writes):
                    one = hierarchy.access(0, address, is_write=is_write)
                    latency += one.latency_cycles
                    if one.l2_hit is None:
                        l1_hits += 1
                    elif one.l2_hit:
                        l2_hits += 1
                    else:
                        l2_misses += 1
                summary = (l1_hits, l2_hits, l2_misses, latency)
            results.append((summary, dram.reads, dram.writebacks))
        assert results[0] == results[1]
