"""Tests for the plain set-associative cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.basic import SetAssociativeCache
from repro.cache.geometry import CacheGeometry


def small_cache(associativity=4, num_sets=8, policy="lru"):
    geometry = CacheGeometry.from_sets(num_sets, associativity, 64)
    return SetAssociativeCache(geometry, policy=policy)


def addr(set_index, tag, geometry=None):
    geometry = geometry or CacheGeometry.from_sets(8, 4, 64)
    return geometry.compose(tag, set_index)


class TestHitMiss:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_block_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x103F).hit  # last byte of the same block

    def test_different_blocks_do_not_alias(self):
        cache = small_cache()
        cache.access(0x1000)
        assert not cache.access(0x1040).hit

    def test_fill_uses_empty_ways_without_eviction(self):
        cache = small_cache(associativity=4)
        for tag in range(4):
            result = cache.access(addr(0, tag))
            assert result.evicted_address is None
        assert cache.occupancy() == 4

    def test_eviction_on_full_set_is_lru(self):
        cache = small_cache(associativity=2)
        a, b, c = addr(0, 1), addr(0, 2), addr(0, 3)
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        result = cache.access(c)
        assert result.evicted_address == b
        assert cache.contains(a)
        assert not cache.contains(b)

    def test_miss_rate_of_looping_over_too_large_working_set(self):
        # Classic LRU cliff: cycling N+1 blocks through an N-way set
        # misses every time.
        cache = small_cache(associativity=2, num_sets=1)
        blocks = [addr(0, t, cache.geometry) for t in range(3)]
        for _ in range(10):
            for block in blocks:
                cache.access(block)
        assert cache.stats.miss_rate == 1.0


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        cache = small_cache(associativity=1)
        cache.access(addr(0, 1), is_write=True)
        result = cache.access(addr(0, 2))
        assert result.writeback
        assert cache.stats.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(associativity=1)
        cache.access(addr(0, 1))
        result = cache.access(addr(0, 2))
        assert not result.writeback

    def test_write_hit_marks_dirty(self):
        cache = small_cache(associativity=1)
        cache.access(addr(0, 1))
        cache.access(addr(0, 1), is_write=True)
        assert cache.access(addr(0, 2)).writeback


class TestMaintenance:
    def test_invalidate_address(self):
        cache = small_cache()
        cache.access(0x2000)
        assert cache.invalidate_address(0x2000)
        assert not cache.contains(0x2000)
        assert not cache.invalidate_address(0x2000)

    def test_flush_reports_dirty_count(self):
        cache = small_cache()
        cache.access(addr(0, 1), is_write=True)
        cache.access(addr(1, 1))
        assert cache.flush() == 1
        assert cache.occupancy() == 0

    def test_resident_blocks_sorted(self):
        cache = small_cache()
        for a in (0x3000, 0x1000, 0x2000):
            cache.access(a)
        blocks = cache.resident_blocks()
        assert blocks == sorted(blocks)
        assert len(blocks) == 3


class TestStatsConsistency:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.booleans(),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_counter_invariants(self, accesses):
        cache = small_cache(associativity=2, num_sets=4)
        for block, is_write in accesses:
            cache.access(block * 64, is_write=is_write)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(accesses)
        assert stats.fills == stats.misses
        assert stats.evictions <= stats.misses
        assert cache.occupancy() == stats.misses - stats.evictions
        assert cache.occupancy() <= cache.geometry.num_blocks

    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = small_cache(associativity=2, num_sets=2)
        for block in blocks:
            cache.access(block * 64)
        assert cache.occupancy() <= 4

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_rerunning_resident_blocks_all_hit(self, blocks):
        # Inclusion check: after any access sequence, every block the
        # cache claims to hold must hit.
        cache = small_cache(associativity=4, num_sets=2)
        for block in blocks:
            cache.access(block * 64)
        for resident in cache.resident_blocks():
            assert cache.access(resident).hit
