"""Equivalence properties across cache implementations.

When partitioning is trivial (one core owns every way), both the
per-set and the global-counter partitioned caches must behave exactly
like a plain LRU set-associative cache: same hits, same misses, same
victims, access for access.  These properties pin the partitioning
layers' correctness to the simple reference implementation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.basic import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.global_partition import GlobalPartitionedCache
from repro.cache.partitioned import PartitionClass, WayPartitionedCache


GEOMETRY = CacheGeometry.from_sets(4, 4, 64)

accesses_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # block index
        st.booleans(),  # is_write
    ),
    max_size=300,
)


@given(accesses_strategy)
@settings(max_examples=60, deadline=None)
def test_way_partitioned_single_owner_equals_plain_lru(accesses):
    reference = SetAssociativeCache(GEOMETRY)
    partitioned = WayPartitionedCache(GEOMETRY, num_cores=1)
    partitioned.set_target(0, GEOMETRY.associativity)
    partitioned.set_class(0, PartitionClass.RESERVED)

    for block, is_write in accesses:
        address = block * 64
        expected = reference.access(address, is_write=is_write)
        observed = partitioned.access(0, address, is_write=is_write)
        assert observed.hit == expected.hit
        assert observed.evicted_address == expected.evicted_address
        assert observed.writeback == expected.writeback

    assert partitioned.stats.misses == reference.stats.misses
    assert partitioned.stats.writebacks == reference.stats.writebacks


@given(accesses_strategy)
@settings(max_examples=60, deadline=None)
def test_global_partitioned_single_owner_equals_plain_lru(accesses):
    reference = SetAssociativeCache(GEOMETRY)
    partitioned = GlobalPartitionedCache(GEOMETRY, num_cores=1)
    partitioned.set_target(0, GEOMETRY.associativity)

    for block, is_write in accesses:
        address = block * 64
        expected = reference.access(address, is_write=is_write)
        observed = partitioned.access(0, address, is_write=is_write)
        assert observed.hit == expected.hit
        assert observed.evicted_address == expected.evicted_address

    assert partitioned.stats.misses == reference.stats.misses


@given(accesses_strategy)
@settings(max_examples=40, deadline=None)
def test_partitioned_schemes_agree_on_hit_sets_for_single_owner(accesses):
    """Both partitioning schemes, trivially configured, hold the same
    resident blocks after any access sequence."""
    per_set = WayPartitionedCache(GEOMETRY, num_cores=1)
    per_set.set_target(0, GEOMETRY.associativity)
    global_counter = GlobalPartitionedCache(GEOMETRY, num_cores=1)
    global_counter.set_target(0, GEOMETRY.associativity)

    for block, is_write in accesses:
        address = block * 64
        per_set.access(0, address, is_write=is_write)
        global_counter.access(0, address, is_write=is_write)

    for block, _ in accesses:
        address = block * 64
        assert per_set.contains(address) == _global_contains(
            global_counter, address
        )


def _global_contains(cache, address):
    set_index = cache.geometry.set_index(address)
    tag = cache.geometry.tag(address)
    return any(
        line.valid and line.tag == tag
        for line in cache._lines[set_index]
    )


class TestPartitionedIsolation:
    @given(accesses_strategy)
    @settings(max_examples=40, deadline=None)
    def test_partition_guarantees_private_cache_floor(self, accesses):
        """The isolation property QoS rests on: a core with a 2-way
        partition of the shared cache never misses more than it would
        in a *private* 2-way cache of the same sets, no matter what a
        co-runner does.  (It may miss less: spare capacity it borrows
        transiently only adds hits.)"""
        private = SetAssociativeCache(CacheGeometry.from_sets(4, 2, 64))
        shared = WayPartitionedCache(GEOMETRY, num_cores=2)
        shared.set_target(0, 2)
        shared.set_target(1, 2)
        shared.set_class(0, PartitionClass.RESERVED)
        shared.set_class(1, PartitionClass.RESERVED)

        aggressor_base = 1 << 20  # a distinct address region
        for block, is_write in accesses:
            address = block * 64
            private.access(address, is_write=is_write)
            shared.access(0, address, is_write=is_write)
            # The aggressor hammers every set between the victim's
            # accesses.
            shared.access(1, aggressor_base + (block % 16) * 64)
            shared.access(1, aggressor_base + ((block + 7) % 16) * 64)

        assert shared.stats.core(0).misses <= private.stats.misses
