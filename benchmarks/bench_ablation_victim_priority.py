"""Ablation: QoS-aware victim priority speeds repartitioning (§4.1).

When stealing shrinks an Elastic donor's target, the paper's modified
victim selection evicts over-allocated *Strict/Elastic* blocks before
over-allocated Opportunistic blocks, so the donor converges to its
reduced allocation — and the stolen capacity actually reaches the
recipient — as fast as possible.

The priority only matters when both kinds of over-allocated blocks
coexist, so the scenario is: a Reserved donor (target collapsed from
10 to 2 ways), an Opportunistic bystander holding over-allocated
blocks of its own, and an Opportunistic recipient whose misses drive
eviction.  With the paper's priority the recipient's misses drain the
*donor* first; without it (donor classed best-effort like everyone
else) LRU picks victims from donor and bystander indiscriminately and
the donor lingers above target.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.util.rng import DeterministicRng
from repro.util.tables import format_table
from repro.workloads.benchmarks import get_benchmark

NUM_SETS = 64
WAYS = 16
DONOR, BYSTANDER, RECIPIENT = 0, 1, 2


def bound_stream(benchmark, base, seed):
    generator = get_benchmark(benchmark).make_generator()
    generator.bind(
        num_sets=NUM_SETS,
        block_bytes=64,
        rng=DeterministicRng(seed, benchmark),
        base_address=base,
    )
    while True:
        yield from zip(*generator.address_block(1024))


def donor_excess_after(donor_class, recipient_accesses):
    """Donor blocks above target after the recipient issues N accesses."""
    geometry = CacheGeometry.from_sets(NUM_SETS, WAYS, 64)
    cache = WayPartitionedCache(geometry, 3)
    cache.set_class(DONOR, donor_class)
    cache.set_class(BYSTANDER, PartitionClass.BEST_EFFORT)
    cache.set_class(RECIPIENT, PartitionClass.BEST_EFFORT)
    cache.set_target(DONOR, 10)
    cache.set_target(BYSTANDER, 6)

    donor = bound_stream("mcf", base=0, seed=3)
    bystander = bound_stream("astar", base=1 << 30, seed=7)
    recipient = bound_stream("bzip2", base=1 << 31, seed=5)

    # Warm up: donor and bystander fill their allocations.
    for _ in range(25_000):
        address, is_write = next(donor)
        cache.access(DONOR, address, is_write=is_write)
        address, is_write = next(bystander)
        cache.access(BYSTANDER, address, is_write=is_write)

    # Stealing: the donor's target collapses 10 -> 2; the freed ways go
    # to the recipient.  The bystander's stale over-allocation remains.
    cache.set_target(DONOR, 2)
    cache.set_target(BYSTANDER, 2)
    cache.set_target(RECIPIENT, 12)

    for _ in range(recipient_accesses):
        address, is_write = next(recipient)
        cache.access(RECIPIENT, address, is_write=is_write)

    target_blocks = 2 * NUM_SETS
    return max(0, cache.occupancy_of(DONOR) - target_blocks)


def run_ablation(_):
    checkpoints = (500, 1_500, 4_000)
    with_priority = [
        donor_excess_after(PartitionClass.RESERVED, n) for n in checkpoints
    ]
    without_priority = [
        donor_excess_after(PartitionClass.BEST_EFFORT, n)
        for n in checkpoints
    ]
    return checkpoints, with_priority, without_priority


def test_ablation_victim_priority(benchmark):
    checkpoints, with_priority, without_priority = benchmark.pedantic(
        run_ablation, args=(None,), rounds=1, iterations=1
    )

    rows = [
        [n, w, wo]
        for n, w, wo in zip(checkpoints, with_priority, without_priority)
    ]
    print()
    print(
        format_table(
            [
                "recipient accesses",
                "donor excess blocks (priority)",
                "donor excess (no priority)",
            ],
            rows,
            title="Ablation — donor convergence after stealing 8 ways",
        )
    )

    # With the QoS priority the donor drains at least as fast at every
    # checkpoint, and strictly faster somewhere early on.
    assert all(
        w <= wo for w, wo in zip(with_priority, without_priority)
    )
    assert any(
        w < wo for w, wo in zip(with_priority, without_priority)
    )
    # Both eventually converge (the per-set counters guarantee it).
    assert with_priority[-1] <= without_priority[0]
