"""Ablation: per-set vs global-counter cache partitioning (Section 4.1).

The paper rejects the global-counter scheme (Suh-style modified LRU)
because only the cache-wide block total is constrained: *which sets* a
job's blocks occupy depends on the co-runner and on run-to-run timing,
so the same job with the same allocation shows varying miss rates
across runs — poison for a QoS system.  The fine-grain per-set scheme
pins every set to the target, making behaviour uniform.

This bench runs the same bzip2 job (at a 6-way target, on the steep
part of its miss curve, with 2 of 16 ways left unallocated so the
global scheme has room to drift) against three co-runner/seed
combinations under both schemes, and compares:

(a) the mean per-set deviation from the target allocation, and
(b) the spread of bzip2's miss rate across the runs.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.global_partition import GlobalPartitionedCache
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.util.rng import DeterministicRng
from repro.util.tables import format_table
from repro.workloads.benchmarks import get_benchmark

NUM_SETS = 64
WAYS = 16
BZIP2_TARGET = 6  # on the cliff of bzip2's curve
CO_TARGET = 8  # 2 ways deliberately left unallocated
RUNS = (("gobmk", 3), ("mcf", 5), ("libquantum", 9))
ACCESSES = 20_000


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


def run_scheme(make_cache, classify):
    outcomes = {}
    for co_runner, seed in RUNS:
        cache = make_cache()
        if classify:
            cache.set_class(0, PartitionClass.RESERVED)
            cache.set_class(1, PartitionClass.RESERVED)
        cache.set_target(0, BZIP2_TARGET)
        cache.set_target(1, CO_TARGET)
        main = bound_stream("bzip2", base=0, seed=seed)
        other = bound_stream(co_runner, base=1 << 30, seed=seed + 1)
        for _ in range(ACCESSES):
            address, is_write = next(main)
            cache.access(0, address, is_write=is_write)
            address, is_write = next(other)
            cache.access(1, address, is_write=is_write)
            # The co-runner issues twice as fast, so its traffic
            # pressure shapes the unconstrained per-set distribution.
            address, is_write = next(other)
            cache.access(1, address, is_write=is_write)
        outcomes[(co_runner, seed)] = (
            cache.stats.core(0).miss_rate,
            cache.allocation_error(0),
        )
    return outcomes


def run_ablation(_):
    geometry = CacheGeometry.from_sets(NUM_SETS, WAYS, 64)
    per_set = run_scheme(
        lambda: WayPartitionedCache(geometry, 2), classify=True
    )
    global_counter = run_scheme(
        lambda: GlobalPartitionedCache(geometry, 2), classify=False
    )
    return per_set, global_counter


def spread(outcomes):
    rates = [miss_rate for miss_rate, _ in outcomes.values()]
    return max(rates) - min(rates)


def mean_error(outcomes):
    errors = [error for _, error in outcomes.values()]
    return sum(errors) / len(errors)


def test_ablation_partitioning(benchmark):
    per_set, global_counter = benchmark.pedantic(
        run_ablation, args=(None,), rounds=1, iterations=1
    )

    rows = []
    for key in per_set:
        co_runner, seed = key
        rows.append(
            [
                f"{co_runner} (seed {seed})",
                per_set[key][0],
                per_set[key][1],
                global_counter[key][0],
                global_counter[key][1],
            ]
        )
    print()
    print(
        format_table(
            [
                "run",
                "per-set miss rate",
                "per-set alloc err",
                "global miss rate",
                "global alloc err",
            ],
            rows,
            title=(
                "Ablation — bzip2 at a 6-way target vs run/co-runner "
                "variation"
            ),
        )
    )
    print(
        f"miss-rate spread across runs: per-set {spread(per_set):.4f} "
        f"vs global {spread(global_counter):.4f}"
    )

    # The per-set scheme pins every set at the target (the residual
    # error comes from the gobmk run, whose tiny footprint never fills
    # the cache, so neither scheme's enforcement engages)...
    assert mean_error(per_set) < mean_error(global_counter)
    # ...which keeps the job's miss rate stable across runs, whereas
    # the global scheme lets it wander (the paper's rejection reason).
    assert spread(per_set) <= spread(global_counter) + 1e-9
