"""Replaying recorded address traces through the cache substrate.

The synthetic workloads stand in for SPEC2006, but the caches are
trace-driven: anyone with real traces (Pin, DynamoRIO, a hardware
trace unit, another simulator) can run them directly.  This example:

1. records a synthetic gobmk run to a gzip trace file (stand-in for a
   real capture);
2. replays the file through a partitioned L2 at several allocations to
   profile its miss-ratio curve;
3. mixes the recorded trace with a synthetic co-runner on a real
   two-core CMP node.

Run with:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import CacheGeometry, MachineConfig, PartitionClass
from repro.cache.basic import SetAssociativeCache
from repro.sim.cmp import CmpNode
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.tracefile import (
    FileTracePattern,
    read_trace,
    record_trace,
)
from repro.util.tables import format_table

NUM_SETS = 64
TRACE_LENGTH = 20_000


def main():
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = workdir / "capture.trace.gz"

    # 1. "Capture" a run (in the real world this file comes from your
    #    instrumentation tool).
    generator = get_benchmark("gobmk").make_generator()
    generator.bind(
        num_sets=NUM_SETS, block_bytes=64, rng=DeterministicRng(7, "cap")
    )
    count = record_trace(generator, trace_path, count=TRACE_LENGTH)
    print(f"recorded {count} accesses to {trace_path}")

    # 2. Profile the captured trace's miss-ratio curve.
    rows = []
    for ways in (1, 2, 4, 8):
        cache = SetAssociativeCache(
            CacheGeometry.from_sets(NUM_SETS, ways, 64)
        )
        for access in read_trace(trace_path):
            cache.access(access.address, is_write=access.is_write)
        rows.append([ways, cache.stats.miss_rate])
    print()
    print(
        format_table(
            ["ways", "miss rate"],
            rows,
            title="captured trace: miss-ratio curve",
        )
    )

    # 3. Replay next to a synthetic co-runner on a real CMP node.
    machine = MachineConfig(
        num_cores=2,
        l1_geometry=CacheGeometry.from_sets(16, 2, 64),
        l2_geometry=CacheGeometry.from_sets(NUM_SETS, 16, 64),
    )
    node = CmpNode(machine)
    node.assign_partition(0, 4, PartitionClass.RESERVED)
    node.assign_partition(1, 12, PartitionClass.RESERVED)

    replay = FileTracePattern(trace_path)
    replay.bind(
        num_sets=NUM_SETS,
        block_bytes=64,
        region_base=0,
        rng=DeterministicRng(1, "replay"),
    )
    co_runner = get_benchmark("bzip2").make_generator()
    co_runner.bind(
        num_sets=NUM_SETS,
        block_bytes=64,
        rng=DeterministicRng(3, "co"),
        base_address=1 << 30,
    )

    from repro.cpu.core import MemoryAccess

    def replay_stream():
        while True:
            yield replay.next_access()

    def synthetic_stream():
        while True:
            yield from map(MemoryAccess, *co_runner.address_block(1024))

    results = node.run_interleaved(
        {0: replay_stream(), 1: synthetic_stream()},
        accesses_per_core=TRACE_LENGTH,
    )
    print()
    print(
        f"replayed trace on core 0 (4-way partition): miss rate "
        f"{results[0].l2_miss_rate:.1%}; synthetic bzip2 on core 1 "
        f"(12-way): {results[1].l2_miss_rate:.1%}"
    )
    print(
        f"footprint of the captured trace: "
        f"{replay.footprint_ways:.2f} ways-worth of blocks"
    )


if __name__ == "__main__":
    main()
