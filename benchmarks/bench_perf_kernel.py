#!/usr/bin/env python
"""Performance trajectory bench for the simulation kernel.

Times the pieces of the performance layer on a fixed workload:

1. **Kernel** — the same generated trace pushed through the reference
   object-model L2 and the fast flat-state kernel (accesses/sec each,
   and the counters are asserted identical while we're at it).
2. **Parallel executor** — a multi-benchmark profiling sweep run
   through ``parallel_map`` at jobs ∈ {1, 2, 4, 8} (clamped to the
   affinity-visible CPU count), with per-jobs speedup and efficiency.
   Each timed round forks and tears down its own pool, as every
   command's map does.  Scaling floors only apply when the runner
   actually has more than one visible CPU; on a cpuset-limited
   single-CPU container only the serial/parallel identity check is
   meaningful.
3. **Miss-curve cache** — a cold profiling pass vs a warm re-run
   served from the on-disk store.

Each timed comparison runs ``ROUNDS`` rounds, timing its arms back to
back within each round, and gates on the median of the per-round
ratios: a slow stretch of a shared host then slows both arms of the
rounds it covers, and one stall cannot decide a gate.  The reported
times are the median rounds of each arm.

Writes ``BENCH_perf.json`` so successive commits leave a perf
trajectory, and exits non-zero when a gated number regresses — CI runs
``--smoke`` so a kernel regression fails the build.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py [--smoke]
"""

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import misscache
from repro.analysis.parallel import parallel_map, visible_cpu_count
from repro.cache.backend import make_partitioned_cache
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.profiler import (
    clear_curve_cache,
    get_curve,
    profile_benchmark,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks spanning the paper's three sensitivity groups.
SWEEP_BENCHMARKS = ("bzip2", "hmmer", "gobmk", "sjeng")

#: Candidate worker counts for the jobs sweep, clamped to visible CPUs.
JOBS_CANDIDATES = (1, 2, 4, 8)

#: Timed rounds per comparison; every gated ratio is the median of the
#: per-round ratios, and every reported time the median round.
ROUNDS = 5


def generate_trace(accesses, num_sets, block_bytes, num_cores, seed=2024):
    """A deterministic multi-core trace from the bzip2 mixture."""
    profile = get_benchmark("bzip2")
    addresses, writes, cores = [], [], []
    for core in range(num_cores):
        generator = profile.make_generator()
        generator.bind(
            num_sets=num_sets,
            block_bytes=block_bytes,
            rng=DeterministicRng(seed, f"bench-core-{core}"),
            base_address=core << 26,
        )
        block, block_writes = generator.address_block(accesses // num_cores)
        addresses += block
        writes += block_writes
        cores += [core] * len(block)
    return addresses, writes, cores


def build_l2(backend, num_sets, block_bytes, num_cores):
    geometry = CacheGeometry.from_sets(num_sets, 8, block_bytes)
    l2 = make_partitioned_cache(geometry, num_cores, backend=backend)
    for core in range(num_cores):
        l2.set_target(core, 8 // num_cores)
        l2.set_class(core, PartitionClass.RESERVED)
    return l2


def _timed_block(cache, addresses, writes, cores):
    gc.disable()  # keep collector pauses out of the timed region
    try:
        start = time.perf_counter()
        counters = cache.access_block(addresses, writes, cores)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return counters, elapsed


def bench_kernel(accesses, num_sets=512, block_bytes=64, num_cores=4):
    """Reference vs fast accesses/sec on one trace; counters must match."""
    trace = generate_trace(accesses, num_sets, block_bytes, num_cores)
    addresses, writes, cores = trace
    results = {}
    counters = {}
    rounds = {"reference": [], "fast": []}
    for _ in range(ROUNDS):
        for backend in rounds:
            l2 = build_l2(backend, num_sets, block_bytes, num_cores)
            counters[backend], elapsed = _timed_block(
                l2, addresses, writes, cores
            )
            rounds[backend].append(elapsed)
    for backend, seconds in rounds.items():
        elapsed = statistics.median(seconds)
        results[f"{backend}_accesses_per_sec"] = round(
            len(addresses) / elapsed
        )
        results[f"{backend}_seconds"] = round(elapsed, 4)
    if counters["fast"] != counters["reference"]:
        raise SystemExit(
            "FAIL: fast kernel counters diverge from reference:\n"
            f"  reference: {counters['reference']}\n"
            f"  fast:      {counters['fast']}"
        )
    results["accesses"] = len(addresses)
    ratios = [
        reference / fast
        for reference, fast in zip(rounds["reference"], rounds["fast"])
    ]
    results["round_speedups"] = [round(ratio, 2) for ratio in ratios]
    results["speedup"] = round(statistics.median(ratios), 2)
    return results


def _profile_point(payload):
    name, num_sets, accesses = payload
    curve = profile_benchmark(
        get_benchmark(name), num_sets=num_sets, accesses=accesses
    )
    return name, curve.points


def _timed_map(payloads, jobs):
    start = time.perf_counter()
    output = parallel_map(_profile_point, payloads, jobs=jobs)
    return output, time.perf_counter() - start


def bench_parallel(num_sets, accesses, jobs_values):
    """Jobs sweep over SWEEP_BENCHMARKS; every level must match serial."""
    payloads = [(name, num_sets, accesses) for name in SWEEP_BENCHMARKS]
    expected = parallel_map(_profile_point, payloads, jobs=1)
    rounds = {jobs: [] for jobs in [1, *jobs_values]}
    for _ in range(ROUNDS):
        for jobs, seconds in rounds.items():
            output, elapsed = _timed_map(payloads, jobs)
            if output != expected:
                raise SystemExit(
                    f"FAIL: jobs={jobs} sweep output differs from serial"
                )
            seconds.append(elapsed)
    serial_seconds = statistics.median(rounds[1])
    sweep = []
    for jobs in jobs_values:
        ratios = [
            serial / max(elapsed, 1e-9)
            for serial, elapsed in zip(rounds[1], rounds[jobs])
        ]
        speedup = round(statistics.median(ratios), 2)
        sweep.append(
            {
                "jobs": jobs,
                "seconds": round(statistics.median(rounds[jobs]), 4),
                "round_speedups": [round(ratio, 2) for ratio in ratios],
                "speedup": speedup,
                "efficiency": round(speedup / jobs, 2),
            }
        )
    by_jobs = {entry["jobs"]: entry for entry in sweep}
    headline = by_jobs.get(2, sweep[-1])
    return {
        "points": len(payloads),
        "serial_seconds": round(serial_seconds, 4),
        "jobs_sweep": sweep,
        "speedup": headline["speedup"],
        "speedup_jobs": headline["jobs"],
    }


def bench_misscache(num_sets, accesses):
    """Cold profiling pass vs warm re-run from the on-disk store."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        misscache.set_cache_dir(tmp)
        misscache.set_enabled(True)
        try:
            for label in ("cold", "warm"):
                clear_curve_cache()  # drop the in-memory layer
                misscache.reset_stats()
                start = time.perf_counter()
                for name in SWEEP_BENCHMARKS:
                    get_curve(
                        get_benchmark(name),
                        num_sets=num_sets,
                        accesses=accesses,
                    )
                results[f"{label}_seconds"] = round(
                    time.perf_counter() - start, 4
                )
                stats = misscache.stats()
                lookups = stats["hits"] + stats["misses"]
                results[f"{label}_hit_rate"] = round(
                    stats["hits"] / lookups, 3
                ) if lookups else 0.0
        finally:
            misscache.set_cache_dir(None)
            misscache.set_enabled(None)
            misscache.reset_stats()
            clear_curve_cache()
    results["speedup"] = round(
        results["cold_seconds"] / max(results["warm_seconds"], 1e-9), 2
    )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small kernel trace for CI; relaxed speedup thresholds",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=0,
        help="cap for the jobs sweep (0 = affinity-visible CPU count)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    # The sweep keeps its full size in smoke mode: four curves of 40k
    # accesses, a fraction of a second of serial profiling (0.12–0.19 s
    # on a 2-vCPU VM).  A smaller sweep would time mostly each jobs
    # round's fixed cost: forking, feeding and tearing down its pool
    # (about 9 ms on the same VM).
    sweep_sets, sweep_accesses = 64, 40_000
    if args.smoke:
        kernel_accesses = 40_000
        min_kernel_speedup, min_jobs_speedup = 2.0, 1.2
    else:
        kernel_accesses = 400_000
        min_kernel_speedup, min_jobs_speedup = 5.0, 1.5

    visible = visible_cpu_count()
    max_jobs = args.max_jobs if args.max_jobs > 0 else visible
    # Always exercise jobs=2 so the pool path and the serial/parallel
    # identity check run even on a single-CPU container; never spawn
    # more workers than sweep points (parallel_map would cap anyway).
    jobs_values = sorted(
        {n for n in JOBS_CANDIDATES if 1 < n <= max_jobs}
        | {2}
    )
    jobs_values = [min(n, len(SWEEP_BENCHMARKS)) for n in jobs_values]
    jobs_values = sorted(set(jobs_values))

    print(
        f"kernel: {kernel_accesses} accesses, reference vs fast, "
        f"median ratio of {ROUNDS} rounds ..."
    )
    kernel = bench_kernel(kernel_accesses)
    print(
        f"  reference {kernel['reference_accesses_per_sec']:,} acc/s, "
        f"fast {kernel['fast_accesses_per_sec']:,} acc/s "
        f"({kernel['speedup']}x, counters identical)"
    )

    print(
        f"parallel: {len(SWEEP_BENCHMARKS)}-point sweep, "
        f"jobs in {jobs_values} ({visible} visible CPU(s)) ..."
    )
    parallel = bench_parallel(sweep_sets, sweep_accesses, jobs_values)
    print(f"  serial {parallel['serial_seconds']}s")
    for entry in parallel["jobs_sweep"]:
        print(
            f"  jobs={entry['jobs']}: {entry['seconds']}s "
            f"({entry['speedup']}x, efficiency {entry['efficiency']}, "
            "output identical)"
        )

    print("miss-cache: cold vs warm profiling pass ...")
    cache = bench_misscache(sweep_sets, sweep_accesses)
    print(
        f"  cold {cache['cold_seconds']}s, warm {cache['warm_seconds']}s "
        f"({cache['speedup']}x, warm hit rate "
        f"{cache['warm_hit_rate']:.0%})"
    )

    payload = {
        "bench": "perf_kernel",
        "mode": "smoke" if args.smoke else "standard",
        "cpu_count": os.cpu_count(),
        "visible_cpus": visible,
        "rounds": ROUNDS,
        "kernel": kernel,
        "parallel": parallel,
        "miss_cache": cache,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    if kernel["speedup"] < min_kernel_speedup:
        failures.append(
            f"fast kernel speedup {kernel['speedup']}x is below the "
            f"{min_kernel_speedup}x floor"
        )
    if cache["warm_hit_rate"] < 0.5:
        failures.append(
            f"warm miss-cache hit rate {cache['warm_hit_rate']:.0%} "
            "is below 50%"
        )
    if visible >= 2:
        if parallel["speedup"] < min_jobs_speedup:
            failures.append(
                f"jobs={parallel['speedup_jobs']} speedup "
                f"{parallel['speedup']}x is below the "
                f"{min_jobs_speedup}x floor"
            )
        if not args.smoke:
            largest = parallel["jobs_sweep"][-1]
            if largest["efficiency"] < 0.6:
                failures.append(
                    f"jobs={largest['jobs']} efficiency "
                    f"{largest['efficiency']} is below the 0.6 floor"
                )
    else:
        print(
            "note: 1 visible CPU — parallel scaling floors skipped "
            "(identity checks still enforced)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
