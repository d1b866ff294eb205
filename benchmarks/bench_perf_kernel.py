#!/usr/bin/env python
"""Performance trajectory bench for the simulation kernel.

Times the pieces of the performance layer on a fixed workload:

1. **Kernel** — the same generated trace pushed through the reference
   object-model L2 and the fast flat-state kernel (accesses/sec each,
   and the counters are asserted identical while we're at it).
2. **Parallel executor** — a multi-benchmark profiling sweep run
   through the persistent worker pool at jobs ∈ {1, 2, 4, 8} (clamped
   to the affinity-visible CPU count), with per-jobs speedup and
   efficiency.  Scaling floors only apply when the runner actually has
   more than one visible CPU; on a cpuset-limited single-CPU container
   only the serial/parallel identity check is meaningful.
3. **Miss-curve cache** — a cold profiling pass vs a warm re-run
   served from the on-disk store.

Writes ``BENCH_perf.json`` so successive commits leave a perf
trajectory, and exits non-zero when a gated number regresses — CI runs
``--smoke`` so a kernel regression fails the build.  With ``--stamp``
(epoch seconds) and ``--git-rev`` the run is also appended as one
history-schema record to ``BENCH_history.jsonl``, so the trajectory is
plottable with the ``repro.obs.timeseries`` loaders; both values are
passed in rather than read in-process, keeping the bench clock-free.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py [--smoke] \\
        [--stamp "$(date +%s)" --git-rev "$(git rev-parse HEAD)"]
"""

import argparse
import gc
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import misscache
from repro.analysis.parallel import parallel_map, visible_cpu_count
from repro.obs.timeseries import HistoryWriter, history_point
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
        for address, is_write in generator.address_stream(
            accesses // num_cores
        ):
            addresses.append(address)
            writes.append(is_write)
            cores.append(core)
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
    for backend in ("reference", "fast"):
        l2 = build_l2(backend, num_sets, block_bytes, num_cores)
        counters[backend], elapsed = _timed_block(
            l2, addresses, writes, cores
        )
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
    results["speedup"] = round(
        results["fast_accesses_per_sec"]
        / results["reference_accesses_per_sec"],
        2,
    )
    return results


def _profile_point(payload):
    name, num_sets, accesses = payload
    curve = profile_benchmark(
        get_benchmark(name), num_sets=num_sets, accesses=accesses
    )
    return name, curve.points


def bench_parallel(num_sets, accesses, jobs_values):
    """Jobs sweep over SWEEP_BENCHMARKS; every level must match serial."""
    payloads = [(name, num_sets, accesses) for name in SWEEP_BENCHMARKS]
    start = time.perf_counter()
    expected = parallel_map(_profile_point, payloads, jobs=1)
    serial_seconds = time.perf_counter() - start
    sweep = []
    for jobs in jobs_values:
        start = time.perf_counter()
        output = parallel_map(_profile_point, payloads, jobs=jobs)
        elapsed = time.perf_counter() - start
        if output != expected:
            raise SystemExit(
                f"FAIL: jobs={jobs} sweep output differs from serial"
            )
        speedup = round(serial_seconds / max(elapsed, 1e-9), 2)
        sweep.append(
            {
                "jobs": jobs,
                "seconds": round(elapsed, 4),
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


def flatten_series(payload, prefix=""):
    """Flatten the nested results dict into dotted finite-number series.

    Non-numeric leaves (labels, skip notes) and non-finite values are
    dropped — the history schema only admits finite numbers in
    ``series`` — and booleans are excluded so flags don't masquerade
    as measurements.
    """
    series = {}
    for key, value in payload.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            series.update(flatten_series(value, f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)) and math.isfinite(value):
            series[dotted] = value
    return series


def append_history(path, payload, *, stamp, git_rev):
    """Append one run's gated numbers to the perf-trajectory stream.

    ``stamp`` (epoch seconds) and ``git_rev`` come in as arguments —
    the bench itself never reads a clock or shells out to git, so a
    re-run with the same inputs appends an identical record (modulo
    the measured timings themselves).
    """
    series = flatten_series(
        {
            key: payload[key]
            for key in ("kernel", "parallel", "miss_cache")
        }
    )
    point = history_point(
        stamp,
        "bench.perf_kernel",
        series=series,
        mode=payload["mode"],
        git_rev=git_rev,
        visible_cpus=payload["visible_cpus"],
    )
    with HistoryWriter(path) as writer:
        record = writer.write(point)
    return record["seq"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small trace sizes for CI; relaxed speedup thresholds",
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
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="perf-trajectory stream to append this run to",
    )
    parser.add_argument(
        "--stamp",
        type=float,
        default=None,
        help=(
            "epoch-seconds timestamp recorded in the history stream "
            "(with --git-rev, enables the append)"
        ),
    )
    parser.add_argument(
        "--git-rev",
        default="",
        help="git revision recorded in the history stream",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        kernel_accesses, sweep_sets, sweep_accesses = 40_000, 16, 4_000
        min_kernel_speedup, min_jobs_speedup = 2.0, 1.2
    else:
        kernel_accesses, sweep_sets, sweep_accesses = 400_000, 64, 40_000
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

    print(f"kernel: {kernel_accesses} accesses, reference vs fast ...")
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
        "kernel": kernel,
        "parallel": parallel,
        "miss_cache": cache,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.stamp is not None:
        seq = append_history(
            args.history, payload, stamp=args.stamp, git_rev=args.git_rev
        )
        print(f"appended seq={seq} to {args.history}")

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
