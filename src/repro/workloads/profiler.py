"""Miss-ratio-curve profiling.

The system simulator's timing model needs, for every benchmark, the L2
miss rate as a function of allocated ways — exactly what the paper's
framework observes through its allocation counters and what utility-
based partitioning papers call a miss-ratio curve (MRC).

:func:`profile_benchmark` obtains the curve by trace-driven LRU
simulation: one pass of the benchmark's synthetic trace over per-set
recency stacks counts the misses of every candidate way count at once
(LRU inclusion: a ``w``-way set holds the ``w`` most recently used
blocks), and the reference object model replays the same trace into
one cache per way count as its oracle.  Profiling runs on a
scaled-down set count (footprints are way-denominated, so the curve is
set-count invariant; see :mod:`repro.workloads.patterns`) and results
are memoised process-wide because every experiment reuses the same
fifteen curves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.backend import make_cache
from repro.cache.fastsim import lru_stack_misses
from repro.cache.geometry import CacheGeometry
from repro.util.rng import DeterministicRng
from repro.util.validation import check_non_negative, check_positive
from repro.workloads.benchmarks import BenchmarkProfile


@dataclass
class MissRatioCurve:
    """L2 miss rate (and misses/instruction) versus allocated ways.

    ``points`` maps integer way counts to miss rates.  The curve is
    normalised to be non-increasing in ways (more cache can only help
    under LRU inclusion) — simulation noise on finite traces could
    otherwise produce tiny inversions that would break downstream
    invariants.
    """

    benchmark: str
    l2_accesses_per_instruction: float
    points: Dict[int, float] = field(default_factory=dict)
    #: The profiled way counts, ascending (curves are built once and
    #: queried hundreds of thousands of times per run).
    _ways: List[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_positive(
            "l2_accesses_per_instruction", self.l2_accesses_per_instruction
        )
        if 0 not in self.points:
            self.points[0] = 1.0  # no allocation: every access misses
        self._ways = sorted(self.points)
        self._enforce_monotone()

    def _enforce_monotone(self) -> None:
        running_min = 1.0
        for ways in self._ways:
            value = min(self.points[ways], running_min)
            if not 0.0 <= self.points[ways] <= 1.0:
                raise ValueError(
                    f"miss rate at {ways} ways is {self.points[ways]}, "
                    "outside [0, 1]"
                )
            self.points[ways] = value
            running_min = value

    @property
    def max_ways(self) -> int:
        """Largest way count the curve was profiled at."""
        return self._ways[-1]

    def miss_rate(self, ways: float) -> float:
        """Miss rate at ``ways``, linearly interpolated between points.

        Fractional allocations arise in the EqualPart baseline (16 ways
        over a varying number of jobs, e.g. Figure 1's three-job case
        giving 5.33 ways each).  Queries beyond the profiled range clamp
        to the last point.
        """
        check_non_negative("ways", ways)
        known = self._ways
        if ways >= known[-1]:
            return self.points[known[-1]]
        index = bisect_left(known, ways)
        upper = known[index]
        if upper == ways:
            return self.points[upper]
        lower = known[index - 1]
        t = (ways - lower) / (upper - lower)
        return self.points[lower] * (1 - t) + self.points[upper] * t

    def mpi(self, ways: float) -> float:
        """Misses per instruction at ``ways``."""
        return self.miss_rate(ways) * self.l2_accesses_per_instruction

    def miss_increase_fraction(self, baseline_ways: float, reduced_ways: float) -> float:
        """Fractional miss increase when shrinking the allocation.

        This is the quantity the resource-stealing criterion bounds by
        the Elastic slack X (Section 4.2).
        """
        base = self.miss_rate(baseline_ways)
        if base == 0.0:
            return 0.0 if self.miss_rate(reduced_ways) == 0.0 else float("inf")
        return (self.miss_rate(reduced_ways) - base) / base

    def min_ways_for_miss_rate(self, target_miss_rate: float) -> Optional[int]:
        """Smallest profiled way count achieving ``target_miss_rate``.

        Returns ``None`` when even the full curve cannot reach the
        target — the paper's point about RPM targets being possibly
        ill-defined (Section 3.2).
        """
        check_non_negative("target_miss_rate", target_miss_rate)
        for ways in self._ways:
            if self.points[ways] <= target_miss_rate:
                return ways
        return None


def measure_miss_rates(
    profile: BenchmarkProfile,
    *,
    ways_list: Iterable[int] = tuple(range(1, 17)),
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    warmup: int = 15_000,
    seed: int = 1234,
    backend: str = "fast",
) -> Dict[int, float]:
    """Raw per-way miss rates, exactly as the cache measured them.

    The measurement loop behind :func:`profile_benchmark`, *without*
    the :class:`MissRatioCurve` monotonicity normalisation — the
    verification laws check the raw points (more ways never hurts
    under LRU inclusion), which the normalised curve would hide by
    construction.

    One trace is drawn (``warmup`` accesses, then ``accesses``
    measured ones).  On the ``"fast"`` backend one LRU stack pass
    (:func:`~repro.cache.fastsim.lru_stack_misses`) counts its misses
    at every way count, so the fast points are monotone by
    construction.  ``backend="reference"`` replays the trace into one
    object-model cache per way count: the oracle the pass must equal,
    named only by checks.
    """
    check_positive("accesses", accesses)
    check_non_negative("warmup", warmup)
    ways_list = list(ways_list)
    for ways in ways_list:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
    # ``bind`` sees only the set count and block size, so the trace
    # cannot depend on the way count: draw it once for every way count.
    generator = profile.make_generator()
    generator.bind(
        num_sets=num_sets,
        block_bytes=block_bytes,
        rng=DeterministicRng(seed, f"profile-{profile.name}"),
    )
    warm = generator.address_block(warmup) if warmup else None
    addresses, writes = generator.address_block(accesses)
    points: Dict[int, float] = {}
    if backend == "fast":
        # One LRU stack pass counts the misses at every way count at
        # once; ``misses / accesses`` is the division
        # ``BatchCounters.miss_rate`` makes on a per-way replay.
        depth = max(ways_list, default=1)  # an empty list reads nothing
        misses = lru_stack_misses(
            CacheGeometry.from_sets(num_sets, depth, block_bytes),
            addresses,
            warm[0] if warm else (),
        )
        for ways in ways_list:
            points[ways] = misses[ways] / accesses
        return points
    for ways in ways_list:
        geometry = CacheGeometry.from_sets(num_sets, ways, block_bytes)
        cache = make_cache(
            geometry, name=f"{profile.name}-{ways}w", backend=backend
        )
        if warm:
            cache.access_block(*warm)
        points[ways] = cache.access_block(addresses, writes).miss_rate
    return points


def profile_benchmark(
    profile: BenchmarkProfile,
    *,
    ways_list: Iterable[int] = tuple(range(1, 17)),
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    warmup: int = 15_000,
    seed: int = 1234,
    backend: str = "fast",
) -> MissRatioCurve:
    """Measure ``profile``'s miss-ratio curve by direct cache simulation.

    The curve's point at way count ``w`` is the miss rate of the
    benchmark's trace running alone through a ``w``-way LRU cache with
    ``num_sets`` sets (a partition view of the shared L2).  ``warmup``
    accesses fill the cache before ``accesses`` measured ones.  The
    default ``"fast"`` backend measures every way count in one LRU
    stack pass; ``"reference"`` replays the trace into one object-model
    cache per way count (:func:`measure_miss_rates`).  Both produce
    identical curves, and only checks against the reference model pass
    ``backend``.
    """
    points = measure_miss_rates(
        profile,
        ways_list=ways_list,
        num_sets=num_sets,
        block_bytes=block_bytes,
        accesses=accesses,
        warmup=warmup,
        seed=seed,
        backend=backend,
    )
    return MissRatioCurve(
        benchmark=profile.name,
        l2_accesses_per_instruction=profile.l2_accesses_per_instruction,
        points=points,
    )


_CURVE_CACHE: Dict[Tuple[str, int, int, int, int], MissRatioCurve] = {}


def profile_digest(profile: BenchmarkProfile) -> str:
    """Content digest of a full benchmark profile.

    The in-process curve cache keys on this rather than on
    ``profile.name``: two distinct profiles sharing a name (e.g.
    fuzzer-mutated variants from ``repro verify fuzz``) must not serve
    each other's curves.  The on-disk store has always keyed on the
    full ``dataclasses.asdict(profile)``; this digest matches that
    granularity.
    """
    payload = json.dumps(
        dataclasses.asdict(profile), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def get_curve(
    profile: BenchmarkProfile,
    *,
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    seed: int = 1234,
) -> MissRatioCurve:
    """Memoised :func:`profile_benchmark` (one curve per configuration).

    Two layers of memoisation: the in-process dict below, then the
    content-addressed on-disk store (:mod:`repro.analysis.misscache`)
    shared across processes and runs.  Curves are profiled by the
    one-pass LRU stack profile, which the equivalence suite pins to a
    per-way replay on the reference model.
    """
    key = (profile_digest(profile), num_sets, block_bytes, accesses, seed)
    if key not in _CURVE_CACHE:
        # Imported lazily: misscache keys on this module's source, so a
        # top-level import would be circular.
        from repro.analysis import misscache

        cached = misscache.load_curve(
            profile,
            num_sets=num_sets,
            block_bytes=block_bytes,
            accesses=accesses,
            seed=seed,
        )
        if cached is None:
            cached = profile_benchmark(
                profile,
                num_sets=num_sets,
                block_bytes=block_bytes,
                accesses=accesses,
                seed=seed,
            )
            misscache.store_curve(
                cached,
                profile,
                num_sets=num_sets,
                block_bytes=block_bytes,
                accesses=accesses,
                seed=seed,
            )
        _CURVE_CACHE[key] = cached
    return _CURVE_CACHE[key]


def clear_curve_cache() -> None:
    """Drop all memoised curves (test isolation helper)."""
    _CURVE_CACHE.clear()


# -----------------------------------------------------------------------------
# Curve persistence: profiling the fifteen benchmarks takes seconds;
# saving the curves lets CLIs and notebooks skip re-profiling.
# -----------------------------------------------------------------------------


def curve_to_dict(curve: MissRatioCurve) -> dict:
    """Serialise one curve to plain data."""
    return {
        "benchmark": curve.benchmark,
        "l2_accesses_per_instruction": curve.l2_accesses_per_instruction,
        "points": {str(ways): rate for ways, rate in curve.points.items()},
    }


def curve_from_dict(payload: dict) -> MissRatioCurve:
    """Rebuild a curve serialised by :func:`curve_to_dict`."""
    try:
        return MissRatioCurve(
            benchmark=payload["benchmark"],
            l2_accesses_per_instruction=payload[
                "l2_accesses_per_instruction"
            ],
            points={
                int(ways): float(rate)
                for ways, rate in payload["points"].items()
            },
        )
    except KeyError as missing:
        raise ValueError(f"curve payload missing key {missing}") from None


def save_curves(curves, path) -> "Path":
    """Write a ``{name: curve}`` mapping to a JSON file."""
    import json
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {name: curve_to_dict(curve) for name, curve in curves.items()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_curves(path) -> Dict[str, MissRatioCurve]:
    """Read back a curve file written by :func:`save_curves`."""
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    return {
        name: curve_from_dict(entry) for name, entry in payload.items()
    }
