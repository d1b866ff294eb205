"""Content-addressed on-disk store for miss-ratio curves.

Profiling one benchmark means driving ~55k synthetic accesses through a
real cache at sixteen way counts — and Fig. 4/5/9 sweeps and the LAC
admission search revisit the same (benchmark, geometry, seed) points
constantly, across processes and across runs.  This module memoises the
resulting :class:`~repro.workloads.profiler.MissRatioCurve` objects on
disk, keyed by a SHA-256 digest of everything the curve is a pure
function of:

- the full benchmark profile (name, mixture components, CPI parameters,
  write fraction — via ``dataclasses.asdict``),
- the profiling cache geometry (sets, block bytes) and way list,
- trace length (warmup + measured accesses) and the RNG seed,
- a fingerprint of the source code of every module the curve's values
  depend on, so editing the trace generators or the cache kernel
  invalidates all stored curves instead of silently serving stale ones.

Curves are profiled on the fast kernel; the differential suite pins it
to the reference model, which is why the key carries no backend.

The storage mechanics — atomic fsync'd writes, quarantine-on-corrupt
(``<digest>.corrupt``), hit/miss/store counters — live in the shared
:class:`repro.analysis.store.ContentStore` base, which the sweep-level
results store also builds on; this module supplies only the curve
keying and the environment-variable configuration.  The store is
enabled by default; disable with :func:`set_enabled` or the
``REPRO_MISS_CACHE`` environment variable (``0``/``off`` — the CLI's
``--no-miss-cache``).  Counters are surfaced by :func:`stats` and
rendered by ``analysis/report.py``.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.analysis.store import (
    QUARANTINE_SUFFIX,
    ContentStore,
    content_digest,
    modules_fingerprint,
)

from repro.workloads.benchmarks import BenchmarkProfile
from repro.workloads.profiler import (
    MissRatioCurve,
    curve_from_dict,
    curve_to_dict,
)

__all__ = [
    "QUARANTINE_SUFFIX",
    "cache_dir",
    "set_cache_dir",
    "enabled",
    "set_enabled",
    "stats",
    "reset_stats",
    "code_fingerprint",
    "curve_key",
    "load_curve",
    "store_curve",
    "clear",
    "entry_count",
    "quarantine_count",
]

_ENV_DIR = "REPRO_MISS_CACHE_DIR"
_ENV_ENABLED = "REPRO_MISS_CACHE"

_cache_dir: Optional[Path] = None
_enabled: Optional[bool] = None  # None = follow the environment


# -- configuration -----------------------------------------------------------


def cache_dir() -> Path:
    """Directory holding the curve store (created lazily on store)."""
    if _cache_dir is not None:
        return _cache_dir
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-qos" / "miss-curves"


def set_cache_dir(path: Optional[os.PathLike]) -> None:
    """Override the store directory (``None`` restores the default).

    Mirrors into ``REPRO_MISS_CACHE_DIR`` so multiprocessing workers
    share the same store.
    """
    global _cache_dir
    _cache_dir = Path(path) if path is not None else None
    if path is None:
        os.environ.pop(_ENV_DIR, None)
    else:
        os.environ[_ENV_DIR] = str(path)


def enabled() -> bool:
    """Whether load/store are active."""
    if _enabled is not None:
        return _enabled
    return os.environ.get(_ENV_ENABLED, "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def set_enabled(value: Optional[bool]) -> None:
    """Force the store on/off (``None`` restores env-var control).

    Mirrors into ``REPRO_MISS_CACHE`` so multiprocessing workers agree.
    """
    global _enabled
    _enabled = value
    if value is None:
        os.environ.pop(_ENV_ENABLED, None)
    else:
        os.environ[_ENV_ENABLED] = "1" if value else "0"


#: The shared-base store instance.  Directory and enablement are
#: callables so the env-var/setter configuration above stays live.
_STORE = ContentStore(cache_dir, enabled=enabled)


# -- statistics --------------------------------------------------------------


def stats() -> Dict[str, int]:
    """Copy of the process-wide hit/miss/store counters."""
    return _STORE.stats()


def reset_stats() -> None:
    """Zero the counters (test isolation / per-report accounting)."""
    _STORE.reset_stats()


# -- keying ------------------------------------------------------------------

#: Modules whose source determines curve values.  Editing any of them
#: changes the fingerprint and orphans previously stored entries.
_FINGERPRINT_MODULES = (
    "repro.cache.backend",
    "repro.cache.basic",
    "repro.cache.fastsim",
    "repro.cache.geometry",
    "repro.cache.replacement",
    "repro.util.rng",
    "repro.workloads.benchmarks",
    "repro.workloads.generator",
    "repro.workloads.patterns",
    "repro.workloads.profiler",
)


def code_fingerprint() -> str:
    """SHA-256 over the source of every curve-determining module."""
    return modules_fingerprint(_FINGERPRINT_MODULES)


def curve_key(
    profile: BenchmarkProfile,
    *,
    num_sets: int,
    block_bytes: int,
    accesses: int,
    seed: int,
    warmup: int = 15_000,
    ways_list: Iterable[int] = tuple(range(1, 17)),
) -> str:
    """Content digest identifying one profiling configuration."""
    payload = {
        "profile": dataclasses.asdict(profile),
        "num_sets": num_sets,
        "block_bytes": block_bytes,
        "accesses": accesses,
        "warmup": warmup,
        "ways_list": list(ways_list),
        "seed": seed,
        "code": code_fingerprint(),
    }
    return content_digest(payload)


# -- load / store ------------------------------------------------------------


def _decode_curve(payload: dict) -> MissRatioCurve:
    """Schema step for :meth:`ContentStore.load`: entry dict → curve."""
    return curve_from_dict(payload["curve"])


def load_curve(
    profile: BenchmarkProfile,
    *,
    num_sets: int,
    block_bytes: int,
    accesses: int,
    seed: int,
) -> Optional[MissRatioCurve]:
    """Return the stored curve for this configuration, or ``None``.

    A corrupt entry (torn write from a crashed pre-fsync build, manual
    editing) counts as a miss and is quarantined — renamed to
    ``<digest>.corrupt`` — instead of raising or being deleted: the
    curve gets re-profiled and re-stored under the original name while
    the damaged bytes stay on disk for post-mortem inspection.
    """
    key = curve_key(
        profile,
        num_sets=num_sets,
        block_bytes=block_bytes,
        accesses=accesses,
        seed=seed,
    )
    curve = _STORE.load(key, decode=_decode_curve)
    assert curve is None or isinstance(curve, MissRatioCurve)
    return curve


def store_curve(
    curve: MissRatioCurve,
    profile: BenchmarkProfile,
    *,
    num_sets: int,
    block_bytes: int,
    accesses: int,
    seed: int,
) -> Optional[Path]:
    """Persist ``curve`` for this configuration; return its path.

    The write is atomic and durable (fsync'd temp file + rename via
    :mod:`repro.util.atomicio`) so a concurrent reader either sees the
    complete entry or none, and a crash mid-write never leaves a torn
    file at the entry's name.  Returns ``None`` when the store is
    disabled or the directory is unwritable — memoisation is an
    optimisation, never a hard dependency.
    """
    if not enabled():
        return None
    key = curve_key(
        profile,
        num_sets=num_sets,
        block_bytes=block_bytes,
        accesses=accesses,
        seed=seed,
    )
    payload = {
        "benchmark": profile.name,
        "num_sets": num_sets,
        "block_bytes": block_bytes,
        "accesses": accesses,
        "seed": seed,
        "curve": curve_to_dict(curve),
    }
    return _STORE.store(key, payload)


def clear() -> int:
    """Delete every stored entry (quarantined included); return the count."""
    return _STORE.clear()


def entry_count() -> int:
    """Number of readable entries currently on disk."""
    return _STORE.entry_count()


def quarantine_count() -> int:
    """Number of quarantined (corrupt) entries currently on disk."""
    return _STORE.quarantine_count()
