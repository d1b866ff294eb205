"""Cache construction: the fast kernel, checked against a reference model.

Two implementations of the same cache semantics coexist:

- ``fast`` — :mod:`repro.cache.fastsim`, the flat-state LRU kernel
  every build gets unless it names the reference.  Curve profiling
  builds no cache: its one-pass stack profile, in the same module,
  measures every way count at once.
- ``reference`` — :mod:`repro.cache.basic` / :mod:`repro.cache.partitioned`,
  the readable object model that mirrors the paper's mechanisms.  It
  produces identical counters (pinned by the differential test suite)
  and is built only where something is checked against it — the
  differential tests, ``verify diff --pairs backend``, ``verify laws``
  and the kernel bench — each of which names it at the call.

Construction sites go through :func:`make_cache` /
:func:`make_partitioned_cache`.
"""

from __future__ import annotations

from typing import Union

from repro.cache.basic import SetAssociativeCache
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import WayPartitionedCache
from repro.obs import get_observer

BACKENDS = ("reference", "fast")

#: Any single-level cache, either backend.
AnyCache = Union[SetAssociativeCache, FastSetAssociativeCache]
#: Any way-partitioned shared cache, either backend.
AnyPartitionedCache = Union[WayPartitionedCache, FastWayPartitionedCache]


def _check_and_count(backend: str, kind: str) -> None:
    """Refuse unknown backend names; count the build when observed."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; expected one of {BACKENDS}"
        )
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter("cache.builds", backend=backend, kind=kind).inc()


def make_cache(
    geometry: CacheGeometry,
    *,
    name: str = "cache",
    backend: str = "fast",
) -> AnyCache:
    """Build a single-level LRU cache on ``backend``."""
    _check_and_count(backend, "single")
    if backend == "fast":
        return FastSetAssociativeCache(geometry, name=name)
    return SetAssociativeCache(geometry, name=name)


def make_partitioned_cache(
    geometry: CacheGeometry,
    num_cores: int,
    *,
    name: str = "l2",
    backend: str = "fast",
) -> AnyPartitionedCache:
    """Build a way-partitioned shared cache on ``backend``."""
    _check_and_count(backend, "partitioned")
    if backend == "fast":
        return FastWayPartitionedCache(geometry, num_cores, name=name)
    return WayPartitionedCache(geometry, num_cores, name=name)


def record_cache_stats(cache, *, scope: str) -> None:
    """Pull a cache's hit/miss counters into the metrics registry.

    Snapshot-style (called once per run/segment, never per access) so
    the hot access path stays untouched — the zero-cost-when-disabled
    contract of :mod:`repro.obs`.  Works with either backend: both
    expose ``stats`` objects with ``hits``/``misses`` totals, and the
    partitioned variants expose per-core stats.
    """
    obs = get_observer()
    if not obs.enabled:
        return
    stats = getattr(cache, "stats", None)
    if stats is None:
        return
    hits = getattr(stats, "hits", None)
    misses = getattr(stats, "misses", None)
    if hits is not None:
        obs.metrics.gauge(f"cache.{scope}.hits").set(hits)
    if misses is not None:
        obs.metrics.gauge(f"cache.{scope}.misses").set(misses)
