"""Multiprocessing map over independent simulation points.

Every analysis driver runs the same shape of loop: N independent
(benchmark × configuration × seed) points, each a pure function of its
inputs.  parti-gem5 (PAPERS.md) exploits exactly this partition-level
parallelism; here it is one helper, :func:`parallel_map`, used by
``analysis/runner.py``, ``analysis/sweeps.py`` and
``analysis/sensitivity.py`` behind a ``jobs=`` parameter (the CLI's
``--jobs N``).

Since the persistent-pool rework, :func:`parallel_map` is a thin front
over :mod:`repro.analysis.pool`: work is dispatched in adaptive
contiguous chunks, one ``Pool.map`` per call, onto a process-wide
:class:`~repro.analysis.pool.WorkerPool` that is forked once and
reused across sweeps, with shared read-only state (the miss-cache
config and the caller's ``shared`` payload) installed in each worker
by the pool initializer rather than re-pickled per point.

Guarantees:

- **Deterministic ordering** — results come back in input order
  regardless of worker scheduling (chunks are contiguous input slices,
  folded in order), so a parallel run's output is identical to the
  serial run's.
- **Graceful serial fallback** — ``jobs=1`` (the default) never touches
  ``multiprocessing``: the work runs inline, exceptions propagate
  naturally, and debuggers/profilers see one process.
- **No retry** — a task exception propagates on the pool path too, and
  a killed sweep resumes from the results store
  (:mod:`repro.analysis.sweep`), not from a retry inside the map.
- **Deterministic seeding** — existing entry points keep their
  per-point seed semantics (a point's seed must not depend on how many
  workers ran it); new fan-outs derive per-point seeds with
  :func:`point_seed`, which hashes (parent seed, point label) via
  :func:`repro.util.rng.derive_seed`.

Workers must be module-level functions and their payloads picklable
(spawn-safe — the macOS/Windows default start method).  Bulky inputs
shared by every point (curves, machine/sim configs, workload profiles)
travel once per pool via ``shared=`` and are read back inside the
worker function with :func:`repro.analysis.pool.current_shared`; the
serial path installs the same payload in-process, so worker functions
are written once.

**Observer aggregation** — when the parent process has a live observer
installed, each worker runs its *chunk* under a local observer (worker
processes never see the parent's in-memory observer), ships the
telemetry back once per chunk, and the parent folds the chunk
observers into its own **in input order**.  Counters add, gauges take
the last write in input order, summaries replay their retained samples,
events rebase onto the parent's sequence space (across chunk
boundaries), trace spans append verbatim.  Because serial execution
visits the same points in the same order, ``--jobs N`` produces
byte-identical metric snapshots to ``--jobs 1``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro.analysis.pool import (
    existing_pool,
    installed_shared,
    shared_pool,
    worker_fingerprint,
)
from repro.util.rng import derive_seed

__all__ = [
    "parallel_map",
    "point_seed",
    "pool_fingerprints",
    "resolve_jobs",
    "worker_fingerprint",
]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial; ``0`` and negative values mean "all
    cores" (like ``make -j``) — the affinity-visible count where the
    platform exposes one, so a container pinned to 2 of 64 cores forks
    2 workers, not 64; anything else is used as given.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return visible_cpu_count()
    return jobs


def visible_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` where available (Linux — respects
    cgroup/affinity masks, the count that governs real scaling),
    ``os.cpu_count()`` elsewhere.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def point_seed(parent_seed: int, label: object) -> int:
    """Derive the seed for one sweep point from the run's parent seed.

    Stable in the point's identity (its label, e.g. an index or a
    benchmark name) and independent of execution order or worker
    count, so serial and parallel runs of the same sweep simulate
    byte-identical points.
    """
    return derive_seed(parent_seed, f"point-{label}")


def pool_fingerprints(jobs: Optional[int]) -> List[dict]:
    """Fingerprint the parent plus each live persistent-pool worker.

    Probes the pool a sweep at this worker count *actually uses* — the
    process-wide persistent pool, preferring one that already exists
    (even if the session state has drifted since it forked, which is
    exactly the divergence worth seeing) over forking a pristine one.
    ``verify diff`` prints these when a jobs-pair mismatches so
    miss-cache divergence between parent and workers is visible rather
    than inferred.
    """
    worker_count = resolve_jobs(jobs)
    fingerprints = [dict(worker_fingerprint(), role="parent")]
    if worker_count <= 1:
        return fingerprints
    pool = existing_pool(worker_count) or shared_pool(worker_count)
    fingerprints.extend(
        dict(probe, role="worker") for probe in pool.fingerprints()
    )
    return fingerprints


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Optional[int] = 1,
    shared: Any = None,
) -> List[R]:
    """Map ``func`` over ``items``, optionally across processes.

    With ``jobs=1`` this is ``[func(item) for item in items]`` (with
    ``shared`` scoped in-process).  With more jobs the work runs on
    the process-wide persistent :class:`WorkerPool` for that worker
    count — forked on first use, reused across calls and sweeps while
    the session state and ``shared`` payload are unchanged — in
    adaptive contiguous chunks; ``func`` must be a module-level
    function and every item picklable.  Results are always in input
    order.  Worker counts are capped at ``len(items)`` — there is no
    point forking more processes than points.

    ``shared`` is a read-only payload shipped to workers once at pool
    fork (not per task); worker functions read it back with
    :func:`repro.analysis.pool.current_shared` on both the serial and
    the parallel path.  Exceptions raised by ``func`` propagate on both
    paths.

    When the parent has a live observer, worker telemetry is captured
    per chunk and merged back deterministically (see module
    docstring); with the default null observer, workers run unobserved
    and nothing is shipped.
    """
    items = list(items)
    worker_count = resolve_jobs(jobs)
    if worker_count <= 1 or len(items) <= 1:
        with installed_shared(shared):
            return [func(item) for item in items]
    worker_count = min(worker_count, len(items))
    return shared_pool(worker_count, shared=shared).map(func, items)
