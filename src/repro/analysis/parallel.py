"""Multiprocessing map over independent simulation points.

Every analysis driver runs the same shape of loop: N independent
(benchmark × configuration × seed) points, each a pure function of its
inputs.  parti-gem5 (PAPERS.md) exploits exactly this partition-level
parallelism; here it is one helper, :func:`parallel_map`, used by
``analysis/runner.py``, ``analysis/sweeps.py``,
``analysis/sensitivity.py`` and ``analysis/sweep.py`` behind a
``jobs=`` parameter (the CLI's ``--jobs N``).

One call, one pool: :func:`parallel_map` forks a
``multiprocessing.Pool`` for the call, maps the work onto it, and
terminates and joins it before returning or raising, so no worker
outlives the map.  Forking two workers, mapping 8 trivial items and
tearing the pool down takes about 12 ms on a 2-vCPU VM (median of 10
calls), small next to the seconds a sweep point takes.  Keeping pools
alive between calls would save nothing: every caller builds a new
``shared`` payload per call, so no pool could be reused anyway.

Guarantees:

- **Deterministic ordering** — items are split into about
  ``worker_count × CHUNKS_PER_WORKER`` contiguous chunks
  (:func:`chunk_ranges`), one chunk per task, and results come back in
  input order regardless of worker scheduling, so a parallel run's
  output is identical to the serial run's.
- **Graceful serial fallback** — ``jobs=1`` (the default) never touches
  ``multiprocessing``: the work runs inline, exceptions propagate
  naturally, and debuggers/profilers see one process.
- **No retry** — a task exception propagates on the pool path too, and
  a killed sweep resumes from the results store
  (:mod:`repro.analysis.sweep`), not from a retry inside the map.

Workers must be module-level functions and their payloads picklable
(spawn-safe — the macOS/Windows default start method).  Bulky inputs
shared by every point (curves, machine/sim configs, workload profiles)
travel once per worker via ``shared=`` and are read back inside the
worker function with :func:`current_shared`; the serial path installs
the same payload in-process, so worker functions are written once.
Workers agree with the parent's miss-cache switch and directory under
any start method without the initializer's help: ``misscache``'s
setters mirror both into the environment, which every worker inherits.

**Observer aggregation** — when the parent process has a live observer
installed, each worker runs its *chunk* under a local observer (worker
processes never see the parent's in-memory observer), ships the
telemetry back once per chunk, and the parent folds the chunk
observers into its own **in input order**.  Counters add, gauges take
the last write in input order, summaries replay their retained samples,
and events rebase onto the parent's sequence space (across chunk
boundaries).  Because serial execution visits the same points in the
same order, ``--jobs N`` produces byte-identical metric snapshots and
event streams to ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs import Observer, get_observer, observed, reset_observer

__all__ = [
    "chunk_ranges",
    "current_shared",
    "installed_shared",
    "parallel_map",
    "resolve_jobs",
    "visible_cpu_count",
]

T = TypeVar("T")
R = TypeVar("R")

#: How many chunks to aim for per worker; ~4 balances dispatch overhead
#: against straggler smoothing (the classic self-scheduling heuristic).
CHUNKS_PER_WORKER = 4

# The shared payload of the active map: installed in each worker by the
# pool initializer, and scoped around the inline loop on the serial path.
_worker_shared: Any = None


def current_shared() -> Any:
    """The shared read-only payload of the active map (or ``None``).

    In a worker process this is the payload the pool initializer
    installed at fork; on the serial path it is whatever
    ``parallel_map(..., shared=...)`` scoped around the inline loop.
    Worker functions read their bulky common inputs (curves, configs,
    profiles) from here so per-task payloads stay small.
    """
    return _worker_shared


@contextlib.contextmanager
def installed_shared(shared: Any) -> Iterator[None]:
    """Scope ``shared`` as the in-process payload (serial path)."""
    global _worker_shared
    previous = _worker_shared
    _worker_shared = shared
    try:
        yield
    finally:
        _worker_shared = previous


def _pool_initializer(shared: Any) -> None:
    """Runs once in each worker at fork: install the shared payload."""
    global _worker_shared
    # A pool forked mid-observation would inherit the parent's live
    # observer; chunk tasks scope their own, but anything a worker
    # records *outside* a chunk must go nowhere.
    reset_observer()
    _worker_shared = shared


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


def chunk_ranges(total: int, worker_count: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks covering ``range(total)``.

    Aims for ``worker_count × CHUNKS_PER_WORKER`` chunks (never more
    than ``total``), sized within one item of each other, in input
    order — the shape that keeps dispatch overhead per-chunk while the
    ~4× oversubscription absorbs stragglers.
    """
    if total <= 0:
        return []
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    chunk_count = min(total, worker_count * CHUNKS_PER_WORKER)
    base, extra = divmod(total, chunk_count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class _ChunkTask:
    """Picklable wrapper running one chunk under one local observer.

    The lazy-merge half of the telemetry contract: one
    :class:`Observer` (with summary-sample retention, so the parent
    can merge by exact replay) per *chunk*, not per point.  Within the
    chunk, points run in input order, so the chunk observer's stream
    is exactly the serial stream's slice for that range.
    """

    __slots__ = ("func", "observe")

    def __init__(self, func: Callable[[T], R], observe: bool) -> None:
        self.func = func
        self.observe = observe

    def __call__(
        self, chunk: Sequence[T]
    ) -> Tuple[List[R], Optional[Observer]]:
        func = self.func
        if not self.observe:
            return [func(item) for item in chunk], None
        telemetry = Observer(record_samples=True)
        with observed(telemetry):
            results = [func(item) for item in chunk]
        return results, telemetry


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Optional[int] = 1,
    shared: Any = None,
) -> List[R]:
    """Map ``func`` over ``items``, optionally across processes.

    With ``jobs=1`` this is ``[func(item) for item in items]`` (with
    ``shared`` scoped in-process).  With more jobs it forks one pool
    for this call, maps contiguous chunks of ``items`` onto it, and
    terminates and joins the pool before returning or raising;
    ``func`` must be a module-level function and every item picklable.
    Results are always in input order.  Worker counts are capped at
    ``len(items)`` — there is no point forking more processes than
    points.

    ``shared`` is a read-only payload shipped to each worker once at
    fork (not per task); worker functions read it back with
    :func:`current_shared` on both the serial and the parallel path.
    Exceptions raised by ``func`` propagate on both paths.

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
    parent_observer = get_observer()
    task = _ChunkTask(func, parent_observer.enabled)
    chunks = [
        items[start:stop]
        for start, stop in chunk_ranges(len(items), worker_count)
    ]
    pool = multiprocessing.Pool(
        worker_count,
        initializer=_pool_initializer,
        initargs=(shared,),
    )
    try:
        pairs = pool.map(task, chunks, chunksize=1)
    finally:
        # terminate(), not close(): after a task raised, close()+join()
        # would wait for the chunks still running on other workers.
        pool.terminate()
        pool.join()
    results: List[R] = []
    for chunk_results, telemetry in pairs:  # input order == serial
        if telemetry is not None:
            parent_observer.absorb(telemetry)
        results.extend(chunk_results)
    return results
