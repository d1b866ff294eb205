"""Persistent worker pool with shared read-only session state.

``multiprocessing.Pool`` per call was the old shape of ``--jobs N``:
every sweep forked a fresh pool, re-imported the world, re-pickled the
full per-point payload for every point, and shipped one observer back
per point.  At sweep sizes of a handful of points the setup cost ate
the parallel win — ``BENCH_perf.json`` recorded
``parallel.speedup: 0.95``.

:class:`WorkerPool` replaces that lifecycle:

- **Fork once per sweep, reuse across maps.**  A pool object owns its
  worker processes for its whole lifetime; successive :meth:`map`
  calls reuse them.  :func:`shared_pool` keeps one process-wide pool
  per worker count and hands it to every ``parallel_map`` call whose
  session state still matches, so consecutive sweeps in one CLI run
  share workers.
- **Shared read-only state via the pool initializer.**  The resolved
  session knobs (miss-cache enable/dir — captured as a
  :class:`SessionState`) plus one optional caller-provided ``shared``
  payload (curves, machine config, workload profiles) ship to each
  worker exactly once, at fork.  Per-task payloads shrink to small
  indices/labels; workers read the bulky rest with
  :func:`current_shared`.  The serial path installs the same payload
  in-process so worker functions are written once.
- **Adaptive chunked dispatch.**  Items are split into about
  ``worker_count × 4`` contiguous chunks (:func:`chunk_ranges`), never
  reordered, and handed to ``Pool.map`` one chunk per task, so
  dispatch overhead is per-chunk while load still balances.  Results
  always come back in input order.
- **Lazy observer merge.**  When the parent has a live observer, each
  worker accumulates one local :class:`~repro.obs.Observer` per
  *chunk* and ships it once per chunk; the parent folds chunk
  observers in input order (events seq-rebase across chunk
  boundaries), which reproduces the serial run's artefacts byte for
  byte exactly as the old per-point shipping did — at 1/chunk-size
  the pickle traffic.
- **Failures propagate.**  A task exception reaches the caller and
  leaves the pool usable.  There is no retry: a killed sweep resumes
  from the results store, which holds every point finished before the
  kill.

Workers also expose a diagnostic surface: :meth:`WorkerPool.\
fingerprints` probes every live worker (a barrier makes each worker
answer exactly once) so ``verify diff --pair jobs`` can show the
miss-cache state of the pool that *actually ran the sweep*
rather than of a throwaway lookalike.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs import Observer, get_observer, observed

T = TypeVar("T")
R = TypeVar("R")

#: How many chunks to aim for per worker; ~4 balances dispatch overhead
#: against straggler smoothing (the classic self-scheduling heuristic).
CHUNKS_PER_WORKER = 4

# -- worker-side globals (installed by the pool initializer) -----------------

_worker_shared: Any = None
_worker_barrier = None


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


def worker_fingerprint(_item: object = None) -> dict:
    """Session state a worker process actually resolved, as plain data.

    Captures the settings that must survive the trip into a
    multiprocessing worker for ``--jobs N`` to reproduce the serial
    run: the miss-cache enable flag and directory.  Module-level
    (picklable) so it can be mapped over a pool; callable inline for
    the serial baseline.
    """
    from repro.analysis import misscache

    return {
        "pid": os.getpid(),
        "miss_cache_enabled": misscache.enabled(),
        "miss_cache_dir": str(misscache.cache_dir()),
    }


@dataclass(frozen=True)
class SessionState:
    """The resolved session knobs a worker must replicate.

    Captured in the parent at pool-fork time and installed by the pool
    initializer, so workers agree with the parent under *any* start
    method — the environment-variable mirroring still covers direct
    ``multiprocessing`` users, but the pool no longer depends on it.
    Also the persistence key: :func:`shared_pool` re-forks when the
    captured state stops matching a cached pool's.
    """

    miss_cache_enabled: bool
    miss_cache_dir: str

    @staticmethod
    def capture() -> "SessionState":
        from repro.analysis import misscache

        return SessionState(
            miss_cache_enabled=misscache.enabled(),
            miss_cache_dir=str(misscache.cache_dir()),
        )

    def install(self) -> None:
        from repro.analysis import misscache

        misscache.set_enabled(self.miss_cache_enabled)
        misscache.set_cache_dir(self.miss_cache_dir)


def _pool_initializer(state: SessionState, shared: Any, barrier) -> None:
    """Runs once in each worker at fork: install the session world."""
    global _worker_shared, _worker_barrier
    from repro.obs import reset_observer

    # A pool forked mid-observation would inherit the parent's live
    # observer; chunk tasks scope their own, but anything a worker
    # records *outside* a chunk must go nowhere.
    reset_observer()
    state.install()
    _worker_shared = shared
    _worker_barrier = barrier


def _barrier_probe(_slot: int) -> dict:
    """Fingerprint one worker, holding it until every worker answered.

    The barrier forces the pool's tasks onto distinct workers (a fast
    worker cannot grab two probes), so ``worker_count`` probes return
    ``worker_count`` distinct pids.  A dead or wedged worker breaks
    the barrier after the wait timeout; survivors still report.
    """
    if _worker_barrier is not None:
        try:
            _worker_barrier.wait(timeout=5.0)
        except threading.BrokenBarrierError:
            pass
    return worker_fingerprint()


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


class WorkerPool:
    """A persistent, reusable multiprocessing pool for sweep points.

    Workers are forked lazily on the first :meth:`map` and then reused
    by every later call until :meth:`shutdown` (or context-manager
    exit).  ``shared`` is an arbitrary picklable payload shipped to
    each worker exactly once via the pool initializer; worker
    functions read it back with :func:`current_shared`.

    The pool guarantees the same contract as the serial loop: results
    in input order, exceptions from the task propagate (leaving the
    pool usable), and with a live parent observer the merged telemetry
    is byte-identical to serial.
    """

    def __init__(
        self,
        worker_count: int,
        *,
        shared: Any = None,
        state: Optional[SessionState] = None,
    ) -> None:
        if worker_count < 1:
            raise ValueError(
                f"worker_count must be >= 1, got {worker_count}"
            )
        self.worker_count = worker_count
        self.shared = shared
        self.state = state if state is not None else SessionState.capture()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._barrier = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def forked(self) -> bool:
        """True once worker processes exist (first map or probe)."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context()
            self._barrier = context.Barrier(self.worker_count)
            self._pool = context.Pool(
                self.worker_count,
                initializer=_pool_initializer,
                initargs=(self.state, self.shared, self._barrier),
            )
        return self._pool

    def shutdown(self) -> None:
        """Terminate the workers and retire the pool object."""
        pool, self._pool, self._barrier = self._pool, None, None
        if pool is not None:
            # terminate(), not close(): a hung/killed worker would make
            # close()+join() wait forever on work that never finishes.
            pool.terminate()
            pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- mapping -----------------------------------------------------------

    def map(self, func: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Map ``func`` over ``items`` on the persistent workers.

        Results come back in input order.  Exceptions raised by
        ``func`` propagate, and the pool stays usable afterwards.
        """
        items = list(items)
        if not items:
            return []
        parent_observer = get_observer()
        task = _ChunkTask(func, parent_observer.enabled)
        chunks = [
            items[start:stop]
            for start, stop in chunk_ranges(len(items), self.worker_count)
        ]
        pairs = self._ensure_pool().map(task, chunks, chunksize=1)
        results: List[R] = []
        for chunk_results, telemetry in pairs:  # input order == serial
            if telemetry is not None:
                parent_observer.absorb(telemetry)
            results.extend(chunk_results)
        return results

    # -- diagnostics -------------------------------------------------------

    def fingerprints(self, *, timeout: float = 30.0) -> List[dict]:
        """One :func:`worker_fingerprint` per live worker process.

        Probes the pool's *actual* workers (forking them first if the
        pool is still cold): a barrier holds each probe until every
        worker has one, so all ``worker_count`` slots answer exactly
        once.  A worker that cannot answer within ``timeout`` is
        reported as a timed-out slot rather than silently skipped.
        """
        pool = self._ensure_pool()
        handles = [
            pool.apply_async(_barrier_probe, (slot,))
            for slot in range(self.worker_count)
        ]
        probes: List[dict] = []
        for slot, handle in enumerate(handles):
            try:
                probes.append(handle.get(timeout))
            except multiprocessing.TimeoutError:
                probes.append({"slot": slot, "error": "probe timed out"})
        if self._barrier is not None:
            try:
                self._barrier.reset()
            except (OSError, ValueError):  # pragma: no cover - diagnostics
                pass
        return probes


# -- the process-wide persistent pools ---------------------------------------

_POOLS: Dict[int, WorkerPool] = {}


def shared_pool(worker_count: int, *, shared: Any = None) -> WorkerPool:
    """The process-wide persistent pool for ``worker_count`` workers.

    Reused across sweeps while the captured :class:`SessionState` and
    the ``shared`` payload (compared by identity) are unchanged;
    otherwise the stale pool is shut down and a fresh one forked —
    "forked once per sweep" in the worst case, "forked once per
    process" in the common one.
    """
    state = SessionState.capture()
    pool = _POOLS.get(worker_count)
    if (
        pool is not None
        and pool.state == state
        and pool.shared is shared
    ):
        return pool
    if pool is not None:
        pool.shutdown()
    pool = WorkerPool(worker_count, shared=shared, state=state)
    _POOLS[worker_count] = pool
    return pool


def existing_pool(worker_count: int) -> Optional[WorkerPool]:
    """The cached pool for ``worker_count``, if any — no re-fork checks.

    The diagnostic accessor: ``pool_fingerprints`` wants the pool a
    sweep *actually used*, even if the session state has since
    drifted, so it must not go through :func:`shared_pool` (which
    would replace a drifted pool with a pristine one).
    """
    return _POOLS.get(worker_count)


def shutdown_shared_pools() -> None:
    """Terminate every cached process-wide pool (tests, atexit)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)
