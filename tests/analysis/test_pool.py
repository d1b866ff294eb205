"""Lifecycle and telemetry contracts of the persistent worker pool.

Covers what ``test_parallel.py`` (semantics of ``parallel_map``) and
``test_parallel_robust.py`` (hostile workers) do not: that the pool is
actually *persistent* (same worker pids across consecutive sweeps),
that shared payloads ship once via the initializer, that exceptions
and shutdowns leave clean state, and that the chunked observer merge
reproduces serial artifact streams byte for byte — including event
sequence rebasing across chunk boundaries.
"""

import os
import signal
import time

import pytest

from repro.analysis import misscache
from repro.analysis.parallel import parallel_map, pool_fingerprints
from repro.analysis.pool import (
    SessionState,
    WorkerPool,
    chunk_ranges,
    current_shared,
    existing_pool,
    shared_pool,
    shutdown_shared_pools,
)
from repro.obs import Observer, observed


@pytest.fixture(autouse=True)
def _clean_pools():
    """Each test starts and ends with no process-wide pools."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


def _pid(_item):
    return os.getpid()


def _shared_sum(index):
    base, offsets = current_shared()
    return base + offsets[index]


def _raise_on_two(value):
    if value == 2:
        raise RuntimeError("point 2 is broken")
    return value


def _kill_worker_on_three(payload):
    parent_pid, value = payload
    if value == 3 and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_worker_on_one(payload):
    parent_pid, value = payload
    if value == 1 and os.getpid() != parent_pid:
        time.sleep(600.0)
    return value * 10


def _observed_point(value):
    from repro.obs import get_observer

    obs = get_observer()
    obs.metrics.counter("test.pool.points").inc()
    obs.metrics.gauge("test.pool.last").set(value)
    obs.metrics.summary("test.pool.values").add(float(value))
    obs.events.emit("pool-point", float(value), value=value)
    return value * 3


class TestChunkRanges:
    def test_covers_range_in_order(self):
        ranges = chunk_ranges(23, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 23
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_chunk_count_is_min_of_total_and_oversubscription(self):
        assert len(chunk_ranges(100, 2)) == 8  # 2 workers x 4
        assert len(chunk_ranges(5, 2)) == 5  # never more than items
        assert len(chunk_ranges(3, 8)) == 3

    def test_sizes_within_one_item(self):
        sizes = [stop - start for start, stop in chunk_ranges(23, 3)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_empty_and_invalid(self):
        assert chunk_ranges(0, 4) == []
        with pytest.raises(ValueError, match="worker_count"):
            chunk_ranges(5, 0)


class TestPoolPersistence:
    def test_workers_survive_across_maps(self):
        """Two consecutive sweeps run on the same worker processes.

        The barrier probe is the deterministic pid census (every worker
        answers exactly once); map results only show whichever workers
        happened to drain chunks, so they are checked as subsets.
        """
        with WorkerPool(2) as pool:
            census = {probe["pid"] for probe in pool.fingerprints()}
            first = set(pool.map(_pid, list(range(8))))
            second = set(pool.map(_pid, list(range(8))))
            after = {probe["pid"] for probe in pool.fingerprints()}
        assert len(census) == 2
        assert after == census  # no silent re-fork between maps
        assert first <= census and second <= census
        assert os.getpid() not in census

    def test_shared_pool_reused_for_same_state_and_payload(self):
        payload = (10, [1, 2, 3])
        pool = shared_pool(2, shared=payload)
        assert shared_pool(2, shared=payload) is pool
        assert existing_pool(2) is pool

    def test_shared_pool_reforks_on_new_payload(self):
        pool = shared_pool(2, shared=(1,))
        replacement = shared_pool(2, shared=(2,))
        assert replacement is not pool
        assert not pool.forked  # the stale pool was shut down

    def test_shared_pool_reforks_on_session_state_change(self):
        pool = shared_pool(2)
        pool.map(_pid, [0, 1])
        flipped = not misscache.enabled()
        misscache.set_enabled(flipped)
        try:
            replacement = shared_pool(2)
            assert replacement is not pool
            assert replacement.state.miss_cache_enabled is flipped
        finally:
            misscache.set_enabled(None)

    def test_parallel_map_uses_process_wide_pool(self):
        first = set(parallel_map(_pid, list(range(8)), jobs=2))
        pool = existing_pool(2)
        assert pool is not None and pool.forked
        census = {probe["pid"] for probe in pool.fingerprints()}
        second = set(parallel_map(_pid, list(range(8)), jobs=2))
        assert first <= census and second <= census
        assert existing_pool(2) is pool


class TestSharedPayload:
    def test_workers_read_shared_via_initializer(self):
        offsets = {0: 100, 1: 200, 2: 300, 3: 400}
        results = parallel_map(
            _shared_sum,
            [0, 1, 2, 3],
            jobs=2,
            shared=(7, offsets),
        )
        assert results == [107, 207, 307, 407]

    def test_serial_path_installs_same_payload(self):
        offsets = {0: 100, 1: 200}
        assert parallel_map(
            _shared_sum, [0, 1], jobs=1, shared=(7, offsets)
        ) == [107, 207]
        assert current_shared() is None  # scoped, not leaked


class TestLifecycleOnFailure:
    def test_exception_mid_chunk_propagates_and_pool_survives(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="point 2 is broken"):
                pool.map(_raise_on_two, list(range(8)))
            # Same workers, still serving maps.
            assert pool.map(_raise_on_two, [0, 1, 3]) == [0, 1, 3]

    def test_context_exit_terminates_workers(self):
        with WorkerPool(2) as pool:
            pool.map(_pid, [0, 1])
            assert pool.forked
        assert not pool.forked

    def test_killed_worker_chunk_retries_on_persistent_pool(self):
        items = [(os.getpid(), value) for value in range(6)]
        with WorkerPool(2) as pool:
            results = pool.map(
                _kill_worker_on_three,
                items,
                task_timeout=2.0,
                task_retries=1,
            )
            assert results == [value * 2 for value in range(6)]

    def test_timeout_reforks_pool_for_next_map(self):
        """After a hang the wedged worker is reaped, and the next map
        still answers from fresh processes."""
        items = [(os.getpid(), value) for value in range(4)]
        with WorkerPool(2) as pool:
            results = pool.map(
                _hang_worker_on_one,
                items,
                task_timeout=1.0,
                task_retries=0,
            )
            assert results == [value * 10 for value in range(4)]
            assert pool.map(_pid, [0, 1]) != []


class TestObserverMerge:
    def test_chunked_merge_matches_serial_byte_for_byte(self):
        """13 points on 2 workers → 8 chunks, most holding 2 points:
        the merge must rebase event sequence numbers across chunk
        boundaries to reproduce the serial artifact streams exactly."""
        items = list(range(13))
        serial = Observer(record_samples=True)
        with observed(serial):
            expected = parallel_map(_observed_point, items, jobs=1)
        parallel = Observer(record_samples=True)
        with observed(parallel):
            observed_results = parallel_map(_observed_point, items, jobs=2)
        assert observed_results == expected
        assert list(parallel.metrics.to_jsonl_lines()) == list(
            serial.metrics.to_jsonl_lines()
        )
        assert list(parallel.events.to_jsonl_lines()) == list(
            serial.events.to_jsonl_lines()
        )
        assert list(parallel.trace.to_jsonl_lines()) == list(
            serial.trace.to_jsonl_lines()
        )

    def test_null_observer_ships_no_telemetry(self):
        results = parallel_map(_observed_point, [1, 2, 3, 4], jobs=2)
        assert results == [3, 6, 9, 12]


class TestFingerprints:
    def test_every_worker_answers_once(self):
        with WorkerPool(2) as pool:
            probes = pool.fingerprints()
        assert len(probes) == 2
        pids = {probe["pid"] for probe in probes}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_pool_fingerprints_probes_the_persistent_pool(self):
        """The diagnostic must reflect the pool sweeps actually use,
        not a throwaway lookalike."""
        parallel_map(_pid, list(range(8)), jobs=2)
        pool = existing_pool(2)
        assert pool is not None
        probes = pool_fingerprints(2)
        assert probes[0]["role"] == "parent"
        assert probes[0]["pid"] == os.getpid()
        workers = [probe for probe in probes if probe["role"] == "worker"]
        assert len(workers) == 2
        # A fast map may be drained by a subset of workers; every pid it
        # does report must belong to the probed pool.
        worker_pids = {probe["pid"] for probe in workers}
        assert worker_pids >= set(parallel_map(_pid, list(range(8)), jobs=2))

    def test_fingerprints_capture_session_state(self):
        state = SessionState.capture()
        with WorkerPool(2) as pool:
            probes = pool.fingerprints()
        for probe in probes:
            assert probe["miss_cache_enabled"] == state.miss_cache_enabled
            assert probe["miss_cache_dir"] == state.miss_cache_dir
