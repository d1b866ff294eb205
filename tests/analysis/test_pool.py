"""Lifecycle and telemetry contracts of the per-call worker pool.

Covers what ``test_parallel.py`` (semantics of ``parallel_map``) does
not: that no worker outlives a map, whether it returns or raises, that
shared payloads and the parent's miss-cache state reach the workers
via the pool initializer, and that the chunked observer merge
reproduces serial artifact streams byte for byte — including event
sequence rebasing across chunk boundaries.
"""

import multiprocessing

import pytest

from repro.analysis import misscache
from repro.analysis.parallel import chunk_ranges, current_shared, parallel_map
from repro.obs import Observer, observed


def _square(value):
    return value * value


def _shared_sum(index):
    base, offsets = current_shared()
    return base + offsets[index]


def _raise_on_two(value):
    if value == 2:
        raise RuntimeError("point 2 is broken")
    return value


def _miss_cache_state(_item):
    return misscache.enabled(), str(misscache.cache_dir())


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


class TestOnePoolPerMap:
    def test_no_worker_outlives_a_map(self):
        assert parallel_map(_square, range(8), jobs=2) == [
            value * value for value in range(8)
        ]
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_map(self):
        with pytest.raises(RuntimeError, match="point 2 is broken"):
            parallel_map(_raise_on_two, range(8), jobs=2)
        assert multiprocessing.active_children() == []

    def test_workers_resolve_the_parent_miss_cache_state(self, tmp_path):
        misscache.set_enabled(False)
        misscache.set_cache_dir(tmp_path)
        try:
            states = parallel_map(_miss_cache_state, range(4), jobs=2)
        finally:
            misscache.set_enabled(None)
            misscache.set_cache_dir(None)
        assert states == [(False, str(tmp_path))] * 4


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

    def test_null_observer_ships_no_telemetry(self):
        results = parallel_map(_observed_point, [1, 2, 3, 4], jobs=2)
        assert results == [3, 6, 9, 12]
