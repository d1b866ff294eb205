"""Progress plumbing: `parallel_map(progress=...)` and sweep heartbeats.

The callback contract — ``progress(done, total)`` with monotone
``done`` ending at ``total`` — on the serial and pool paths, and the
sweep progress stream it feeds (DESIGN.md §13.3): begin/progress/end
records, the served-from-store vs executed split, and dense ``seq``
across an interrupted-then-resumed campaign.
"""

import pytest

from repro.analysis import misscache
from repro.analysis.parallel import parallel_map
from repro.analysis.pool import chunk_ranges, existing_pool
from repro.analysis.store import ResultStore
from repro.analysis.sweep import (
    progress_path_for,
    run_sweep,
    sweep_from_dict,
)
from repro.obs.timeseries import load_history_jsonl
from repro.workloads.profiler import clear_curve_cache

#: Small enough that a whole point takes well under a second.
FAST_KNOBS = {
    "instructions_per_job": 2_000_000,
    "profile_num_sets": 8,
    "profile_accesses": 2_000,
}


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path):
    misscache.set_cache_dir(tmp_path / "curves")
    misscache.set_enabled(True)
    misscache.reset_stats()
    clear_curve_cache()
    yield
    clear_curve_cache()
    misscache.set_cache_dir(None)
    misscache.set_enabled(None)
    misscache.reset_stats()


def _square(x):
    return x * x


def _fail_on_five(x):
    if x == 5:
        raise RuntimeError("point 5 is broken")
    return x * x


class TestParallelMapProgress:
    def test_serial_path_reports_per_item(self):
        calls = []
        result = parallel_map(
            _square, [1, 2, 3], jobs=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert result == [1, 4, 9]
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_pool_path_is_monotone_and_complete(self):
        calls = []
        items = list(range(10))
        result = parallel_map(
            _square, items, jobs=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert result == [x * x for x in items]
        dones = [done for done, _total in calls]
        assert dones == sorted(dones)  # monotone
        assert dones[-1] == len(items)
        assert all(total == len(items) for _done, total in calls)

    def test_pool_path_exception_propagates_and_pool_survives(self):
        # With a callback the pool dispatches one task per chunk, not
        # `Pool.map`: the path `repro sweep run --jobs N` takes unless
        # given `--no-progress`.
        items = list(range(8))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]
        pool = existing_pool(2)
        census = {probe["pid"] for probe in pool.fingerprints()}

        calls = []
        with pytest.raises(RuntimeError, match="point 5 is broken"):
            parallel_map(
                _fail_on_five, items, jobs=2,
                progress=lambda done, total: calls.append((done, total)),
            )
        # Chunks are collected in input order, so exactly the chunks
        # before the failing one were reported.
        assert calls == [
            (stop, len(items))
            for _start, stop in chunk_ranges(len(items), 2)
            if stop <= 5
        ]
        dones = [done for done, _total in calls]
        assert dones == sorted(dones) and dones[-1] < len(items)

        again = []
        result = parallel_map(
            _square, items, jobs=2,
            progress=lambda done, total: again.append(done),
        )
        assert result == [x * x for x in items]
        assert again[-1] == len(items)
        # The same pool and the same worker processes served it.
        assert existing_pool(2) is pool
        assert {probe["pid"] for probe in pool.fingerprints()} == census

    def test_no_progress_means_no_calls(self):
        # The default path must stay untouched (and identical).
        assert parallel_map(_square, [1, 2], jobs=1) == [1, 4]

    def test_results_identical_with_and_without_progress(self):
        items = list(range(7))
        plain = parallel_map(_square, items, jobs=2)
        with_progress = parallel_map(
            _square, items, jobs=2, progress=lambda d, t: None
        )
        assert plain == with_progress


def spec_payload(name="progress-smoke"):
    return {
        "version": 1,
        "name": name,
        "defaults": dict(FAST_KNOBS),
        "matrix": {
            "workload": ["bzip2"],
            "configuration": ["All-Strict", "EqualPart"],
        },
    }


class TestSweepProgressStream:
    def test_stream_shape_and_split(self, tmp_path):
        spec = sweep_from_dict(spec_payload())
        store_dir = tmp_path / "store"
        outcome = run_sweep(
            spec, store_dir=store_dir, progress_out=True
        )
        assert outcome.executed == 2
        path = progress_path_for(ResultStore(store_dir), spec.name)
        records = load_history_jsonl(path)  # validates dense seq
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "sweep.begin"
        assert kinds[-1] == "sweep.end"
        assert kinds.count("sweep.progress") == 2  # one per point
        begin = records[0]["series"]
        assert begin == {
            "total": 2, "served": 0, "pending": 2, "workers": 1,
        }
        end = records[-1]["series"]
        assert end["done"] == 2 and end["executed"] == 2
        assert end["pending"] == 0
        assert records[-1]["status"] == "complete"
        assert all(r["sweep"] == spec.name for r in records)

    def test_resume_appends_with_dense_seq_and_served_split(
        self, tmp_path
    ):
        spec = sweep_from_dict(spec_payload())
        store_dir = tmp_path / "store"
        run_sweep(spec, store_dir=store_dir, progress_out=True)
        warm = run_sweep(spec, store_dir=store_dir, progress_out=True)
        assert warm.served_from_store == 2 and warm.executed == 0
        path = progress_path_for(ResultStore(store_dir), spec.name)
        records = load_history_jsonl(path)  # dense across both runs
        begins = [r for r in records if r["kind"] == "sweep.begin"]
        assert len(begins) == 2
        # The resumed run's begin shows the store-served partition.
        assert begins[1]["series"]["served"] == 2
        assert begins[1]["series"]["pending"] == 0
        assert records[-1]["kind"] == "sweep.end"
        assert records[-1]["series"]["executed"] == 0

    def test_progress_records_carry_throughput(self, tmp_path):
        spec = sweep_from_dict(spec_payload())
        outcome = run_sweep(
            spec, store_dir=tmp_path / "store", progress_out=True
        )
        assert outcome.executed == 2
        path = progress_path_for(
            ResultStore(tmp_path / "store"), spec.name
        )
        progress = [
            r for r in load_history_jsonl(path)
            if r["kind"] == "sweep.progress"
        ]
        assert progress
        for record in progress:
            assert record["series"]["throughput"] >= 0.0

    def test_explicit_path_and_disabled(self, tmp_path):
        spec = sweep_from_dict(spec_payload())
        explicit = tmp_path / "my-progress.jsonl"
        run_sweep(
            spec, store_dir=tmp_path / "store", progress_out=explicit
        )
        assert load_history_jsonl(explicit)
        default = progress_path_for(
            ResultStore(tmp_path / "store"), spec.name
        )
        assert not default.exists()

        spec2 = sweep_from_dict(spec_payload(name="silent"))
        run_sweep(spec2, store_dir=tmp_path / "store2")
        assert not progress_path_for(
            ResultStore(tmp_path / "store2"), "silent"
        ).exists()

    def test_report_bytes_unchanged_by_progress(self, tmp_path):
        # The §12.3 byte-stable report must not absorb heartbeat state.
        spec = sweep_from_dict(spec_payload())
        with_stream = run_sweep(
            spec, store_dir=tmp_path / "a", progress_out=True
        )
        without = run_sweep(spec, store_dir=tmp_path / "b")
        assert (
            with_stream.report_path.read_bytes()
            == without.report_path.read_bytes()
        )
