"""The on-disk miss-curve store: keying, round-trips, integration."""

import json

import pytest

from repro.analysis import misscache
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.profiler import (
    clear_curve_cache,
    get_curve,
    profile_benchmark,
)

PROFILE_KWARGS = dict(num_sets=8, block_bytes=64, accesses=2_000, seed=99)


@pytest.fixture(autouse=True)
def isolated_store(tmp_path):
    """Point the store at a temp dir and reset all state around each test."""
    misscache.set_cache_dir(tmp_path)
    misscache.set_enabled(True)
    misscache.reset_stats()
    clear_curve_cache()
    yield tmp_path
    clear_curve_cache()
    misscache.set_cache_dir(None)
    misscache.set_enabled(None)
    misscache.reset_stats()


class TestKeying:
    def test_key_is_stable(self):
        profile = get_benchmark("bzip2")
        assert misscache.curve_key(
            profile, **PROFILE_KWARGS
        ) == misscache.curve_key(profile, **PROFILE_KWARGS)

    def test_key_varies_with_every_parameter(self):
        profile = get_benchmark("bzip2")
        base = misscache.curve_key(profile, **PROFILE_KWARGS)
        variants = [
            misscache.curve_key(get_benchmark("hmmer"), **PROFILE_KWARGS),
            misscache.curve_key(
                profile, **{**PROFILE_KWARGS, "num_sets": 16}
            ),
            misscache.curve_key(
                profile, **{**PROFILE_KWARGS, "block_bytes": 32}
            ),
            misscache.curve_key(
                profile, **{**PROFILE_KWARGS, "accesses": 4_000}
            ),
            misscache.curve_key(profile, **{**PROFILE_KWARGS, "seed": 100}),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_key_includes_code_fingerprint(self):
        assert len(misscache.code_fingerprint()) == 64


class TestRoundTrip:
    def test_store_then_load(self):
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 5), warmup=500, **PROFILE_KWARGS
        )
        # ways_list/warmup differ from the keying defaults, but load/
        # store use the same defaults on both sides, so this is only
        # exercising the round-trip fidelity of the payload.
        assert misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        loaded = misscache.load_curve(profile, **PROFILE_KWARGS)
        assert loaded is not None
        assert loaded.benchmark == curve.benchmark
        assert loaded.points == curve.points
        assert (
            loaded.l2_accesses_per_instruction
            == curve.l2_accesses_per_instruction
        )
        assert misscache.stats() == {
            "hits": 1,
            "misses": 0,
            "stores": 1,
            "quarantined": 0,
        }

    def test_load_missing_counts_a_miss(self):
        assert misscache.load_curve(
            get_benchmark("bzip2"), **PROFILE_KWARGS
        ) is None
        assert misscache.stats()["misses"] == 1

    def test_corrupt_entry_is_a_miss_and_quarantined(self, isolated_store):
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        path = misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        path.write_text("{ not json")
        assert misscache.load_curve(profile, **PROFILE_KWARGS) is None
        assert not path.exists()
        quarantined = path.with_suffix(misscache.QUARANTINE_SUFFIX)
        assert quarantined.read_text() == "{ not json"
        assert misscache.stats()["quarantined"] == 1
        assert misscache.quarantine_count() == 1

    def test_torn_write_is_quarantined_then_healed(self, isolated_store):
        """A truncated entry never raises: quarantine, re-store, hit."""
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        path = misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        intact = path.read_text()
        # Simulate a torn write: the file exists but holds a prefix of
        # the payload (what a crash mid-write without atomicity leaves).
        path.write_text(intact[: len(intact) // 2])
        assert misscache.load_curve(profile, **PROFILE_KWARGS) is None
        assert misscache.quarantine_count() == 1
        # Re-store over the quarantined name and read it back.
        assert misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        healed = misscache.load_curve(profile, **PROFILE_KWARGS)
        assert healed is not None
        assert healed.points == curve.points
        # The quarantined evidence is still on disk, clear() removes it.
        assert misscache.quarantine_count() == 1
        assert misscache.clear() == 2
        assert misscache.quarantine_count() == 0

    def test_wrong_schema_entry_is_quarantined(self, isolated_store):
        """Valid JSON with the wrong shape is corruption too."""
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        path = misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        path.write_text(json.dumps({"curve": [1, 2, 3]}))
        assert misscache.load_curve(profile, **PROFILE_KWARGS) is None
        assert misscache.quarantine_count() == 1

    def test_concurrent_style_writes_leave_no_temp_files(
        self, isolated_store
    ):
        """Repeated store_curve calls (as parallel workers race) are clean."""
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        for _ in range(5):
            assert misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        assert misscache.entry_count() == 1
        leftovers = [
            entry
            for entry in isolated_store.iterdir()
            if entry.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_disabled_store_never_touches_disk(self, isolated_store):
        misscache.set_enabled(False)
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        assert misscache.store_curve(curve, profile, **PROFILE_KWARGS) is None
        assert misscache.load_curve(profile, **PROFILE_KWARGS) is None
        assert misscache.entry_count() == 0
        assert misscache.stats() == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }

    def test_clear_removes_entries(self):
        profile = get_benchmark("bzip2")
        curve = profile_benchmark(
            profile, ways_list=range(1, 3), warmup=0, **PROFILE_KWARGS
        )
        misscache.store_curve(curve, profile, **PROFILE_KWARGS)
        assert misscache.entry_count() == 1
        assert misscache.clear() == 1
        assert misscache.entry_count() == 0


class TestGetCurveIntegration:
    def test_second_process_equivalent_lookup_hits_disk(self):
        profile = get_benchmark("bzip2")
        first = get_curve(profile, num_sets=8, accesses=2_000, seed=7)
        assert misscache.stats()["stores"] == 1
        # Simulate a fresh process: drop the in-memory layer only.
        clear_curve_cache()
        second = get_curve(profile, num_sets=8, accesses=2_000, seed=7)
        assert misscache.stats()["hits"] == 1
        assert second.points == first.points

    def test_curves_identical_across_backends(self):
        profile = get_benchmark("gobmk")
        kwargs = dict(num_sets=8, accesses=2_000, seed=7)
        stored = get_curve(profile, **kwargs)
        reference = profile_benchmark(profile, backend="reference", **kwargs)
        assert stored.points == reference.points

    def test_entry_payload_is_inspectable_json(self, isolated_store):
        profile = get_benchmark("bzip2")
        get_curve(profile, num_sets=8, accesses=2_000, seed=7)
        entries = list(isolated_store.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["benchmark"] == "bzip2"
        assert "curve" in payload
