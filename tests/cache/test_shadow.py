"""Tests for the duplicate (shadow) tag arrays (Section 4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.shadow import ShadowTagArray


def make_shadow(baseline_ways=4, sample_period=2, num_sets=8, assoc=8):
    geometry = CacheGeometry.from_sets(num_sets, assoc, 64)
    return ShadowTagArray(
        geometry, baseline_ways, sample_period=sample_period
    )


def addr(set_index, tag, shadow):
    return shadow.geometry.compose(tag, set_index)


class TestConstruction:
    def test_sampling_covers_expected_sets(self):
        shadow = make_shadow(sample_period=2, num_sets=8)
        assert shadow.num_sampled_sets == 4
        assert shadow.is_sampled(addr(0, 1, shadow))
        assert not shadow.is_sampled(addr(1, 1, shadow))

    def test_paper_configuration_storage(self):
        # Every 8th set of a 2048-set L2 with a 7-way baseline: the
        # duplicate tags cost well under 1/8 of the main tag storage.
        geometry = CacheGeometry(
            size_bytes=2 * 1024 * 1024, associativity=16, block_bytes=64
        )
        shadow = ShadowTagArray(geometry, 7, sample_period=8)
        assert shadow.num_sampled_sets == 256
        assert shadow.storage_overhead_fraction() < 1 / 8

    def test_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            make_shadow(baseline_ways=0)
        with pytest.raises(ValueError):
            make_shadow(baseline_ways=9)

    def test_rejects_period_beyond_sets(self):
        with pytest.raises(ValueError):
            make_shadow(sample_period=16, num_sets=8)


class TestObservation:
    def test_unsampled_sets_ignored(self):
        shadow = make_shadow(sample_period=2)
        assert shadow.observe(addr(1, 1, shadow), main_hit=False) is None
        assert shadow.sampled_accesses == 0

    def test_shadow_simulates_baseline_lru(self):
        shadow = make_shadow(baseline_ways=2, sample_period=1, num_sets=1)
        a, b, c = (addr(0, t, shadow) for t in (1, 2, 3))
        assert shadow.observe(a, True) is False  # cold miss
        assert shadow.observe(b, True) is False
        assert shadow.observe(a, True) is True  # a is MRU
        assert shadow.observe(c, True) is False  # evicts b (LRU)
        assert shadow.observe(c, True) is True  # c resident
        assert shadow.observe(a, True) is True  # a survived
        assert shadow.observe(b, True) is False  # b was evicted

    def test_counts_main_misses_on_sampled_sets_only(self):
        shadow = make_shadow(sample_period=2)
        shadow.observe(addr(0, 1, shadow), main_hit=False)  # sampled
        shadow.observe(addr(1, 1, shadow), main_hit=False)  # not sampled
        assert shadow.main_misses == 1


class TestStealingCriterion:
    def test_no_increase_when_main_matches_shadow(self):
        # Use a reference cache with the same geometry as the shadow's
        # baseline to produce main_hit outcomes identical to the
        # shadow's own simulation -- no stealing means no increase.
        from repro.cache.basic import SetAssociativeCache

        shadow = make_shadow(baseline_ways=2, sample_period=1, num_sets=1)
        main = SetAssociativeCache(CacheGeometry.from_sets(1, 2, 64))
        for tag in (1, 2, 1, 2, 3, 1, 4, 2, 1):
            address = addr(0, tag, shadow)
            shadow.observe(address, main_hit=main.access(address).hit)
        assert shadow.shadow_misses > 0
        assert shadow.main_misses == shadow.shadow_misses
        assert shadow.miss_increase_fraction() == 0.0

    def test_increase_when_main_misses_more(self):
        shadow = make_shadow(baseline_ways=4, sample_period=1, num_sets=1)
        # Shadow hits (small working set) but the stolen main cache
        # misses everything.
        for _ in range(3):
            for tag in (1, 2):
                shadow.observe(addr(0, tag, shadow), main_hit=False)
        assert shadow.shadow_misses == 2  # two cold misses only
        assert shadow.main_misses == 6
        assert shadow.miss_increase_fraction() == pytest.approx(2.0)
        assert shadow.exceeds_slack(0.05)
        assert shadow.exceeds_slack(2.0)
        assert not shadow.exceeds_slack(2.5)

    def test_zero_shadow_misses_never_exceeds(self):
        shadow = make_shadow()
        assert not shadow.exceeds_slack(0.05)
        assert shadow.miss_increase_fraction() == 0.0

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            make_shadow().exceeds_slack(-0.1)

    def test_increase_never_negative(self):
        shadow = make_shadow(baseline_ways=1, sample_period=1, num_sets=1)
        # Main (larger) cache hits where the 1-way shadow misses.
        for tag in (1, 2, 1, 2):
            shadow.observe(addr(0, tag, shadow), main_hit=True)
        assert shadow.shadow_misses > 0
        assert shadow.main_misses == 0
        assert shadow.miss_increase_fraction() == 0.0


class TestReset:
    def test_reset_clears_counters_and_tags(self):
        shadow = make_shadow(baseline_ways=2, sample_period=1, num_sets=1)
        shadow.observe(addr(0, 1, shadow), main_hit=False)
        shadow.reset()
        assert shadow.sampled_accesses == 0
        assert shadow.shadow_misses == 0
        assert shadow.main_misses == 0
        # The tag is gone: the same access misses again.
        assert shadow.observe(addr(0, 1, shadow), main_hit=True) is False

    def test_reset_can_change_baseline(self):
        shadow = make_shadow(baseline_ways=2)
        shadow.reset(baseline_ways=5)
        assert shadow.baseline_ways == 5
        with pytest.raises(ValueError):
            shadow.reset(baseline_ways=99)


class TestAgainstReferenceCache:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=11), min_size=1, max_size=300
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_shadow_equals_real_cache_of_baseline_ways(self, tags):
        """Property: the shadow's hit/miss stream on a sampled set is
        identical to a real LRU cache of ``baseline_ways`` ways."""
        from repro.cache.basic import SetAssociativeCache

        shadow = make_shadow(baseline_ways=3, sample_period=1, num_sets=1)
        reference = SetAssociativeCache(CacheGeometry.from_sets(1, 3, 64))
        for tag in tags:
            address = addr(0, tag, shadow)
            expected = reference.access(address).hit
            observed = shadow.observe(address, main_hit=True)
            assert observed == expected
