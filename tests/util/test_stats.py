"""Tests for running statistics and histograms."""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import Histogram, RunningStats


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_basic_moments(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.spread == 3.0
        assert stats.variance == pytest.approx(1.25)

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        with pytest.raises(ValueError):
            _ = stats.minimum
        with pytest.raises(ValueError):
            _ = stats.maximum

    def test_single_sample(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_reference_implementation(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(
            statistics.fmean(values), rel=1e-9, abs=1e-6
        )
        assert stats.variance == pytest.approx(
            statistics.pvariance(values), rel=1e-6, abs=1e-6
        )
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=100),
        st.lists(finite_floats, min_size=1, max_size=100),
    )
    def test_merge_equals_concatenation(self, left, right):
        a = RunningStats()
        a.extend(left)
        b = RunningStats()
        b.extend(right)
        merged = a.merge(b)
        reference = RunningStats()
        reference.extend(left + right)
        assert merged.count == reference.count
        assert merged.mean == pytest.approx(reference.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(
            reference.variance, rel=1e-6, abs=1e-6
        )
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum

    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        empty = RunningStats()
        assert a.merge(empty).mean == pytest.approx(1.5)
        assert empty.merge(a).count == 2

    def test_merge_empty_with_empty(self):
        merged = RunningStats().merge(RunningStats())
        assert merged.count == 0
        assert merged.mean == 0.0
        assert merged.variance == 0.0
        with pytest.raises(ValueError):
            _ = merged.minimum

    def test_merge_empty_with_nonempty_copies_all_moments(self):
        samples = [3.0, -1.0, 4.0, 1.5]
        populated = RunningStats()
        populated.extend(samples)
        for merged in (
            RunningStats().merge(populated),
            populated.merge(RunningStats()),
        ):
            assert merged.count == len(samples)
            assert merged.mean == pytest.approx(populated.mean)
            assert merged.variance == pytest.approx(populated.variance)
            assert merged.minimum == populated.minimum
            assert merged.maximum == populated.maximum

    def test_merge_matches_single_stream_fold(self):
        left, right = [10.0, 20.0, 30.0], [-5.0, 15.0]
        a = RunningStats()
        a.extend(left)
        b = RunningStats()
        b.extend(right)
        merged = a.merge(b)
        folded = RunningStats()
        folded.extend(left + right)
        assert merged.count == folded.count
        assert merged.mean == pytest.approx(folded.mean)
        assert merged.variance == pytest.approx(folded.variance)
        assert merged.minimum == folded.minimum
        assert merged.maximum == folded.maximum

    def test_merge_does_not_mutate_operands(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        b = RunningStats()
        b.add(9.0)
        a.merge(b)
        assert a.count == 2
        assert b.count == 1
        assert a.mean == pytest.approx(1.5)


class TestHistogram:
    def test_bucketing(self):
        histogram = Histogram(bucket_width=10.0)
        for value in (1, 5, 12, 25, 26):
            histogram.add(value)
        buckets = dict(histogram.buckets())
        assert buckets[0.0] == 2
        assert buckets[10.0] == 1
        assert buckets[20.0] == 2
        assert histogram.count == 5

    def test_percentile(self):
        histogram = Histogram(bucket_width=1.0)
        for value in range(100):
            histogram.add(float(value))
        assert histogram.percentile(50) == pytest.approx(49.5, abs=1.0)
        assert histogram.percentile(100) == pytest.approx(99.5, abs=1.0)

    def test_percentile_validation(self):
        histogram = Histogram(bucket_width=1.0)
        with pytest.raises(ValueError):
            histogram.percentile(50)  # empty
        histogram.add(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(120)

    def test_zero_width_rejected_at_construction(self):
        # Regression: the width used to be checked only on the first
        # add(), so a sample-free misconfigured histogram went unnoticed.
        with pytest.raises(ValueError, match="bucket_width"):
            Histogram(bucket_width=0.0)

    def test_negative_width_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bucket_width"):
            Histogram(bucket_width=-2.5)

    def test_percentile_extremes(self):
        histogram = Histogram(bucket_width=1.0)
        for value in range(100):
            histogram.add(float(value))
        # p0 lands in the lowest bucket, p100 in the highest; both stay
        # inside the observed range (edge + half a bucket).
        assert histogram.percentile(0) == pytest.approx(0.5)
        assert histogram.percentile(100) == pytest.approx(99.5)

    def test_negative_values_floor_into_negative_buckets(self):
        histogram = Histogram(bucket_width=10.0)
        for value in (-1.0, -5.0, -10.0, -11.0, 3.0):
            histogram.add(value)
        buckets = dict(histogram.buckets())
        # Python's // floors, so -1, -5 and -10 land in [-10, 0) and
        # -11 in [-20, -10) — not all smeared into bucket 0.
        assert buckets[-10.0] == 3
        assert buckets[-20.0] == 1
        assert buckets[0.0] == 1
        assert histogram.stats.minimum == -11.0
