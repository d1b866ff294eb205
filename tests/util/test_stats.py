"""Tests for running statistics."""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import RunningStats


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
