"""Tests for execution modes and mode downgrade (Sections 3.3-3.4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.partitioned import PartitionClass
from repro.core.modes import (
    ExecutionMode,
    ModeKind,
    downgrade_to_elastic,
    is_interchangeable,
    max_elastic_slack,
    opportunistic_window,
    time_slack,
)


class TestConstruction:
    def test_strict(self):
        mode = ExecutionMode.strict()
        assert mode.kind is ModeKind.STRICT
        assert not mode.allows_stealing

    def test_elastic_carries_slack(self):
        mode = ExecutionMode.elastic(0.05)
        assert mode.kind is ModeKind.ELASTIC
        assert mode.slack == 0.05
        assert mode.allows_stealing

    def test_opportunistic(self):
        mode = ExecutionMode.opportunistic()
        assert not mode.allows_stealing

    def test_elastic_requires_positive_slack(self):
        with pytest.raises(ValueError):
            ExecutionMode.elastic(0.0)
        with pytest.raises(ValueError):
            ExecutionMode.elastic(-0.1)

    def test_slack_only_for_elastic(self):
        with pytest.raises(ValueError):
            ExecutionMode(ModeKind.STRICT, slack=0.1)

    def test_describe(self):
        assert ExecutionMode.strict().describe() == "Strict"
        assert ExecutionMode.elastic(0.05).describe() == "Elastic(5%)"
        assert ExecutionMode.opportunistic().describe() == "Opportunistic"

    def test_equality_is_value_based(self):
        assert ExecutionMode.elastic(0.05) == ExecutionMode.elastic(0.05)
        assert ExecutionMode.elastic(0.05) != ExecutionMode.elastic(0.10)


class TestPartitionClassMapping:
    def test_reserved_modes_map_to_reserved(self):
        assert ExecutionMode.strict().partition_class is PartitionClass.RESERVED
        assert (
            ExecutionMode.elastic(0.05).partition_class
            is PartitionClass.RESERVED
        )

    def test_opportunistic_maps_to_best_effort(self):
        assert (
            ExecutionMode.opportunistic().partition_class
            is PartitionClass.BEST_EFFORT
        )


class TestReservationDuration:
    def test_strict_reserves_exactly_tw(self):
        assert ExecutionMode.strict().reservation_duration(10.0) == 10.0

    def test_elastic_stretches_by_slack(self):
        # Section 3.4: Elastic(X) reserves tw * (1 + X).
        assert ExecutionMode.elastic(0.05).reservation_duration(
            10.0
        ) == pytest.approx(10.5)

    def test_opportunistic_reserves_nothing(self):
        assert ExecutionMode.opportunistic().reservation_duration(10.0) == 0.0

    def test_rejects_bad_wall_clock(self):
        with pytest.raises(ValueError):
            ExecutionMode.strict().reservation_duration(0.0)


class TestDowngradeMath:
    def test_time_slack(self):
        # arrival 0, deadline 15, tw 10 -> slack 5.
        assert time_slack(0.0, 15.0, 10.0) == pytest.approx(5.0)

    def test_max_elastic_slack_is_paper_formula(self):
        # ((td - ta) - tw) / tw
        assert max_elastic_slack(0.0, 15.0, 10.0) == pytest.approx(0.5)

    def test_no_negative_slack(self):
        assert max_elastic_slack(0.0, 9.0, 10.0) == 0.0

    def test_downgrade_to_elastic_none_without_slack(self):
        assert downgrade_to_elastic(0.0, 10.0, 10.0) is None

    def test_downgrade_to_elastic_mode(self):
        mode = downgrade_to_elastic(0.0, 12.0, 10.0)
        assert mode is not None
        assert mode.kind is ModeKind.ELASTIC
        assert mode.slack == pytest.approx(0.2)

    def test_opportunistic_window_ends_at_deadline_minus_tw(self):
        # The job must be back in Strict by td - tw (Section 3.3).
        assert opportunistic_window(0.0, 30.0, 10.0) == pytest.approx(20.0)

    def test_opportunistic_window_none_without_slack(self):
        assert opportunistic_window(0.0, 10.0, 10.0) is None

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=1.0, max_value=5.0),
    )
    def test_elastic_downgrade_always_meets_deadline(self, ta, tw, mult):
        """Property: a job stretched by the derived elastic slack still
        completes exactly at or before its deadline."""
        td = ta + mult * tw
        mode = downgrade_to_elastic(ta, td, tw)
        if mode is None:
            return
        stretched = tw * (1.0 + mode.slack)
        assert ta + stretched <= td + 1e-9


class TestInterchangeability:
    def test_upgrade_to_strict_always_safe(self):
        assert is_interchangeable(
            ExecutionMode.opportunistic(),
            ExecutionMode.strict(),
            arrival=0.0,
            deadline=10.0,
            max_wall_clock=10.0,
        )

    def test_elastic_interchangeable_if_stretch_fits(self):
        assert is_interchangeable(
            ExecutionMode.strict(),
            ExecutionMode.elastic(0.5),
            arrival=0.0,
            deadline=15.0,
            max_wall_clock=10.0,
        )
        assert not is_interchangeable(
            ExecutionMode.strict(),
            ExecutionMode.elastic(0.51),
            arrival=0.0,
            deadline=15.0,
            max_wall_clock=10.0,
        )

    def test_opportunistic_needs_positive_slack(self):
        assert is_interchangeable(
            ExecutionMode.strict(),
            ExecutionMode.opportunistic(),
            arrival=0.0,
            deadline=11.0,
            max_wall_clock=10.0,
        )
        assert not is_interchangeable(
            ExecutionMode.strict(),
            ExecutionMode.opportunistic(),
            arrival=0.0,
            deadline=10.0,
            max_wall_clock=10.0,
        )

    def test_unreachable_deadline_never_interchangeable(self):
        assert not is_interchangeable(
            ExecutionMode.strict(),
            ExecutionMode.strict(),
            arrival=5.0,
            deadline=10.0,
            max_wall_clock=10.0,
        )
