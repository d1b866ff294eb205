"""Tests for QoS target specification (Section 3.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.modes import ExecutionMode
from repro.core.spec import (
    PRESET_TARGETS,
    QoSTarget,
    ResourceVector,
    TimeslotRequest,
)


class TestResourceVector:
    def test_fits_within(self):
        assert ResourceVector(1, 7).fits_within(ResourceVector(4, 16))
        assert not ResourceVector(1, 7).fits_within(ResourceVector(4, 6))
        assert not ResourceVector(5, 1).fits_within(ResourceVector(4, 16))

    def test_addition_and_subtraction(self):
        total = ResourceVector(1, 7) + ResourceVector(2, 3)
        assert total == ResourceVector(3, 10)
        assert total - ResourceVector(1, 7) == ResourceVector(2, 3)

    def test_subtraction_cannot_go_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1) - ResourceVector(2, 0)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(-1, 0)

    def test_is_zero(self):
        assert ResourceVector().is_zero()
        assert not ResourceVector(cores=1).is_zero()

    @given(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
    )
    def test_fits_within_is_componentwise(self, c1, w1, c2, w2):
        fits = ResourceVector(c1, w1).fits_within(ResourceVector(c2, w2))
        assert fits == (c1 <= c2 and w1 <= w2)


class TestTimeslotRequest:
    def test_slack(self):
        slot = TimeslotRequest(max_wall_clock=10.0, deadline=25.0)
        assert slot.slack_at(5.0) == pytest.approx(10.0)

    def test_no_deadline_no_slack(self):
        assert TimeslotRequest(max_wall_clock=10.0).slack_at(0.0) is None

    def test_wall_clock_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeslotRequest(max_wall_clock=0.0)


class TestQoSTarget:
    def test_rum_targets_are_convertible(self):
        target = QoSTarget(ResourceVector(1, 7))
        assert target.is_convertible

    def test_must_request_something(self):
        with pytest.raises(ValueError):
            QoSTarget(ResourceVector(0, 0))

    def test_reservation_duration_follows_mode(self):
        slot = TimeslotRequest(max_wall_clock=10.0, deadline=30.0)
        strict = QoSTarget(ResourceVector(1, 7), slot)
        elastic = QoSTarget(
            ResourceVector(1, 7), slot, ExecutionMode.elastic(0.05)
        )
        opportunistic = QoSTarget(
            ResourceVector(1, 7), slot, ExecutionMode.opportunistic()
        )
        assert strict.reservation_duration() == pytest.approx(10.0)
        assert elastic.reservation_duration() == pytest.approx(10.5)
        assert opportunistic.reservation_duration() == 0.0

    def test_lifetime_target_has_no_duration(self):
        assert QoSTarget(ResourceVector(1, 7)).reservation_duration() is None

    def test_presets_fit_the_machine(self):
        machine = ResourceVector(cores=4, cache_ways=16)
        for name, preset in PRESET_TARGETS.items():
            assert preset.fits_within(machine), name

