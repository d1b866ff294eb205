"""Tests for the resource-stealing controller (Section 4)."""

import pytest

from repro.core.stealing import (
    ResourceStealingController,
    StealingAction,
    StealingState,
)


class FakeFeedback:
    """Scripted miss-increase feedback."""

    def __init__(self, values):
        self.values = list(values)
        self.index = 0

    def miss_increase_fraction(self):
        value = self.values[min(self.index, len(self.values) - 1)]
        self.index += 1
        return value


def controller(slack=0.05, baseline=7, **kwargs):
    return ResourceStealingController(
        slack=slack, baseline_ways=baseline, **kwargs
    )


class TestConstruction:
    def test_initial_state(self):
        c = controller()
        assert c.current_ways == 7
        assert c.stolen_ways == 0
        assert c.state is StealingState.ACTIVE
        assert c.can_steal_more

    def test_rejects_zero_slack(self):
        with pytest.raises(ValueError):
            controller(slack=0.0)

    def test_rejects_floor_above_baseline(self):
        with pytest.raises(ValueError):
            controller(baseline=2, min_ways=3)


class TestStealingProgression:
    def test_steals_one_way_per_interval(self):
        c = controller()
        feedback = FakeFeedback([0.0] * 10)
        for expected in (6, 5, 4, 3, 2, 1):
            decision = c.on_interval(feedback)
            assert decision.action is StealingAction.STEAL_ONE
            assert decision.elastic_ways == expected

    def test_holds_at_floor(self):
        c = controller(baseline=2, min_ways=1)
        feedback = FakeFeedback([0.0] * 5)
        assert c.on_interval(feedback).action is StealingAction.STEAL_ONE
        decision = c.on_interval(feedback)
        assert decision.action is StealingAction.HOLD
        assert c.current_ways == 1

    def test_respects_custom_floor(self):
        c = controller(baseline=7, min_ways=4)
        feedback = FakeFeedback([0.0] * 10)
        for _ in range(6):
            c.on_interval(feedback)
        assert c.current_ways == 4


class TestCancellation:
    def test_cancel_returns_all_stolen_ways(self):
        # Section 4.3: reaching the slack returns everything at once.
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.0, 0.0, 0.08])
        c.on_interval(feedback)
        c.on_interval(feedback)
        decision = c.on_interval(feedback)
        assert decision.action is StealingAction.CANCEL
        assert c.current_ways == 7
        assert c.stolen_ways == 0
        assert c.state is StealingState.CANCELLED
        assert c.cancellations == 1

    def test_exact_slack_cancels(self):
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.0, 0.05])
        c.on_interval(feedback)
        assert c.on_interval(feedback).action is StealingAction.CANCEL

    def test_no_cancel_without_stolen_ways(self):
        # Miss increase above slack with nothing stolen (e.g. noise
        # before the first steal) must not cancel; it steals normally
        # only when the increase is below slack.
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.10])
        decision = c.on_interval(feedback)
        # Nothing stolen yet, increase over slack: controller holds.
        assert decision.action in (StealingAction.HOLD, StealingAction.STEAL_ONE)
        assert c.current_ways == 7 or c.current_ways == 6

    def test_resume_after_decay(self):
        # Bang-bang behaviour: once the cumulative increase decays
        # below the hysteresis threshold, stealing re-arms.
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.0, 0.08, 0.06, 0.03, 0.03])
        c.on_interval(feedback)  # steal -> 6
        assert c.on_interval(feedback).action is StealingAction.CANCEL
        assert c.on_interval(feedback).action is StealingAction.HOLD  # 0.06
        decision = c.on_interval(feedback)  # 0.03 < 0.9 * 0.05
        assert decision.action is StealingAction.STEAL_ONE
        assert c.state is StealingState.ACTIVE


class TestBusSaturation:
    def test_holds_while_bus_saturated(self):
        # Footnote 2: no stealing at bus saturation.
        c = controller()
        feedback = FakeFeedback([0.0])
        decision = c.on_interval(feedback, bus_saturated=True)
        assert decision.action is StealingAction.HOLD
        assert c.current_ways == 7

    def test_cancel_takes_priority_over_saturation(self):
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.0, 0.10])
        c.on_interval(feedback)
        decision = c.on_interval(feedback, bus_saturated=True)
        assert decision.action is StealingAction.CANCEL


class TestReset:
    def test_reset_rearms(self):
        c = controller(slack=0.05)
        feedback = FakeFeedback([0.0, 0.9])
        c.on_interval(feedback)
        c.on_interval(feedback)
        c.reset()
        assert c.state is StealingState.ACTIVE
        assert c.current_ways == c.baseline_ways
        assert c.intervals_run == 0

    def test_reset_with_new_baseline(self):
        c = controller(baseline=7)
        c.reset(baseline_ways=5)
        assert c.current_ways == 5

    def test_reset_validates_floor(self):
        c = controller(baseline=7, min_ways=4)
        with pytest.raises(ValueError):
            c.reset(baseline_ways=3)


class TestInvariant:
    def test_ways_always_within_bounds(self):
        """current_ways stays in [min_ways, baseline] under any
        feedback sequence."""
        import random

        rng = random.Random(7)
        c = controller(slack=0.05, baseline=7, min_ways=2)
        feedback = FakeFeedback(
            [rng.uniform(0.0, 0.2) for _ in range(200)]
        )
        for _ in range(200):
            c.on_interval(feedback, bus_saturated=rng.random() < 0.2)
            assert c.min_ways <= c.current_ways <= c.baseline_ways
            assert c.stolen_ways == c.baseline_ways - c.current_ways
