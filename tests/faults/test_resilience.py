"""Tests for the degradation ladder and retry policy."""

import pytest

from repro.core.modes import ExecutionMode, ModeKind
from repro.faults.resilience import (
    LADDER,
    DegradationStage,
    RetryPolicy,
    downgrade_mode,
    mode_for_stage,
    next_stage,
    stage_for_mode,
)


class TestLadder:
    def test_ladder_order(self):
        assert LADDER == (
            DegradationStage.STRICT,
            DegradationStage.ELASTIC,
            DegradationStage.OPPORTUNISTIC,
            DegradationStage.BEST_EFFORT,
        )

    def test_next_stage_walks_down(self):
        assert next_stage(DegradationStage.STRICT) is DegradationStage.ELASTIC
        assert (
            next_stage(DegradationStage.ELASTIC)
            is DegradationStage.OPPORTUNISTIC
        )
        assert (
            next_stage(DegradationStage.OPPORTUNISTIC)
            is DegradationStage.BEST_EFFORT
        )

    def test_ladder_bottoms_out(self):
        assert next_stage(DegradationStage.BEST_EFFORT) is None

    def test_stage_for_mode(self):
        assert (
            stage_for_mode(ExecutionMode.strict()) is DegradationStage.STRICT
        )
        assert (
            stage_for_mode(ExecutionMode.elastic(0.05))
            is DegradationStage.ELASTIC
        )
        assert (
            stage_for_mode(ExecutionMode.opportunistic())
            is DegradationStage.OPPORTUNISTIC
        )

    def test_mode_for_stage_applies_slack(self):
        mode = mode_for_stage(DegradationStage.ELASTIC, elastic_slack=0.10)
        assert mode.kind is ModeKind.ELASTIC
        assert mode.slack == pytest.approx(0.10)

    def test_best_effort_has_no_mode(self):
        assert (
            mode_for_stage(DegradationStage.BEST_EFFORT, elastic_slack=0.1)
            is None
        )


class TestDowngradeMode:
    def test_strict_downgrades_to_elastic(self):
        mode = downgrade_mode(ExecutionMode.strict(), elastic_slack=0.10)
        assert mode.kind is ModeKind.ELASTIC
        assert mode.slack == pytest.approx(0.10)

    def test_elastic_downgrades_to_opportunistic(self):
        mode = downgrade_mode(ExecutionMode.elastic(0.05), elastic_slack=0.10)
        assert mode.kind is ModeKind.OPPORTUNISTIC

    def test_opportunistic_falls_off_the_ladder(self):
        assert (
            downgrade_mode(ExecutionMode.opportunistic(), elastic_slack=0.10)
            is None
        )

    def test_full_walk_takes_exactly_two_rungs(self):
        mode = ExecutionMode.strict()
        rungs = 0
        while mode is not None:
            mode = downgrade_mode(mode, elastic_slack=0.10)
            rungs += 1
        assert rungs == 3  # strict->elastic, elastic->opp, opp->None


class TestRetryPolicy:
    def test_delay_is_geometric(self):
        policy = RetryPolicy()
        assert policy.delay(0) == pytest.approx(0.002)
        assert policy.delay(1) == pytest.approx(0.004)
        assert policy.delay(3) == pytest.approx(0.016)

    def test_exhausted_at_max_retries(self):
        policy = RetryPolicy()
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_zero_retries_exhausts_immediately(self, monkeypatch):
        monkeypatch.setattr(RetryPolicy, "MAX_RETRIES", 0)
        assert RetryPolicy().exhausted(0)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)
