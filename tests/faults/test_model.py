"""Tests for the deterministic fault models (repro.faults.model)."""

import math

import pytest

from repro.faults.model import FaultConfig, FaultEvent, FaultKind, FaultSchedule


class TestFaultEvent:
    def test_describe_names_the_kind(self):
        event = FaultEvent(
            time=0.01, kind=FaultKind.CORE_FAILURE, target=2, duration=0.05
        )
        assert "core-failure" in event.describe()
        assert "core 2" in event.describe()

    def test_to_dict_round_trips_the_kind_value(self):
        event = FaultEvent(time=0.0, kind=FaultKind.ECC_TAG_ERROR, target=1)
        assert event.to_dict()["kind"] == "ecc-tag-error"

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.CORE_STALL)

    def test_rejects_magnitude_above_one(self):
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0,
                kind=FaultKind.BANDWIDTH_DEGRADATION,
                magnitude=1.5,
            )


class TestFaultConfig:
    def test_default_config_has_no_faults(self):
        assert not FaultConfig().has_any_faults

    def test_any_positive_rate_counts(self):
        assert FaultConfig(ecc_error_rate=0.1).has_any_faults

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="finite"):
            FaultConfig(core_failure_rate=math.nan)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            FaultConfig(horizon=-1.0)


class TestScheduleGeneration:
    def test_zero_rates_schedule_nothing(self):
        schedule = FaultSchedule.generate(
            FaultConfig(), horizon=10.0, num_cores=4
        )
        assert len(schedule) == 0
        assert not schedule

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule.generate(
            FaultConfig(core_failure_rate=50.0, core_stall_rate=50.0),
            horizon=1.0,
            num_cores=4,
        )
        times = [event.time for event in schedule]
        assert times == sorted(times)
        assert len(schedule) > 10

    def test_same_seed_is_byte_identical(self):
        config = FaultConfig(
            seed=11, core_failure_rate=20.0, bandwidth_degradation_rate=5.0
        )
        a = FaultSchedule.generate(config, horizon=2.0, num_cores=4)
        b = FaultSchedule.generate(config, horizon=2.0, num_cores=4)
        assert a.events == b.events
        assert a.digest() == b.digest()

    def test_different_seed_changes_the_timeline(self):
        a = FaultSchedule.generate(
            FaultConfig(seed=1, core_failure_rate=20.0),
            horizon=2.0,
            num_cores=4,
        )
        b = FaultSchedule.generate(
            FaultConfig(seed=2, core_failure_rate=20.0),
            horizon=2.0,
            num_cores=4,
        )
        assert a.digest() != b.digest()

    def test_kind_streams_are_independent(self):
        """Enabling stalls must not perturb the core-failure draws."""
        alone = FaultSchedule.generate(
            FaultConfig(seed=9, core_failure_rate=20.0),
            horizon=2.0,
            num_cores=4,
        )
        combined = FaultSchedule.generate(
            FaultConfig(seed=9, core_failure_rate=20.0, core_stall_rate=30.0),
            horizon=2.0,
            num_cores=4,
        )
        failures = [
            e for e in combined if e.kind is FaultKind.CORE_FAILURE
        ]
        assert failures == list(alone.events)

    def test_targets_within_core_range(self):
        schedule = FaultSchedule.generate(
            FaultConfig(core_failure_rate=100.0), horizon=1.0, num_cores=4
        )
        assert all(0 <= e.target < 4 for e in schedule)

    def test_counts_by_kind(self):
        schedule = FaultSchedule.generate(
            FaultConfig(core_failure_rate=50.0, ecc_error_rate=50.0),
            horizon=1.0,
            num_cores=2,
        )
        counts = schedule.counts_by_kind()
        assert set(counts) == {"core-failure", "ecc-tag-error"}
        assert sum(counts.values()) == len(schedule)

    def test_events_between_is_half_open(self):
        events = [
            FaultEvent(time=t, kind=FaultKind.CORE_STALL)
            for t in (0.1, 0.2, 0.3)
        ]
        schedule = FaultSchedule(events)
        selected = schedule.events_between(0.1, 0.3)
        assert [e.time for e in selected] == [0.1, 0.2]

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(FaultConfig(), horizon=0.0, num_cores=4)
