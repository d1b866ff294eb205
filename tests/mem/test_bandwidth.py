"""Tests for the memory-bus bandwidth model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.bandwidth import BandwidthModel


def machine_bus():
    return BandwidthModel(
        peak_bytes_per_second=6.4e9,
        clock_hz=2.0e9,
        block_bytes=64,
    )


class TestUtilisation:
    def test_zero_load(self):
        assert machine_bus().utilisation(0.0) == 0.0

    def test_full_utilisation_point(self):
        bus = machine_bus()
        # 6.4 GB/s at 2 GHz and 64-byte blocks = 0.05 transfers/cycle.
        assert bus.max_transfers_per_cycle() == pytest.approx(0.05)
        assert bus.utilisation(0.05) == pytest.approx(1.0)

    def test_utilisation_from_jobs_sums(self):
        bus = machine_bus()
        assert bus.utilisation_from_jobs([0.01, 0.015]) == pytest.approx(
            bus.utilisation(0.025)
        )

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            machine_bus().utilisation(-0.01)


class TestQueueing:
    def test_service_time_is_twenty_cycles(self):
        # 64 bytes over 6.4 GB/s at 2 GHz.
        assert machine_bus().service_cycles == pytest.approx(20.0)

    def test_no_delay_at_zero_load(self):
        assert machine_bus().queueing_delay_cycles(0.0) == 0.0

    def test_littles_law_region_is_nearly_flat(self):
        # Footnote 2: prior to saturation, queueing delay is roughly
        # constant and small relative to the 300-cycle miss penalty.
        bus = machine_bus()
        delay_at_20pct = bus.queueing_delay_cycles(0.01)
        assert delay_at_20pct < 0.03 * 300.0

    def test_delay_grows_toward_saturation(self):
        bus = machine_bus()
        assert bus.queueing_delay_cycles(0.04) > bus.queueing_delay_cycles(
            0.02
        )

    def test_delay_bounded_at_saturation(self):
        bus = machine_bus()
        clamped = bus.queueing_delay_cycles(10.0)
        assert clamped == pytest.approx(20.0 * 0.9 / 0.1)

    def test_penalty_multiplier(self):
        bus = machine_bus()
        multiplier = bus.penalty_multiplier(0.02, base_penalty=300.0)
        expected = 1.0 + bus.queueing_delay_cycles(0.02) / 300.0
        assert multiplier == pytest.approx(expected)
        with pytest.raises(ValueError):
            bus.penalty_multiplier(0.02, base_penalty=0.0)


class TestSaturation:
    def test_saturation_threshold(self):
        bus = machine_bus()
        assert not bus.is_saturated(0.04)  # 80%
        assert bus.is_saturated(0.045)  # 90%
        assert bus.is_saturated(1.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_multiplier_at_least_one(self, load):
        bus = machine_bus()
        assert bus.penalty_multiplier(load, base_penalty=300.0) >= 1.0

    @given(
        st.floats(min_value=0.0, max_value=0.04),
        st.floats(min_value=0.0, max_value=0.04),
    )
    def test_delay_monotone_in_load(self, a, b):
        bus = machine_bus()
        low, high = sorted((a, b))
        assert bus.queueing_delay_cycles(low) <= bus.queueing_delay_cycles(
            high
        ) + 1e-12


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BandwidthModel(peak_bytes_per_second=0.0)
