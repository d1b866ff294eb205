"""Tests for the fault hooks added to the hardware substrate models."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.shadow import ShadowTagArray
from repro.core.stealing import (
    ResourceStealingController,
    StealingAction,
    StealingState,
)
from repro.cpu.core import CoreFaultError, InOrderCore
from repro.mem.bandwidth import BandwidthModel
from repro.mem.dram import DramModel


class TestBandwidthDerate:
    def test_healthy_peak_is_exact(self):
        bus = BandwidthModel(peak_bytes_per_second=6.4e9)
        # Byte-identity guarantee: with no derates the effective peak
        # is the stored value itself, not a float product with 1.0.
        assert bus.effective_peak_bytes_per_second == 6.4e9
        assert bus.derate_factor == 1.0

    def test_derate_scales_the_peak(self):
        bus = BandwidthModel(peak_bytes_per_second=6.4e9)
        bus.apply_derate(0.5)
        assert bus.effective_peak_bytes_per_second == pytest.approx(3.2e9)

    def test_derates_stack_multiplicatively(self):
        bus = BandwidthModel(peak_bytes_per_second=6.4e9)
        bus.apply_derate(0.5)
        bus.apply_derate(0.5)
        assert bus.effective_peak_bytes_per_second == pytest.approx(1.6e9)
        bus.remove_derate(0.5)
        assert bus.effective_peak_bytes_per_second == pytest.approx(3.2e9)

    def test_utilisation_rises_under_derate(self):
        bus = BandwidthModel()
        healthy = bus.utilisation(0.01)
        bus.apply_derate(0.5)
        assert bus.utilisation(0.01) == pytest.approx(2 * healthy)

    def test_service_cycles_stretch_under_derate(self):
        bus = BandwidthModel()
        healthy = bus.service_cycles
        bus.apply_derate(0.5)
        assert bus.service_cycles == pytest.approx(2 * healthy)

    def test_remove_unknown_derate_raises(self):
        bus = BandwidthModel()
        with pytest.raises(ValueError, match="no active derate"):
            bus.remove_derate(0.5)

    def test_zero_derate_rejected(self):
        bus = BandwidthModel()
        with pytest.raises(ValueError, match="sever"):
            bus.apply_derate(0.0)

    def test_derate_above_one_rejected(self):
        bus = BandwidthModel()
        with pytest.raises(ValueError):
            bus.apply_derate(1.5)


class TestDramLatencyPenalty:
    def test_nominal_latency_without_penalty(self):
        dram = DramModel(latency_cycles=300.0)
        assert dram.access(0x1000) == 300.0
        assert not dram.is_degraded
        assert dram.degraded_accesses == 0

    def test_penalty_adds_and_counts(self):
        dram = DramModel(latency_cycles=300.0)
        dram.apply_latency_penalty(50.0)
        assert dram.is_degraded
        assert dram.access(0x1000) == pytest.approx(350.0)
        assert dram.degraded_accesses == 1

    def test_penalties_accumulate(self):
        dram = DramModel(latency_cycles=300.0)
        dram.apply_latency_penalty(50.0)
        dram.apply_latency_penalty(25.0)
        assert dram.effective_latency_cycles == pytest.approx(375.0)

    def test_clear_restores_nominal(self):
        dram = DramModel(latency_cycles=300.0)
        dram.apply_latency_penalty(50.0)
        dram.clear_latency_penalty()
        assert dram.access(0x1000) == 300.0
        assert dram.degraded_accesses == 0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            DramModel().apply_latency_penalty(-1.0)


class TestCoreFaults:
    def make_core(self):
        # The hierarchy is only touched per-access; fault-path tests
        # never execute an access, so a placeholder suffices.
        return InOrderCore(0, hierarchy=None)

    def test_failed_core_refuses_work(self):
        core = self.make_core()
        core.fail()
        assert core.failed
        with pytest.raises(CoreFaultError, match="failed"):
            core.execute([])

    def test_repair_restores_execution(self):
        core = self.make_core()
        core.fail()
        core.repair()
        core.execute([])  # empty trace: no hierarchy access needed

    def test_stall_burns_cycles_without_instructions(self):
        core = self.make_core()
        core.inject_stall(1000.0)
        assert core.result.cycles == pytest.approx(1000.0)
        assert core.result.instructions == 0
        assert core.stall_cycles_injected == pytest.approx(1000.0)

    def test_stall_on_failed_core_raises(self):
        core = self.make_core()
        core.fail()
        with pytest.raises(CoreFaultError):
            core.inject_stall(10.0)

    def test_reset_keeps_fault_state(self):
        core = self.make_core()
        core.inject_stall(10.0)
        core.fail()
        core.reset()
        assert core.failed  # hardware state survives job swaps
        assert core.stall_cycles_injected == 0.0
        assert core.result.cycles == 0.0


class TestShadowEccError:
    def make_shadow(self):
        geometry = CacheGeometry.from_sets(64, 16, 64)
        return ShadowTagArray(geometry, baseline_ways=7, sample_period=8)

    def fill(self, shadow):
        for i in range(64):
            shadow.observe(i * 64, main_hit=False)

    def test_ecc_error_clears_observation_state(self):
        shadow = self.make_shadow()
        self.fill(shadow)
        assert shadow.sampled_accesses > 0
        shadow.inject_ecc_error()
        assert shadow.ecc_errors == 1
        assert shadow.sampled_accesses == 0
        assert shadow.shadow_misses == 0
        assert shadow.main_misses == 0
        assert shadow.miss_increase_fraction() == 0.0

    def test_ecc_counter_is_lifetime(self):
        shadow = self.make_shadow()
        shadow.inject_ecc_error()
        shadow.reset()  # new job
        assert shadow.ecc_errors == 1  # not a per-job statistic

    def test_observation_restarts_after_upset(self):
        shadow = self.make_shadow()
        self.fill(shadow)
        shadow.inject_ecc_error()
        self.fill(shadow)
        assert shadow.sampled_accesses > 0


class _FixedFeedback:
    def __init__(self, increase):
        self.increase = increase

    def miss_increase_fraction(self):
        return self.increase


class TestStealingEccCancel:
    def make_controller(self):
        return ResourceStealingController(slack=0.05, baseline_ways=7)

    def test_ecc_cancels_and_returns_all_ways(self):
        controller = self.make_controller()
        controller.on_interval(_FixedFeedback(0.0))
        controller.on_interval(_FixedFeedback(0.0))
        assert controller.stolen_ways == 2
        decision = controller.on_ecc_error()
        assert decision.action is StealingAction.CANCEL
        assert controller.stolen_ways == 0
        assert controller.current_ways == 7
        assert controller.state is StealingState.CANCELLED
        assert controller.ecc_cancellations == 1
        assert controller.cancellations == 1

    def test_second_upset_does_not_double_count_cancellations(self):
        controller = self.make_controller()
        controller.on_interval(_FixedFeedback(0.0))
        controller.on_ecc_error()
        controller.on_ecc_error()
        assert controller.ecc_cancellations == 2
        assert controller.cancellations == 1

    def test_controller_rearms_after_upset(self):
        controller = self.make_controller()
        controller.on_interval(_FixedFeedback(0.0))
        controller.on_ecc_error()
        # The (reset) shadow reports a trustworthy low increase again,
        # so the controller steals anew.
        decision = controller.on_interval(_FixedFeedback(0.0))
        assert decision.action is StealingAction.STEAL_ONE
