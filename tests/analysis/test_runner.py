"""Tests for the shared experiment drivers and reporting."""

import pytest

from repro.analysis.report import (
    deadline_table,
    throughput_table,
    trace_table,
    wall_clock_table,
)
from repro.analysis.runner import (
    normalised_throughputs,
    run_all_configurations,
    run_configuration,
)
from repro.core.config import ALL_STRICT, EQUAL_PART
from repro.sim.config import SimulationConfig
from repro.workloads.composer import single_benchmark_workload


@pytest.fixture(scope="module")
def results(fake_curves_module):
    return run_all_configurations(
        "bzip2",
        configurations=["All-Strict", "Hybrid-1", "EqualPart"],
        sim_config=SimulationConfig(),
        curves=fake_curves_module,
        record_trace=True,
    )


@pytest.fixture(scope="module")
def fake_curves_module():
    from tests.sim.conftest import linear_curve

    return {
        "bzip2": linear_curve("bzip2", 0.0275, high=0.60, low=0.18, knee=7),
    }


class TestDispatch:
    def test_equalpart_uses_equalpart_simulator(self, fake_curves_module):
        workload = single_benchmark_workload("bzip2", EQUAL_PART)
        result = run_configuration(workload, curves=fake_curves_module)
        assert result.configuration_name == "EqualPart"
        assert result.lac_admission_tests == 0

    def test_qos_config_uses_lac(self, fake_curves_module):
        workload = single_benchmark_workload("bzip2", ALL_STRICT)
        result = run_configuration(workload, curves=fake_curves_module)
        assert result.lac_admission_tests > 0


class TestRunAll:
    def test_selected_configurations_only(self, results):
        assert set(results) == {"All-Strict", "Hybrid-1", "EqualPart"}

    def test_normalised_throughputs_baseline_is_one(self, results):
        normalised = normalised_throughputs(results)
        assert normalised["All-Strict"] == pytest.approx(1.0)
        assert normalised["Hybrid-1"] > 1.0

    def test_missing_baseline_rejected(self, results):
        with pytest.raises(ValueError, match="baseline"):
            normalised_throughputs(
                {"Hybrid-1": results["Hybrid-1"]}
            )


class TestReportRendering:
    def test_deadline_table(self, results):
        text = deadline_table(results, title="Figure 5a")
        assert "Figure 5a" in text
        assert "All-Strict" in text
        assert "deadline hit rate" in text

    def test_throughput_table(self, results):
        text = throughput_table(results, title="Figure 5b")
        assert "throughput vs All-Strict" in text
        assert "EqualPart" in text

    def test_wall_clock_table(self, results):
        text = wall_clock_table(results["Hybrid-1"], title="Figure 6")
        assert "Strict" in text
        assert "avg wall-clock (ms)" in text

    def test_trace_table(self, results):
        text = trace_table(results["All-Strict"], title="Figure 7")
        assert "met deadline" in text
        assert "yes" in text
