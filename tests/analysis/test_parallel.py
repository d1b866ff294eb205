"""The parallel executor: ordering, determinism, serial fallback."""

import os

import pytest

from repro.analysis.parallel import (
    parallel_map,
    resolve_jobs,
    visible_cpu_count,
)
from repro.analysis.runner import run_all_configurations
from repro.analysis.sweeps import sweep_arrival_rate
from repro.core.cluster import ClusterJobProfile
from repro.core.spec import PRESET_TARGETS
from repro.sim.config import SimulationConfig

SIM = SimulationConfig(accepted_jobs_target=4)


@pytest.fixture(scope="module")
def fake_curves():
    from tests.sim.conftest import linear_curve

    return {
        "bzip2": linear_curve("bzip2", 0.0275, high=0.60, low=0.18, knee=7),
    }


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _instrumented_square(x):
    from repro.obs import get_observer

    obs = get_observer()
    obs.metrics.counter("work.items").inc()
    obs.metrics.gauge("work.last").set(x)
    obs.metrics.summary("work.value").add(float(x))
    obs.events.emit("work", float(x), item=x)
    return x * x


class TestParallelMap:
    def test_serial_is_plain_map(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == [i * i for i in items]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_single_item_stays_serial(self):
        # len(items) == 1 must not fork a pool.
        assert parallel_map(_square, [5], jobs=8) == [25]

    def test_serial_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_three, [1, 2, 3], jobs=1)

    def test_parallel_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_and_negative_mean_all_visible_cores(self):
        # Affinity-visible count, not os.cpu_count(): in a cpuset-limited
        # container the machine core count oversubscribes badly.
        cores = visible_cpu_count()
        assert resolve_jobs(0) == cores
        assert resolve_jobs(-1) == cores

    def test_visible_cpu_count_positive(self):
        assert visible_cpu_count() >= 1
        assert visible_cpu_count() <= (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(7) == 7


class TestDriversSerialParallelIdentity:
    """jobs=N must change wall-clock only, never results."""

    def test_run_all_configurations_identical(self, fake_curves):
        kwargs = dict(
            count=4, sim_config=SIM, curves=fake_curves, record_trace=False
        )
        serial = run_all_configurations("bzip2", jobs=1, **kwargs)
        parallel = run_all_configurations("bzip2", jobs=2, **kwargs)
        assert list(serial) == list(parallel)  # same key order
        for name in serial:
            assert (
                serial[name].makespan_cycles
                == parallel[name].makespan_cycles
            )
            assert (
                serial[name].deadline_report
                == parallel[name].deadline_report
            )

    def test_worker_telemetry_merges_into_parent(self):
        """With an observer installed, parallel_map must return every
        worker's telemetry to the parent and merge it in input order,
        so the artefacts match a serial run byte for byte."""
        from repro.obs import observed

        items = list(range(6))

        def run(jobs):
            with observed() as obs:
                results = parallel_map(
                    _instrumented_square, items, jobs=jobs
                )
            assert results == [i * i for i in items]
            return (
                "\n".join(obs.metrics.to_jsonl_lines()),
                "\n".join(obs.events.to_jsonl_lines()),
            )

        serial_metrics, serial_events = run(1)
        parallel_metrics, parallel_events = run(2)
        assert serial_metrics == parallel_metrics
        assert serial_events == parallel_events
        assert '"work.items","type":"counter","value":6' in serial_metrics

    def test_no_observer_means_no_wrapping(self):
        """Without an observer the pool maps the raw function."""
        from repro.obs import get_observer, reset_observer

        reset_observer()
        assert not get_observer().enabled
        assert parallel_map(_square, list(range(6)), jobs=2) == [
            i * i for i in range(6)
        ]

    def test_run_all_configurations_telemetry_identical(self, fake_curves):
        """The driver-level acceptance check: a seeded experiment's
        merged metric snapshot is byte-identical at any worker count.
        Explicit curves keep the in-process curve cache out of the
        comparison (serial profiles once; N workers profile N times)."""
        from repro.obs import observed

        def run(jobs):
            with observed() as obs:
                run_all_configurations(
                    "bzip2",
                    jobs=jobs,
                    count=4,
                    sim_config=SIM,
                    curves=fake_curves,
                    record_trace=False,
                )
            return (
                "\n".join(obs.metrics.to_jsonl_lines()),
                "\n".join(obs.events.to_jsonl_lines()),
            )

        serial = run(1)
        parallel = run(2)
        assert serial == parallel
        assert serial[0]  # non-trivial stream

    def test_sweep_arrival_rate_identical(self):
        profiles = [
            ClusterJobProfile(
                name="gold",
                weight=1.0,
                resources=PRESET_TARGETS["medium"],
                mean_wall_clock=0.5,
                deadline_multiplier=2.0,
            )
        ]
        interarrivals = [0.2, 0.4, 0.8, 1.6]
        serial = sweep_arrival_rate(
            profiles, interarrivals, horizon=10.0, jobs=1
        )
        parallel = sweep_arrival_rate(
            profiles, interarrivals, horizon=10.0, jobs=2
        )
        assert serial == parallel
        assert [p.mean_interarrival for p in serial] == interarrivals
