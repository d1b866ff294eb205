"""Tests for observer installation, the null default, and determinism."""

from repro.obs import (
    NULL_OBSERVER,
    Observer,
    get_observer,
    observed,
    reset_observer,
    set_observer,
)


class TestDefaults:
    def test_default_is_null_and_disabled(self):
        reset_observer()
        observer = get_observer()
        assert observer is NULL_OBSERVER
        assert not observer.enabled

    def test_null_sinks_drop_everything(self):
        reset_observer()
        observer = get_observer()
        observer.events.emit("anything", 1.0, x=1)
        assert len(observer.events) == 0
        with observer.profiler.span("phase"):
            pass
        assert observer.profiler.record("phase") is None

    def test_null_metrics_never_accumulate(self):
        """Regression: NullObserver used to carry a live registry, so
        unguarded instrumentation accumulated series process-wide."""
        reset_observer()
        observer = get_observer()
        observer.metrics.counter("leak").inc(100)
        observer.metrics.gauge("leak.gauge", core=2).set(1.0)
        assert len(observer.metrics) == 0
        assert observer.metrics.snapshot() == []

    def test_set_and_reset(self):
        live = Observer()
        set_observer(live)
        try:
            assert get_observer() is live
            assert get_observer().enabled
        finally:
            reset_observer()
        assert get_observer() is NULL_OBSERVER


class TestObservedContext:
    def test_scopes_installation(self):
        reset_observer()
        with observed() as obs:
            assert get_observer() is obs
            obs.events.emit("inside", 0.0)
        assert get_observer() is NULL_OBSERVER
        assert len(obs.events) == 1

    def test_restores_previous_observer(self):
        outer = Observer()
        set_observer(outer)
        try:
            with observed():
                assert get_observer() is not outer
            assert get_observer() is outer
        finally:
            reset_observer()

    def test_restores_on_exception(self):
        reset_observer()
        try:
            with observed():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_observer() is NULL_OBSERVER

    def test_nested_contexts_restore_lifo(self):
        reset_observer()
        with observed() as outer:
            with observed() as inner:
                assert get_observer() is inner
                assert inner is not outer
            assert get_observer() is outer
        assert get_observer() is NULL_OBSERVER

    def test_nested_exception_unwinds_each_level(self):
        reset_observer()
        with observed() as outer:
            try:
                with observed():
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            assert get_observer() is outer
        assert get_observer() is NULL_OBSERVER


class TestEndToEndDeterminism:
    def test_seeded_simulation_emits_identical_streams(self):
        """Two identically-seeded runs must produce byte-identical
        metrics and event exports — the artefact contract."""
        from repro.analysis import misscache
        from repro.core.config import CONFIGURATIONS
        from repro.sim.system import QoSSystemSimulator
        from repro.workloads.composer import single_benchmark_workload
        from repro.workloads.profiler import clear_curve_cache

        def run_once():
            # Both runs profile their curves from scratch (no process
            # memo, no disk cache), so the streams — including the
            # curve-build counters — compare regardless of what earlier
            # tests left cached.
            clear_curve_cache()
            workload = single_benchmark_workload(
                "bzip2", CONFIGURATIONS["All-Strict"]
            )
            with observed() as obs:
                QoSSystemSimulator(workload).run()
            return (
                "\n".join(obs.metrics.to_jsonl_lines()),
                "\n".join(obs.events.to_jsonl_lines()),
            )

        misscache.set_enabled(False)
        try:
            first_metrics, first_events = run_once()
            second_metrics, second_events = run_once()
        finally:
            misscache.set_enabled(None)
            clear_curve_cache()
        assert first_metrics == second_metrics
        assert first_events == second_events
        assert first_events  # non-trivial stream


class TestAbsorb:
    def test_absorb_merges_every_sink(self):
        parent = Observer()
        parent.events.emit("parent", 0.0)
        worker = Observer(record_samples=True)
        worker.metrics.counter("done").inc(2)
        worker.metrics.summary("wall").add(1.5)
        worker.events.emit("worker", 1.0)
        with worker.profiler.span("work"):
            pass
        parent.absorb(worker)
        assert parent.metrics.value_of("done") == 2
        assert parent.metrics.summary("wall").count == 1
        assert [r["kind"] for r in parent.events.records] == [
            "parent",
            "worker",
        ]
        assert [r["seq"] for r in parent.events.records] == [0, 1]
        assert parent.profiler.record("work").entries == 1

    def test_absorb_in_order_matches_serial(self):
        """Absorbing worker observers in input order reproduces what
        one observer would have recorded serially — byte for byte."""
        serial = Observer()
        for index in range(4):
            serial.metrics.counter("n").inc()
            serial.metrics.gauge("last").set(float(index))
            serial.events.emit("step", float(index), i=index)

        parent = Observer()
        for index in range(4):
            worker = Observer(record_samples=True)
            worker.metrics.counter("n").inc()
            worker.metrics.gauge("last").set(float(index))
            worker.events.emit("step", float(index), i=index)
            parent.absorb(worker)

        assert list(parent.metrics.to_jsonl_lines()) == list(
            serial.metrics.to_jsonl_lines()
        )
        assert list(parent.events.to_jsonl_lines()) == list(
            serial.events.to_jsonl_lines()
        )
