"""Tests for cross-run regression diffing of metrics snapshots."""

import math

import pytest

from repro.obs.diff import diff_snapshots


def counter(name, value):
    return {"type": "counter", "name": name, "value": value}


def gauge(name, value):
    return {"type": "gauge", "name": name, "value": value}


def summary(name, count, mean):
    return {"type": "summary", "name": name, "count": count, "mean": mean}


class TestExactComparison:
    def test_identical_snapshots_are_clean(self):
        records = [counter("a", 3), gauge("g", 1.5)]
        report = diff_snapshots(records, list(records))
        assert report.clean
        assert report.series_compared == 2
        assert report.lines() == [
            "obs diff: 2 series compared, no regressions"
        ]

    def test_value_change_flagged(self):
        report = diff_snapshots([counter("a", 3)], [counter("a", 4)])
        assert not report.clean
        (delta,) = report.deltas
        assert delta.kind == "changed"
        assert delta.series == "a"
        assert (delta.baseline, delta.current) == (3.0, 4.0)

    def test_added_and_removed_series_are_regressions(self):
        report = diff_snapshots([counter("old", 1)], [counter("new", 1)])
        assert [d.kind for d in report.deltas] == ["added", "removed"]
        assert report.series_compared == 0

    def test_same_name_different_type_not_conflated(self):
        report = diff_snapshots([counter("x", 1)], [gauge("x", 1)])
        assert [d.kind for d in report.deltas] == ["added", "removed"]

    def test_summary_compares_count_and_mean(self):
        report = diff_snapshots(
            [summary("s", 2, 1.0)], [summary("s", 2, 1.5)]
        )
        (delta,) = report.deltas
        assert delta.series == "s.mean"
        report = diff_snapshots(
            [summary("s", 2, 1.0)], [summary("s", 3, 1.0)]
        )
        (delta,) = report.deltas
        assert delta.series == "s.count"


class TestFieldAsymmetry:
    """Regression: a compared field present on only one side of a
    shared series (a summary that lost its ``mean``) used to be
    skipped silently; it is now an added/removed delta."""

    def meanless(self, name, count):
        return {"type": "summary", "name": name, "count": count}

    def test_field_gone_from_current_is_removed(self):
        report = diff_snapshots(
            [summary("lat", 5, 2.0)], [self.meanless("lat", 5)]
        )
        (delta,) = report.deltas
        assert delta.kind == "removed"
        assert delta.series == "lat.mean"
        assert (delta.baseline, delta.current) == (2.0, None)

    def test_field_new_in_current_is_added(self):
        report = diff_snapshots(
            [self.meanless("lat", 5)], [summary("lat", 5, 2.0)]
        )
        (delta,) = report.deltas
        assert delta.kind == "added"
        assert delta.series == "lat.mean"

    def test_meanless_on_both_sides_is_clean(self):
        report = diff_snapshots(
            [self.meanless("lat", 5)], [self.meanless("lat", 5)]
        )
        assert report.clean
        assert report.series_compared == 1


class TestTolerances:
    def test_rel_tol_absorbs_small_drift(self):
        base, current = [gauge("g", 100.0)], [gauge("g", 104.0)]
        assert not diff_snapshots(base, current, rel_tol=0.05).deltas
        assert diff_snapshots(base, current, rel_tol=0.01).deltas

    def test_abs_tol_absorbs_small_drift(self):
        base, current = [gauge("g", 0.0)], [gauge("g", 0.4)]
        assert not diff_snapshots(base, current, abs_tol=0.5).deltas
        assert diff_snapshots(base, current, abs_tol=0.3).deltas

    def test_symmetric(self):
        a, b = [gauge("g", 100.0)], [gauge("g", 106.0)]
        forward = diff_snapshots(a, b, rel_tol=0.05)
        backward = diff_snapshots(b, a, rel_tol=0.05)
        assert bool(forward.deltas) == bool(backward.deltas)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            diff_snapshots([], [], rel_tol=-1.0)

    @pytest.mark.parametrize("tolerance", ["rel_tol", "abs_tol"])
    def test_nan_tolerance_rejected(self, tolerance):
        """A NaN tolerance used to call every series a regression."""
        with pytest.raises(ValueError, match="non-negative"):
            diff_snapshots(
                [gauge("g", 1.0)], [gauge("g", 1.0)], **{tolerance: math.nan}
            )


class TestReporting:
    def test_deltas_sorted_by_class_then_series(self):
        report = diff_snapshots(
            [counter("removed.b", 1), counter("changed.a", 1)],
            [counter("added.c", 1), counter("changed.a", 2)],
        )
        assert [(d.kind, d.series) for d in report.deltas] == [
            ("added", "added.c"),
            ("removed", "removed.b"),
            ("changed", "changed.a"),
        ]

    def test_lines_describe_each_delta(self):
        report = diff_snapshots([counter("a", 3)], [counter("a", 5)])
        lines = report.lines()
        assert lines[0].startswith("obs diff: 1 regression(s)")
        assert "a: 3.0 -> 5.0 (+2)" in lines[1]

    def test_roundtrip_through_written_artifacts(self, tmp_path):
        """diff over files written by the registry — the CLI's path."""
        from repro.obs.export import load_metrics_jsonl
        from repro.obs.metrics import MetricsRegistry

        def build(value):
            registry = MetricsRegistry()
            registry.counter("runs").inc(value)
            return registry

        base_path = build(1).write_jsonl(tmp_path / "base.jsonl")
        same_path = build(1).write_jsonl(tmp_path / "same.jsonl")
        drift_path = build(2).write_jsonl(tmp_path / "drift.jsonl")
        base = load_metrics_jsonl(base_path)
        assert diff_snapshots(base, load_metrics_jsonl(same_path)).clean
        assert not diff_snapshots(
            base, load_metrics_jsonl(drift_path)
        ).clean
