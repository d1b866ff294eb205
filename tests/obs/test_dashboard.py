"""Tests for the `repro top` frame renderers (`repro.obs.dashboard`).

The renderers are pure functions of their payloads; byte-identical
output for identical input is the contract the CI dashboard-smoke job
pins with `cmp`, so these tests check it directly alongside content.
"""

from repro.obs.dashboard import (
    progress_bar,
    render_serve_frame,
    render_sweep_frame,
    sparkline,
)


def make_stats(**overrides):
    stats = {
        "uptime": 12.5,
        "draining": False,
        "fingerprint": "abcdef0123456789",
        "queue_depth": 3,
        "inflight": 2,
        "accounting": {
            "offered": 100,
            "admitted": 70,
            "rejected": 20,
            "shed": 10,
            "downgraded": 5,
            "conserves": True,
        },
        "breaker": {
            "rung": 1,
            "ceiling": "elastic",
            "open": False,
            "transitions": 4,
        },
        "health": {"state": "live", "pressure": 0.42},
    }
    stats.update(overrides)
    return stats


def make_history(samples):
    return {
        "version": 1,
        "stride": 1,
        "offered": len(samples),
        "dropped": 0,
        "samples": samples,
    }


def sample(seq, t, series):
    return {"v": 1, "seq": seq, "t": t, "kind": "sample",
            "series": series}


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_lowest_glyph(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_ends_at_top_glyph(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁" and line[-1] == "█"

    def test_width_truncates_to_newest(self):
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestProgressBar:
    def test_empty_full_and_clamped(self):
        assert progress_bar(0, 4, width=4) == "[....] 0/4"
        assert progress_bar(4, 4, width=4) == "[####] 4/4"
        assert progress_bar(9, 4, width=4) == "[####] 9/4"

    def test_zero_total_does_not_divide_by_zero(self):
        assert progress_bar(0, 0, width=4).startswith("[....]")


class TestServeFrame:
    def test_byte_identical_for_identical_inputs(self):
        stats = make_stats()
        history = make_history(
            [sample(0, 1.0, {"serve.offered": 10}),
             sample(1, 2.0, {"serve.offered": 30})]
        )
        assert render_serve_frame(stats, history) == render_serve_frame(
            make_stats(), make_history(
                [sample(0, 1.0, {"serve.offered": 10}),
                 sample(1, 2.0, {"serve.offered": 30})]
            )
        )

    def test_conservation_line_and_meta(self):
        frame = render_serve_frame(make_stats())
        assert "offered 100 = admitted 70 + rejected 20 + shed 10" in frame
        assert "(downgraded 5)" in frame
        assert "code abcdef012345" in frame  # truncated to 12 chars
        assert "up 12.5s" in frame
        assert "DRAINING" not in frame

    def test_broken_conservation_is_flagged(self):
        stats = make_stats()
        stats["accounting"]["conserves"] = False
        assert "≠ BROKEN" in render_serve_frame(stats)

    def test_breaker_rung_cells(self):
        frame = render_serve_frame(make_stats())
        assert "breaker [■■□□] ceiling=elastic" in frame
        stats = make_stats(breaker={"rung": 3, "ceiling": "best_effort",
                                    "open": True, "transitions": 9})
        frame = render_serve_frame(stats)
        assert "[■■■■]" in frame and "OPEN" in frame

    def test_draining_flag(self):
        assert "DRAINING" in render_serve_frame(
            make_stats(draining=True)
        )

    def test_rate_sparkline_from_history(self):
        history = make_history(
            [sample(0, 0.0, {"serve.offered": 0}),
             sample(1, 1.0, {"serve.offered": 50}),
             sample(2, 2.0, {"serve.offered": 60})]
        )
        frame = render_serve_frame(make_stats(), history)
        assert "offered/s" in frame
        assert "now=10" in frame  # (60-50)/(2-1)
        assert "history 3 samples (stride 1)" in frame

    def test_tenant_table(self):
        history = make_history(
            [sample(0, 1.0, {
                "serve.tenant.offered{tenant=acme}": 8,
                "serve.tenant.violations{tenant=acme}": 2,
                "serve.tenant.offered{tenant=beta}": 4,
            })]
        )
        frame = render_serve_frame(make_stats(), history)
        assert "tenant" in frame
        acme_line = next(
            line for line in frame.splitlines()
            if line.startswith("acme")
        )
        assert "25.0%" in acme_line
        beta_line = next(
            line for line in frame.splitlines()
            if line.startswith("beta")
        )
        assert "0.0%" in beta_line

    def test_degrades_without_history(self):
        frame = render_serve_frame(make_stats())
        assert "history" not in frame
        assert frame.endswith("\n")


def progress_record(seq, kind, t, series, **fields):
    record = {"v": 1, "seq": seq, "t": t, "kind": kind,
              "series": series, "sweep": "demo"}
    record.update(fields)
    return record


class TestSweepFrame:
    def test_empty_stream(self):
        frame = render_sweep_frame([])
        assert "no progress records" in frame

    def test_progress_and_split(self):
        records = [
            progress_record(0, "sweep.begin", 0.0,
                            {"total": 10, "served": 4, "pending": 6,
                             "workers": 2}),
            progress_record(1, "sweep.progress", 1.0,
                            {"total": 10, "served": 4, "executed": 3,
                             "done": 7, "pending": 3, "workers": 2,
                             "throughput": 3.0, "eta_seconds": 1.0}),
        ]
        frame = render_sweep_frame(records)
        assert "repro top — sweep  demo" in frame
        assert "COMPLETE" not in frame
        assert "7/10" in frame
        assert "served-from-store 4  executed 3  pending 3" in frame
        assert "throughput 3.000 pt/s" in frame
        assert "eta 1.0s" in frame
        assert "began with 4 stored / 6 to run" in frame

    def test_complete_run(self):
        records = [
            progress_record(0, "sweep.begin", 0.0,
                            {"total": 2, "served": 0, "pending": 2,
                             "workers": 1}),
            progress_record(1, "sweep.end", 3.0,
                            {"total": 2, "served": 0, "executed": 2,
                             "done": 2, "pending": 0, "workers": 1},
                            status="complete"),
        ]
        frame = render_sweep_frame(records)
        assert "COMPLETE" in frame
        assert "2/2" in frame

    def test_newest_begin_wins_after_resume(self):
        # Two runs appended to one stream: the frame reflects the
        # resumed run's partition, not the first run's.
        records = [
            progress_record(0, "sweep.begin", 0.0,
                            {"total": 4, "served": 0, "pending": 4,
                             "workers": 1}),
            progress_record(1, "sweep.progress", 1.0,
                            {"total": 4, "served": 0, "executed": 2,
                             "done": 2, "pending": 2, "workers": 1}),
            progress_record(2, "sweep.begin", 0.0,
                            {"total": 4, "served": 2, "pending": 2,
                             "workers": 1}),
            progress_record(3, "sweep.end", 1.0,
                            {"total": 4, "served": 2, "executed": 2,
                             "done": 4, "pending": 0, "workers": 1},
                            status="complete"),
        ]
        frame = render_sweep_frame(records)
        assert "served-from-store 2  executed 2  pending 0" in frame
        assert "began with 2 stored / 2 to run" in frame

    def test_byte_identical_for_identical_inputs(self):
        records = [
            progress_record(0, "sweep.begin", 0.0,
                            {"total": 1, "served": 0, "pending": 1,
                             "workers": 1}),
        ]
        assert render_sweep_frame(records) == render_sweep_frame(
            [dict(records[0])]
        )
