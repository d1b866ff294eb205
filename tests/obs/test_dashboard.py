"""Tests for the `repro top` frame renderer (`repro.obs.dashboard`).

The renderer is a pure function of its stream; byte-identical output
for identical input is the contract the CI sweep-smoke job pins with
`cmp`, so these tests check it directly alongside content.
"""

from repro.obs.dashboard import (
    progress_bar,
    render_sweep_frame,
    sparkline,
)


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
