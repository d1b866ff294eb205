"""The `repro top` CLI: parsing, sweep sources, determinism.

`top` renders a sweep progress stream, named in the results store or
given by path.  Here we pin the `--once` byte-determinism contract,
the torn-tail rule a live stream needs, and the error paths.
"""

import pytest

from repro.cli import build_parser, main
from repro.obs.timeseries import HistoryWriter, history_point


def sweep_points():
    """A two-point sweep that began with one point already stored."""
    return [
        history_point(
            0.0, "sweep.begin",
            series={"total": 4, "served": 1, "pending": 3, "workers": 2},
            sweep="demo",
        ),
        history_point(
            2.0, "sweep.progress",
            series={"done": 3, "executed": 2, "served": 1,
                    "pending": 1, "total": 4, "workers": 2,
                    "throughput": 1.0, "eta_seconds": 1.0},
            sweep="demo",
        ),
    ]


def write_progress(tmp_path, points):
    path = tmp_path / "demo.progress.jsonl"
    with HistoryWriter(path) as writer:
        for point in points:
            writer.write(point)
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["top", "--sweep", "name"])
        assert args.sweep == "name"
        assert args.store_dir is None
        assert args.once is False
        assert args.interval == 1.0
        assert args.frames is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top"])  # --sweep is the only source


class TestFileMode:
    def test_once_is_byte_deterministic(self, tmp_path, capsys):
        path = write_progress(tmp_path, sweep_points())
        argv = ["top", "--sweep", str(path), "--once"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "\x1b" not in first  # no escape codes in --once mode


class TestSweepMode:
    def test_renders_progress_stream_by_path(self, tmp_path, capsys):
        path = write_progress(tmp_path, sweep_points())
        assert main(["top", "--sweep", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — sweep  demo" in out
        assert "served-from-store 1  executed 2  pending 1" in out
        assert "began with 1 stored / 3 to run" in out

    def test_torn_tail_renders_the_complete_records(self, tmp_path, capsys):
        # A SIGKILL mid-append (or a write still in flight) leaves an
        # unterminated final line; the frame shows what came before it.
        path = write_progress(tmp_path, sweep_points())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"seq":2,"t":3.0,"kind":"sweep.pro')
        assert main(["top", "--sweep", str(path), "--once"]) == 0
        assert "] 3/4" in capsys.readouterr().out

    def test_malformed_record_exits_2(self, tmp_path, capsys):
        path = write_progress(tmp_path, sweep_points())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"seq":2,"t":3.0,"kind":"sweep.pro\n')
        assert main(["top", "--sweep", str(path), "--once"]) == 2
        assert "top:" in capsys.readouterr().err

    def test_unknown_sweep_name_exits_2(self, tmp_path, capsys):
        rc = main(
            ["top", "--sweep", "ghost", "--store-dir",
             str(tmp_path / "store"), "--once"]
        )
        assert rc == 2
        assert "no sweep progress stream" in capsys.readouterr().err
