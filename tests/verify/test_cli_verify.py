"""End-to-end tests for the ``repro verify`` CLI surface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_verify_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify"])

    def test_diff_defaults(self):
        args = build_parser().parse_args(["verify", "diff"])
        assert args.verify_command == "diff"
        assert args.pairs == ["backend", "jobs", "faults"]
        assert args.seed == 0
        assert not hasattr(args, "rel_tol") and not hasattr(args, "abs_tol")

    @pytest.mark.parametrize("command", ["diff", "laws", "fuzz", "replay"])
    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    def test_tolerance_flags_exit_2(self, command, flag, capsys):
        # Every verify comparison is exact: a tolerance is refused.
        argv = ["verify", command, flag, "0.1"]
        if command == "replay":
            argv.append("case.json")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_diff_fig_choices(self):
        args = build_parser().parse_args(
            ["verify", "diff", "--fig", "fig7", "--seed", "3"]
        )
        assert args.fig == "fig7" and args.seed == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "diff", "--fig", "fig9"])

    def test_diff_validates_configs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "diff", "--configs", "Mystery"]
            )

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["verify", "fuzz"])
        assert args.budget == "60s"
        assert args.out == "verify-case.json"
        assert args.max_cases is None

    def test_replay_requires_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "replay"])


class TestMain:
    def test_laws_subset_exits_clean(self, capsys):
        code = main(
            [
                "verify",
                "laws",
                "--seed",
                "0",
                "--laws",
                "mode-downgrade-floor",
                "fair-queue-conservation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] mode-downgrade-floor" in out
        assert "all clean" in out

    def test_diff_reduced_scenario_exits_clean(self, capsys):
        code = main(
            [
                "verify",
                "diff",
                "--workload",
                "bzip2",
                "--configs",
                "All-Strict",
                "--count",
                "2",
                "--pairs",
                "backend",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] backend" in out

    def test_fuzz_writes_json_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "fuzz",
                "--seed",
                "0",
                "--max-cases",
                "1",
                "--budget",
                "5s",
                "--out",
                str(tmp_path / "verify-case.json"),
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["command"] == "fuzz"
        assert payload["passed"] is True
        assert "report written to" in capsys.readouterr().out

    def test_replay_missing_case_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["verify", "replay", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "No such file" in err
