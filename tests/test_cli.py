"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.config import CONFIGURATIONS
from repro.sim.system import ARTIFACT_VERSION, ResultArtifact
from repro.workloads.profiler import save_curves
from tests.sim.conftest import linear_curve


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_fig5_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5"])

    def test_fig5_validates_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "nginx"])
        args = build_parser().parse_args(["fig5", "Mix-1"])
        assert args.workload == "Mix-1"

    def test_fig7_default_workload(self):
        args = build_parser().parse_args(["fig7"])
        assert args.workload == "bzip2"

    def test_curves_accepts_many(self):
        args = build_parser().parse_args(["curves", "bzip2", "namd"])
        assert args.benchmarks == ["bzip2", "namd"]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_json_option(self):
        args = build_parser().parse_args(["fig5", "bzip2", "--json", "x.json"])
        assert args.json == "x.json"

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.nodes == 4
        assert not args.size

    def test_cluster_size_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--size", "--target", "0.9", "--interarrival", "0.2"]
        )
        assert args.size
        assert args.target == 0.9


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out
        assert "Mix-1" in out

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "MISSED" in out

    def test_curves_runs(self, capsys):
        assert main(["curves", "namd"]) == 0
        out = capsys.readouterr().out
        assert "miss-ratio curve — namd" in out
        assert "misses/instruction" in out

    def test_cluster_runs(self, capsys):
        assert main(["cluster", "--nodes", "1", "--interarrival", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        assert "gold" in out

    def test_fig5_json_writes_one_result_artifact_per_configuration(
        self, tmp_path, monkeypatch, capsys
    ):
        curves = tmp_path / "curves.json"
        save_curves(
            {"bzip2": linear_curve("bzip2", 0.0275, high=0.6, low=0.18)},
            curves,
        )
        live = {}
        run_all = cli.run_all_configurations

        def recording_run_all(*args, **kwargs):
            live.update(run_all(*args, **kwargs))
            return live

        monkeypatch.setattr(cli, "run_all_configurations", recording_run_all)
        out = tmp_path / "missing" / "out.json"
        assert main(
            ["fig5", "bzip2", "--curves", str(curves), "--json", str(out)]
        ) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert sorted(payload) == sorted(CONFIGURATIONS) == sorted(live)
        for name, result in live.items():
            artifact = ResultArtifact.from_dict(payload[name])
            assert artifact.version == ARTIFACT_VERSION
            assert artifact.configuration == name
            assert artifact.counter_fingerprint() == result.fingerprint()


class TestObservabilityFlags:
    def test_flags_parse_on_perf_commands(self):
        for command in (["fig7"], ["fig5", "bzip2"], ["faults"]):
            args = build_parser().parse_args(
                command + ["--metrics-out", "m.jsonl", "--events-out", "e.jsonl"]
            )
            assert args.metrics_out == "m.jsonl"
            assert args.events_out == "e.jsonl"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["fig7"])
        assert args.metrics_out is None
        assert args.events_out is None

    def test_faults_writes_artifacts_and_footer(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "faults",
                    "--max-events",
                    "2000",
                    "--metrics-out",
                    str(metrics),
                    "--events-out",
                    str(events),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "observability:" in out
        assert metrics.exists() and events.exists()
        from repro.obs import validate_jsonl

        assert validate_jsonl(events) > 0

    def test_event_stream_is_byte_identical_across_runs(self, tmp_path):
        """The CI determinism contract, in-process: same seeded command,
        twice, byte-identical JSONL artifacts."""
        from repro.analysis import misscache
        from repro.workloads.profiler import clear_curve_cache

        paths = []
        # Both runs profile their curves from scratch (no process memo,
        # no disk cache), so the artifacts — including curve-build
        # counters — compare regardless of what earlier tests cached.
        misscache.set_enabled(False)
        try:
            for tag in ("a", "b"):
                clear_curve_cache()
                metrics = tmp_path / f"metrics-{tag}.jsonl"
                events = tmp_path / f"events-{tag}.jsonl"
                assert (
                    main(
                        [
                            "faults",
                            "--max-events",
                            "2000",
                            "--metrics-out",
                            str(metrics),
                            "--events-out",
                            str(events),
                        ]
                    )
                    == 0
                )
                paths.append((metrics, events))
        finally:
            misscache.set_enabled(None)
            clear_curve_cache()
        (metrics_a, events_a), (metrics_b, events_b) = paths
        assert metrics_a.read_bytes() == metrics_b.read_bytes()
        assert events_a.read_bytes() == events_b.read_bytes()

    def test_observer_restored_after_run(self, tmp_path, capsys):
        from repro.obs import NULL_OBSERVER, get_observer

        main(
            [
                "faults",
                "--max-events",
                "500",
                "--events-out",
                str(tmp_path / "e.jsonl"),
            ]
        )
        assert get_observer() is NULL_OBSERVER


class TestTraceFlag:
    def test_trace_out_parses_and_defaults_off(self):
        args = build_parser().parse_args(["fig7"])
        assert args.trace_out is None
        args = build_parser().parse_args(["fig7", "--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"

    def test_faults_writes_trace_artifact(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "faults",
                    "--max-events",
                    "2000",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace written to" in out
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records, "trace artefact is empty"
        roots = [r for r in records if r["parent_id"] is None]
        assert any(r["name"] == "job" for r in roots)
        # Every span is closed: lifecycle instrumentation is complete.
        assert all(r["end"] is not None for r in records)


class TestObsCommand:
    def run_artifacts(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "faults",
                    "--max-events",
                    "2000",
                    "--metrics-out",
                    str(metrics),
                    "--events-out",
                    str(events),
                ]
            )
            == 0
        )
        return metrics, events

    def test_summarize(self, tmp_path, capsys):
        metrics, events = self.run_artifacts(tmp_path)
        capsys.readouterr()
        prometheus = tmp_path / "prom.txt"
        summary = tmp_path / "summary.json"
        assert (
            main(
                [
                    "obs",
                    "summarize",
                    str(metrics),
                    "--events",
                    str(events),
                    "--prometheus-out",
                    str(prometheus),
                    "--summary-out",
                    str(summary),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metric series" in out
        assert "events" in out
        assert prometheus.exists() and summary.exists()
        assert "# TYPE" in prometheus.read_text()

    def test_top(self, tmp_path, capsys):
        metrics, _ = self.run_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["obs", "top", str(metrics), "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 counters" in out

    def test_diff_clean_and_regression_exit_codes(self, tmp_path, capsys):
        metrics, _ = self.run_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", str(metrics), str(metrics)]) == 0
        assert "no regressions" in capsys.readouterr().out

        import json

        records = [
            json.loads(line)
            for line in metrics.read_text().splitlines()
        ]
        for record in records:
            if record["type"] == "counter":
                record["value"] += 1
                break
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text(
            "".join(
                json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                for r in records
            )
        )
        assert main(["obs", "diff", str(metrics), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "regression(s)" in out

    def test_diff_tolerance_flags(self, tmp_path, capsys):
        metrics = tmp_path / "base.jsonl"
        current = tmp_path / "current.jsonl"
        metrics.write_text('{"name":"g","type":"gauge","value":100.0}\n')
        current.write_text('{"name":"g","type":"gauge","value":101.0}\n')
        assert main(["obs", "diff", str(metrics), str(current)]) == 1
        capsys.readouterr()
        assert (
            main(
                [
                    "obs",
                    "diff",
                    str(metrics),
                    str(current),
                    "--rel-tol",
                    "0.05",
                ]
            )
            == 0
        )

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestProfileCommand:
    def test_profile_writes_curves(self, tmp_path, capsys):
        out = tmp_path / "curves.json"
        assert main(["profile", "namd", "--out", str(out)]) == 0
        assert out.exists()
        from repro.workloads.profiler import load_curves

        assert "namd" in load_curves(out)

    def test_profile_rejects_unknown(self, tmp_path, capsys):
        assert main(["profile", "nginx", "--out", str(tmp_path / "x")]) == 2


class TestSweepCommand:
    def test_run_parses_with_store_and_tolerances(self):
        args = build_parser().parse_args(
            [
                "sweep", "run", "s.json", "--store-dir", "/tmp/store",
                "--baseline", "old", "--rel-tol", "0.02", "--jobs", "2",
            ]
        )
        assert args.command == "sweep"
        assert args.sweep_command == "run"
        assert args.spec == "s.json"
        assert args.store_dir == "/tmp/store"
        assert args.baseline == "old"
        assert args.rel_tol == 0.02
        assert args.jobs == 2

    def test_status_and_diff_parse(self):
        args = build_parser().parse_args(["sweep", "status", "s.json"])
        assert args.sweep_command == "status"
        args = build_parser().parse_args(
            ["sweep", "diff", "a.json", "b", "--abs-tol", "1e-9"]
        )
        assert args.sweep_command == "diff"
        assert (args.baseline, args.current) == ("a.json", "b")
        assert args.abs_tol == 1e-9

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_run_executes_and_diffs(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv(
            "REPRO_MISS_CACHE_DIR", str(tmp_path / "curves")
        )
        spec = tmp_path / "s.json"
        spec.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "cli",
                    "defaults": {
                        "instructions_per_job": 2_000_000,
                        "profile_num_sets": 8,
                        "profile_accesses": 2_000,
                    },
                    "points": [
                        {
                            "workload": "bzip2",
                            "configuration": "All-Strict",
                        }
                    ],
                }
            )
        )
        store = tmp_path / "store"
        base = ["sweep", "run", str(spec), "--store-dir", str(store)]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "0 point(s) served from store, 1 executed" in out
        # Warm + self-baseline: everything from the store, diff clean.
        assert main(base + ["--baseline", "cli"]) == 0
        out = capsys.readouterr().out
        assert "1 point(s) served from store, 0 executed" in out
        assert "no regressions" in out
        assert main(["sweep", "status", str(spec), "--store-dir", str(store)]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_missing_sweep_file_reports_error(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep", "run", str(tmp_path / "nope.json"),
                    "--store-dir", str(tmp_path / "s"),
                ]
            )
            == 2
        )


class TestFaultsCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.command == "faults"
        assert args.workload == "bzip2"
        assert args.config == "All-Strict"
        assert args.fault_seed == 7
        assert args.core_rate == 4.0
        assert args.stall_rate == 0.0
        assert args.max_events is None
        assert args.checkpoint is None
        assert args.resume is None

    def test_equal_partition_config_is_not_a_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--config", "EqualPart"])

    def test_budget_and_checkpoint_flags(self):
        args = build_parser().parse_args(
            [
                "faults",
                "Mix-1",
                "--fault-seed",
                "11",
                "--core-rate",
                "8.0",
                "--max-events",
                "150",
                "--checkpoint",
                "run.ckpt",
            ]
        )
        assert args.workload == "Mix-1"
        assert args.fault_seed == 11
        assert args.core_rate == 8.0
        assert args.max_events == 150
        assert args.checkpoint == "run.ckpt"

    def test_resume_flag(self):
        args = build_parser().parse_args(["faults", "--resume", "run.ckpt"])
        assert args.resume == "run.ckpt"

    def test_faults_runs_and_reports(self, capsys):
        assert main(["faults", "--fault-seed", "11", "--core-rate", "8.0"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "successful re-admissions" in out
        assert "fault downgrades" in out
        assert "fault timeline digest" in out

    def test_faults_checkpoint_resume_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert (
            main(
                [
                    "faults",
                    "--max-events",
                    "150",
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        assert ckpt.exists()
        capsys.readouterr()
        assert main(["faults", "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
