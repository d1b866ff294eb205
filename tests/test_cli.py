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

    def test_list_names_every_subcommand(self, capsys):
        assert main(["list"]) == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("commands: ")
        ]
        listed = line[len("commands: "):].split(", ")
        assert sorted(listed) == sorted(cli.HANDLERS)

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
    def test_trace_out_exits_2(self, capsys):
        """A run writes metrics and events only: no span-trace flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "bzip2", "--trace-out", "t.jsonl"])
        assert excinfo.value.code == 2
        assert "--trace-out" in capsys.readouterr().err


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
        summary = tmp_path / "summary.json"
        assert (
            main(
                [
                    "obs",
                    "summarize",
                    str(metrics),
                    "--events",
                    str(events),
                    "--summary-out",
                    str(summary),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metric series" in out
        assert "events" in out
        assert summary.exists()

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

    def test_status_names_the_missing_points(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.analysis.sweep import SweepPoint

        monkeypatch.setenv(
            "REPRO_MISS_CACHE_DIR", str(tmp_path / "curves")
        )
        knobs = {
            "instructions_per_job": 2_000_000,
            "profile_num_sets": 8,
            "profile_accesses": 2_000,
        }

        def sweep_file(name, configurations):
            path = tmp_path / f"{name}.json"
            path.write_text(
                json.dumps(
                    {
                        "version": 1,
                        "name": name,
                        "defaults": knobs,
                        "points": [
                            {"workload": "bzip2", "configuration": config}
                            for config in configurations
                        ],
                    }
                )
            )
            return str(path)

        store = ["--store-dir", str(tmp_path / "store")]
        half = sweep_file("half", ["All-Strict"])
        assert main(["sweep", "run", half, *store]) == 0
        capsys.readouterr()
        both = sweep_file("both", ["All-Strict", "EqualPart"])
        assert main(["sweep", "status", both, *store]) == 0
        missing = SweepPoint(
            workload="bzip2", configuration="EqualPart", **knobs
        ).label()
        assert capsys.readouterr().out.splitlines() == [
            "sweep both: 1/2 point(s) in store, 1 missing",
            f"  missing: {missing}",
        ]

    @pytest.mark.parametrize("command", ["status", "run"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("count", 2.5),
            ("count", True),
            ("seed", "7"),
            ("l2_ways", 2.5),
            ("l2_ways", 3),
            ("instructions_per_job", 0),
            ("instructions_per_job", "x"),
            ("profile_num_sets", 3),
            ("profile_accesses", -1),
            ("workload", ["bzip2"]),
            ("configuration", 1),
        ],
    )
    def test_bad_point_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, command, field, value
    ):
        """A point is checked where the sweep file is read: it used to
        pass ``status`` as missing and crash ``run`` with a traceback."""
        monkeypatch.setenv("REPRO_MISS_CACHE_DIR", str(tmp_path / "curves"))
        point = {"workload": "bzip2", "configuration": "All-Strict"}
        point[field] = value
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"version": 1, "name": "bad", "points": [point]})
        )
        argv = ["sweep", command, str(path), "--store-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sweep: {field} must be ")
        assert len(captured.err.splitlines()) == 1

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

    @pytest.mark.parametrize("damage", ["torn", "wrong-typed"])
    def test_status_counts_a_corrupt_entry_as_missing(
        self, tmp_path, capsys, monkeypatch, damage
    ):
        """Status decodes each entry as a run would, and leaves a corrupt
        one in place: the next run quarantines and re-executes it."""
        from repro.analysis.store import QUARANTINE_SUFFIX, ResultStore
        from repro.analysis.sweep import load_sweep_file, point_digest

        monkeypatch.setenv(
            "REPRO_MISS_CACHE_DIR", str(tmp_path / "curves")
        )
        spec_path = tmp_path / "pair.json"
        spec_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "pair",
                    "defaults": {
                        "instructions_per_job": 2_000_000,
                        "profile_num_sets": 8,
                        "profile_accesses": 2_000,
                    },
                    "points": [
                        {"workload": "bzip2", "configuration": config}
                        for config in ("All-Strict", "EqualPart")
                    ],
                }
            )
        )
        store_dir = tmp_path / "store"
        store = ["--store-dir", str(store_dir)]
        assert main(["sweep", "run", str(spec_path), *store]) == 0
        capsys.readouterr()
        point = load_sweep_file(spec_path).points[1]
        victim = ResultStore(store_dir).path_for(point_digest(point))
        if damage == "torn":
            victim.write_text("{ torn")
        else:
            payload = json.loads(victim.read_text())
            payload["figures_of_merit"] = 3
            victim.write_text(json.dumps(payload))
        damaged = victim.read_bytes()

        assert main(["sweep", "status", str(spec_path), *store]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "sweep pair: 1/2 point(s) in store, 1 missing",
            f"  missing: {point.label()} (corrupt entry)",
        ]
        assert victim.read_bytes() == damaged
        assert not victim.with_suffix(QUARANTINE_SUFFIX).exists()


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

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "No such file"),
            ("foreign", "not a simulation checkpoint"),
            ("stale", "checkpoint version 1"),
        ],
    )
    def test_resume_rejects_bad_checkpoint(
        self, tmp_path, capsys, kind, message
    ):
        """A bad ``--resume`` path is a CLI error, not a traceback."""
        import dataclasses

        from repro.core.config import ALL_STRICT
        from repro.faults import checkpoint_simulator, save_checkpoint
        from repro.sim.system import QoSSystemSimulator
        from repro.workloads.composer import single_benchmark_workload

        path = tmp_path / f"{kind}.ckpt"
        if kind == "foreign":
            path.write_bytes(b"not a pickle\n")
        elif kind == "stale":
            simulator = QoSSystemSimulator(
                single_benchmark_workload("bzip2", ALL_STRICT),
                curves={
                    "bzip2": linear_curve("bzip2", 0.0275, high=0.6, low=0.18)
                },
            )
            stale = dataclasses.replace(
                checkpoint_simulator(simulator), version=1
            )
            save_checkpoint(stale, path)
        assert main(["faults", "--resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("faults: ")
        assert message in err


class TestBadInputExits2:
    """Bad input is one ``<command>: <error>`` line and exit 2.

    ``verify`` and ``obs diff`` exit 1 when a check fails, so a
    mistyped path or value must not read as a regression.
    """

    #: Metrics records that parse as JSON objects but are not records
    #: the registry writes, and the complaint each one draws.
    MALFORMED_METRICS = {
        "unknown-type": (
            {"type": "foo", "name": "x", "value": 1},
            "unknown record type 'foo'",
        ),
        "histogram": (
            {"type": "histogram", "name": "h", "count": 1},
            "unknown record type 'histogram'",
        ),
        "no-value": (
            {"type": "counter", "name": "c"},
            "'value' must be a number, got None",
        ),
        "text-value": (
            {"type": "counter", "name": "c", "value": "x"},
            "'value' must be a number, got 'x'",
        ),
        "no-count": (
            {"type": "summary", "name": "s"},
            "'count' must be a number, got None",
        ),
        "text-count": (
            {"type": "summary", "name": "s", "count": "x", "mean": 1.0},
            "'count' must be a number, got 'x'",
        ),
        "text-mean": (
            {"type": "summary", "name": "s", "count": 1, "mean": "x"},
            "'mean' must be a number, got 'x'",
        ),
        "list-name": (
            {"type": "counter", "name": ["x"], "value": 1},
            "name ['x'] is not a string",
        ),
        "bool-value": (
            {"type": "gauge", "name": "g", "value": True},
            "'value' must be a number, got True",
        ),
    }

    @pytest.mark.parametrize("command", ["summarize", "top", "diff"])
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "No such file"),
            ("text", "invalid JSON"),
            ("scalar", "not a JSON object"),
            *[(kind, why) for kind, (_, why) in MALFORMED_METRICS.items()],
        ],
    )
    def test_obs_rejects_bad_metrics_file(
        self, tmp_path, capsys, command, kind, message
    ):
        path = tmp_path / f"{kind}.jsonl"
        prefix = "obs: "
        if kind == "text":
            path.write_text("not json\n")
        elif kind == "scalar":
            path.write_text("42\n")
        elif kind in self.MALFORMED_METRICS:
            record = self.MALFORMED_METRICS[kind][0]
            path.write_text(
                '{"name":"ok","type":"counter","value":1}\n'
                + json.dumps(record)
                + "\n"
            )
            prefix = f"obs: {path}:2: not a metrics snapshot ("
        argv = ["obs", command, str(path)]
        if command == "diff":
            argv.append(str(path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert message in err
        assert len(err.splitlines()) == 1

    #: Sweep reports of the current version whose points ``sweep diff``
    #: cannot read, and the field each complaint names.
    MALFORMED_REPORTS = {
        "scalar-points": (3, "'points' must be a list"),
        "scalar-point": ([3], "points[0] must be an object"),
        "no-label": (
            [{"figures_of_merit": {}}],
            "points[0].label must be a string",
        ),
        "no-figures": (
            [{"label": "a"}],
            "points[0].figures_of_merit must be an object of numbers",
        ),
        "text-figure": (
            [
                {"label": "a", "figures_of_merit": {"x": 1.0}},
                {"label": "b", "figures_of_merit": {"x": "1"}},
            ],
            "points[1].figures_of_merit must be an object of numbers",
        ),
        "bool-figure": (
            [{"label": "a", "figures_of_merit": {"x": True}}],
            "points[0].figures_of_merit must be an object of numbers",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_REPORTS))
    def test_sweep_diff_rejects_malformed_report(self, tmp_path, capsys, kind):
        points, message = self.MALFORMED_REPORTS[kind]
        path = tmp_path / "report.json"
        path.write_text(
            json.dumps({"version": 1, "name": "x", "points": points})
        )
        assert main(["sweep", "diff", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sweep: sweep report {path}: ")
        assert message in err
        assert len(err.splitlines()) == 1

    def test_sweep_run_rejects_malformed_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MISS_CACHE_DIR", str(tmp_path / "curves"))
        spec = tmp_path / "s.json"
        spec.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "tiny",
                    "defaults": {
                        "instructions_per_job": 2_000_000,
                        "profile_num_sets": 8,
                        "profile_accesses": 2_000,
                    },
                    "points": [
                        {"workload": "bzip2", "configuration": "All-Strict"}
                    ],
                }
            )
        )
        store = ["--store-dir", str(tmp_path / "store")]
        baseline = tmp_path / "baseline.json"
        for points, message in self.MALFORMED_REPORTS.values():
            baseline.write_text(
                json.dumps({"version": 1, "name": "x", "points": points})
            )
            argv = ["sweep", "run", str(spec), *store, "--baseline", str(baseline)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"sweep: sweep report {baseline}: ")
            assert message in err
            assert len(err.splitlines()) == 1

    def test_obs_summarize_rejects_bad_events_file(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"name":"n","type":"counter","value":1}\n')
        argv = [
            "obs", "summarize", str(metrics),
            "--events", str(tmp_path / "missing.jsonl"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("obs: ")
        assert "No such file" in err

    #: Event records ``obs.events.validate_jsonl`` refuses, each on the
    #: second line after a valid first event, and its complaint.
    MALFORMED_EVENTS = {
        "text-time": (
            {"v": 1, "seq": 1, "t": "x", "kind": "admission"},
            "bad event time 'x'",
        ),
        "list-field": (
            {"v": 1, "seq": 1, "t": 2.0, "kind": "admission", "jobs": [1]},
            "field 'jobs' is not a JSON scalar",
        ),
        "no-seq": (
            {"v": 1, "t": 2.0, "kind": "admission"},
            "event missing envelope field 'seq'",
        ),
        "seq-gap": (
            {"v": 1, "seq": 2, "t": 2.0, "kind": "admission"},
            "non-dense sequence: expected 1, got 2",
        ),
        "other-version": (
            {"v": 2, "seq": 1, "t": 2.0, "kind": "admission"},
            "schema version 2 != 1",
        ),
        "empty-kind": (
            {"v": 1, "seq": 1, "t": 2.0, "kind": ""},
            "bad event kind ''",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_EVENTS))
    def test_obs_summarize_rejects_malformed_events(
        self, tmp_path, capsys, kind
    ):
        record, message = self.MALFORMED_EVENTS[kind]
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"name":"n","type":"counter","value":1}\n')
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"v":1,"seq":0,"t":1.0,"kind":"admission"}\n'
            + json.dumps(record)
            + "\n"
        )
        argv = ["obs", "summarize", str(metrics), "--events", str(events)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"obs: {events}:2: not an event stream (")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "No such file"),
            ("text", "not valid JSON"),
            ("stale", "version 1 not supported"),
            ("list-scenario", "scenario must be a JSON object"),
            ("text-count", "scenario field 'count' must be an integer"),
        ],
    )
    def test_verify_replay_rejects_bad_case(
        self, tmp_path, capsys, kind, message
    ):
        path = tmp_path / f"{kind}.json"
        scenarios = {"list-scenario": [], "text-count": {"count": "x"}}
        if kind == "text":
            path.write_text("not json\n")
        elif kind == "stale":
            path.write_text(
                json.dumps({"version": 1, "scenario": {}, "pairs": ["jobs"]})
            )
        elif kind in scenarios:
            path.write_text(
                json.dumps(
                    {"version": 2, "scenario": scenarios[kind], "pairs": ["jobs"]}
                )
            )
        assert main(["verify", "replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert message in err
        assert len(err.splitlines()) == 1

    def test_verify_fuzz_rejects_bad_budget(self, capsys):
        assert main(["verify", "fuzz", "--budget", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "cannot parse budget 'abc'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--laws", "nope"], "unknown law(s) ['nope']"),
            (
                ["--policy", "all", "--laws", "miss-curve-monotone"],
                "unknown law(s) ['miss-curve-monotone']",
            ),
        ],
        ids=["law", "law-of-other-suite"],
    )
    def test_verify_laws_rejects_unknown_law(self, capsys, argv, message):
        assert main(["verify", "laws", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"verify: {message}; expected among ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "No such file"),
            ("text", "invalid JSON"),
            ("list", "not a JSON object"),
            ("scalar-curve", "curve 'bzip2' is not a JSON object"),
            ("scalar-points", "curve field 'points'"),
            ("text-apki", "curve field 'l2_accesses_per_instruction'"),
        ],
        ids=["missing", "text", "list", "scalar-curve", "scalar-points", "text-apki"],
    )
    def test_fig5_rejects_bad_curves_file(self, tmp_path, capsys, kind, message):
        path = tmp_path / f"{kind}.json"
        curve = {"benchmark": "bzip2", "l2_accesses_per_instruction": 0.1}
        if kind == "text":
            path.write_text("not json\n")
        elif kind == "list":
            path.write_text("[1]\n")
        elif kind == "scalar-curve":
            path.write_text('{"bzip2": 3}\n')
        elif kind == "scalar-points":
            path.write_text(json.dumps({"bzip2": {**curve, "points": 3}}))
        elif kind == "text-apki":
            curve.update(l2_accesses_per_instruction="x", points={})
            path.write_text(json.dumps({"bzip2": curve}))
        assert main(["fig5", "bzip2", "--curves", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fig5: ")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "diff", "--count", "0"], "--count"),
            (["verify", "diff", "--pair-jobs", "0"], "--pair-jobs"),
            (["verify", "diff", "--pair-jobs", "1"], "--pair-jobs"),
            (["verify", "fuzz", "--max-cases", "0"], "--max-cases"),
            (["verify", "laws", "--policy", "bogus"], "--policy"),
            (["cluster", "--nodes", "0"], "--nodes"),
            (["cluster", "--interarrival", "0"], "--interarrival"),
            (["cluster", "--size", "--target", "1.5"], "--target"),
            (["faults", "--core-rate", "-1"], "--core-rate"),
            (["faults", "--stall-rate", "-1"], "--stall-rate"),
            (["faults", "--bandwidth-rate", "-1"], "--bandwidth-rate"),
            (["faults", "--ecc-rate", "nan"], "--ecc-rate"),
            (["faults", "--max-events", "-5"], "--max-events"),
            (["faults", "--max-seconds", "-1"], "--max-seconds"),
            (["obs", "top", "m.jsonl", "-n", "-1"], "-n/--count"),
            (["obs", "top", "m.jsonl", "-n", "0"], "-n/--count"),
            (["obs", "diff", "a", "b", "--abs-tol", "-1"], "--abs-tol"),
            (["obs", "diff", "a", "b", "--abs-tol", "nan"], "--abs-tol"),
            (["obs", "diff", "a", "b", "--rel-tol", "-0.5"], "--rel-tol"),
            (["sweep", "diff", "a", "b", "--rel-tol", "nan"], "--rel-tol"),
            (["sweep", "diff", "a", "b", "--abs-tol", "-1"], "--abs-tol"),
            (["sweep", "run", "s.json", "--rel-tol", "-1"], "--rel-tol"),
            (["sweep", "run", "s.json", "--abs-tol", "inf"], "--abs-tol"),
        ],
        ids=[
            "diff-count",
            "pair-jobs-0",
            "pair-jobs-1",
            "fuzz-max-cases",
            "laws-policy",
            "nodes",
            "interarrival",
            "target",
            "core-rate",
            "stall-rate",
            "bandwidth-rate",
            "ecc-rate",
            "max-events",
            "max-seconds",
            "top-count-negative",
            "top-count-zero",
            "obs-diff-abs-tol-negative",
            "obs-diff-abs-tol-nan",
            "obs-diff-rel-tol-negative",
            "sweep-diff-rel-tol-nan",
            "sweep-diff-abs-tol-negative",
            "sweep-run-rel-tol-negative",
            "sweep-run-abs-tol-inf",
        ],
    )
    def test_bad_value_is_refused_at_the_parser(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        nested = argv[0] in ("verify", "obs", "sweep")
        prog = "repro " + " ".join(argv[: 2 if nested else 1])
        assert last.startswith(f"{prog}: error: argument {option}: ")
