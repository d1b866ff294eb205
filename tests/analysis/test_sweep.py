"""The sweep orchestrator: spec parsing, resume semantics, diffing."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import misscache
from repro.analysis.store import QUARANTINE_SUFFIX, ResultStore
from repro.analysis import sweep
from repro.analysis.parallel import installed_shared
from repro.analysis.sweep import (
    SweepPoint,
    SweepSpec,
    build_report,
    diff_reports,
    load_report,
    load_sweep_file,
    point_digest,
    report_metric_records,
    run_sweep,
    sweep_from_dict,
    sweep_status,
)
from repro.sim.system import ResultArtifact
from repro.workloads.profiler import clear_curve_cache

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Small enough that a whole point takes well under a second.
FAST_KNOBS = {
    "instructions_per_job": 2_000_000,
    "profile_num_sets": 8,
    "profile_accesses": 2_000,
}


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path):
    """Keep curve profiling and process-local memoisation hermetic."""
    misscache.set_cache_dir(tmp_path / "curves")
    misscache.set_enabled(True)
    misscache.reset_stats()
    clear_curve_cache()
    yield
    clear_curve_cache()
    misscache.set_cache_dir(None)
    misscache.set_enabled(None)
    misscache.reset_stats()


def spec_payload(name="smoke", **overrides):
    payload = {
        "version": 1,
        "name": name,
        "defaults": dict(FAST_KNOBS),
        "matrix": {
            "workload": ["bzip2"],
            "configuration": ["All-Strict", "EqualPart"],
        },
    }
    payload.update(overrides)
    return payload


class TestSpecParsing:
    def test_matrix_expands_cartesian_in_sorted_axis_order(self):
        spec = sweep_from_dict(
            {
                "version": 1,
                "name": "m",
                "matrix": {
                    "configuration": ["All-Strict", "EqualPart"],
                    "workload": ["bzip2", "hmmer"],
                },
            }
        )
        assert [
            (p.workload, p.configuration) for p in spec.points
        ] == [
            ("bzip2", "All-Strict"),
            ("hmmer", "All-Strict"),
            ("bzip2", "EqualPart"),
            ("hmmer", "EqualPart"),
        ]

    def test_defaults_merge_under_every_point(self):
        spec = sweep_from_dict(spec_payload())
        assert all(
            p.instructions_per_job == FAST_KNOBS["instructions_per_job"]
            for p in spec.points
        )

    def test_explicit_points_with_overrides(self):
        spec = sweep_from_dict(
            {
                "version": 1,
                "name": "p",
                "defaults": {"count": 4},
                "points": [
                    {"workload": "bzip2", "configuration": "All-Strict"},
                    {
                        "workload": "bzip2",
                        "configuration": "All-Strict",
                        "seed": 7,
                        "l2_ways": 8,
                    },
                ],
            }
        )
        assert spec.points[0].count == 4
        assert spec.points[1].seed == 7
        assert spec.points[1].l2_ways == 8

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            sweep_from_dict(spec_payload(version=2))

    def test_unknown_point_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep point field"):
            sweep_from_dict(
                spec_payload(
                    matrix={
                        "workload": ["bzip2"],
                        "configuration": ["All-Strict"],
                        "turbo": [True],
                    }
                )
            )

    def test_unknown_workload_and_configuration_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            SweepPoint(workload="nginx", configuration="All-Strict")
        with pytest.raises(ValueError, match="unknown configuration"):
            SweepPoint(workload="bzip2", configuration="Turbo")

    def test_points_and_matrix_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            sweep_from_dict(spec_payload(points=[]))

    def test_points_must_be_a_list(self):
        with pytest.raises(ValueError, match="'points' must be a list"):
            sweep_from_dict({"version": 1, "name": "p", "points": 3})

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sweep_from_dict(
                {
                    "version": 1,
                    "name": "d",
                    "points": [
                        {"workload": "bzip2", "configuration": "EqualPart"},
                        {"workload": "bzip2", "configuration": "EqualPart"},
                    ],
                }
            )

    def test_unsafe_name_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            SweepSpec(
                name="../escape",
                points=(
                    SweepPoint(
                        workload="bzip2", configuration="All-Strict"
                    ),
                ),
            )

    def test_load_sweep_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec_payload()))
        spec = load_sweep_file(path)
        assert spec.name == "smoke"
        assert len(spec.points) == 2


class TestDigests:
    def test_digest_stable(self):
        point = SweepPoint(workload="bzip2", configuration="All-Strict")
        assert point_digest(point) == point_digest(point)

    def test_digest_varies_with_every_field(self):
        base = SweepPoint(workload="bzip2", configuration="All-Strict")
        variants = [
            SweepPoint(workload="hmmer", configuration="All-Strict"),
            SweepPoint(workload="bzip2", configuration="Hybrid-1"),
            SweepPoint(
                workload="bzip2", configuration="All-Strict", count=5
            ),
            SweepPoint(
                workload="bzip2", configuration="All-Strict", seed=1
            ),
            SweepPoint(
                workload="bzip2", configuration="All-Strict", l2_ways=8
            ),
            SweepPoint(
                workload="bzip2",
                configuration="All-Strict",
                instructions_per_job=1_000_000,
            ),
        ]
        digests = [point_digest(p) for p in variants]
        assert point_digest(base) not in digests
        assert len(set(digests)) == len(digests)


class TestCodeFingerprint:
    #: Modules whose functions run while a point is simulated and stored
    #: but cannot change a stored artifact.
    ALLOWLIST = {
        # Store mechanics: a curve comes back as the fingerprinted
        # profiler made it, or not at all; an artifact is written whole.
        "repro.analysis.misscache": "curve store round trip",
        "repro.analysis.store": "results store round trip",
        "repro.util.atomicio": "atomic file writes",
        "repro.analysis.parallel": "hands each point to its worker",
        # The artifact carries the metrics snapshot and the SLO report,
        # not the event log or host timings.
        "repro.obs.events": "event log",
        "repro.obs.profiler": "host-time phases",
        "repro.util.validation": "only raises",
        # Spec parsing, digests, status, reports and diffs: a point's
        # fields are in its digest, and it is simulated by run_point.
        "repro.analysis.sweep": "orchestration around run_point",
    }

    def test_point_runs_in_a_fingerprinted_module(self):
        """Editing the orchestration must not re-key the store; editing
        the code that simulates a point must."""
        assert sweep.run_point.__module__ in sweep._FINGERPRINT_MODULES
        assert "repro.analysis.sweep" not in sweep._FINGERPRINT_MODULES

    def test_fingerprint_covers_every_module_a_point_runs(self, tmp_path):
        """Editing any module a point's simulation runs, and that can
        change its artifact, must re-key the store."""
        points = [
            SweepPoint(workload="Mix-1", configuration=name, count=4, **FAST_KNOBS)
            for name in ("Hybrid-2", "All-Strict+AutoDown", "EqualPart")
        ]
        ran = set()

        def record(frame, event, arg):
            if event == "call":
                ran.add(frame.f_globals.get("__name__") or "")

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            with installed_shared((points, tmp_path / "store")):
                for index in range(len(points)):
                    sweep._point_worker(index)
        finally:
            sys.setprofile(previous)
        unfingerprinted = {
            module
            for module in ran
            if module.startswith("repro.")
            and module not in sweep._FINGERPRINT_MODULES
        }
        assert unfingerprinted <= self.ALLOWLIST.keys(), sorted(
            unfingerprinted - self.ALLOWLIST.keys()
        )


class TestRunSweep:
    @pytest.fixture
    def spec(self):
        return sweep_from_dict(spec_payload())

    def test_cold_then_warm(self, spec, tmp_path):
        store_dir = tmp_path / "store"
        cold = run_sweep(spec, store_dir=store_dir)
        assert cold.executed == 2
        assert cold.served_from_store == 0
        assert cold.report_path.is_file()
        first_bytes = cold.report_path.read_bytes()

        warm = run_sweep(spec, store_dir=store_dir)
        assert warm.executed == 0
        assert warm.served_from_store == 2
        assert warm.report_path.read_bytes() == first_bytes

    def test_corrupt_artifact_quarantines_and_reruns(self, spec, tmp_path):
        store_dir = tmp_path / "store"
        cold = run_sweep(spec, store_dir=store_dir)
        first_bytes = cold.report_path.read_bytes()
        store = ResultStore(store_dir)
        victim = store.path_for(point_digest(spec.points[0]))
        victim.write_text("{ torn")

        again = run_sweep(spec, store_dir=store_dir)
        assert again.executed == 1
        assert again.served_from_store == 1
        assert store.quarantine_count() == 1
        assert again.report_path.read_bytes() == first_bytes

    @pytest.mark.parametrize(
        "field, value",
        [
            ("figures_of_merit", 3),
            ("figures_of_merit", {"deadline_hit_rate": "x"}),
            ("counters", [1]),
            ("workload", 3),
            ("slo", 3),
            ("metrics", [3]),
        ],
        ids=["figures", "figure-value", "counters", "workload", "slo", "metrics"],
    )
    def test_wrong_typed_artifact_quarantines_and_reruns(
        self, spec, tmp_path, field, value
    ):
        store_dir = tmp_path / "store"
        cold = run_sweep(spec, store_dir=store_dir)
        first_bytes = cold.report_path.read_bytes()
        store = ResultStore(store_dir)
        victim = store.path_for(point_digest(spec.points[0]))
        payload = json.loads(victim.read_text())
        payload[field] = value
        victim.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=repr(field)):
            ResultArtifact.from_dict(payload)

        again = run_sweep(spec, store_dir=store_dir)
        assert again.executed == 1
        assert again.served_from_store == 1
        assert store.quarantine_count() == 1
        assert again.report_path.read_bytes() == first_bytes

    def test_status_counts_done_and_missing(self, spec, tmp_path):
        store_dir = tmp_path / "store"
        status = sweep_status(spec, store_dir=store_dir)
        assert len(status.missing) == 2 and not status.done
        run_sweep(spec, store_dir=store_dir)
        status = sweep_status(spec, store_dir=store_dir)
        assert len(status.done) == 2 and not status.missing

    def test_build_report_requires_all_artifacts(self, spec, tmp_path):
        with pytest.raises(RuntimeError, match="no stored artifact"):
            build_report(spec, ResultStore(tmp_path / "empty"))

    def test_report_is_canonical_and_versioned(self, spec, tmp_path):
        outcome = run_sweep(spec, store_dir=tmp_path / "store")
        payload = json.loads(outcome.report_path.read_text())
        assert payload["version"] == 1
        assert payload["sweep"] == "smoke"
        assert [p["label"] for p in payload["points"]] == [
            p.label() for p in spec.points
        ]
        canonical = (
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        assert outcome.report_path.read_text() == canonical


class TestDiffing:
    @pytest.fixture
    def report(self, tmp_path):
        spec = sweep_from_dict(spec_payload())
        return run_sweep(spec, store_dir=tmp_path / "store").report

    def test_self_diff_is_clean(self, report):
        diff = diff_reports(report, json.loads(json.dumps(report)))
        assert diff.clean
        assert diff.series_compared == len(
            report_metric_records(report)
        )

    def test_moved_figure_of_merit_flagged(self, report):
        mutated = json.loads(json.dumps(report))
        mutated["points"][0]["figures_of_merit"]["makespan_cycles"] += 1e6
        diff = diff_reports(report, mutated)
        assert not diff.clean
        assert any(
            delta.kind == "changed"
            and delta.series.endswith(".makespan_cycles")
            for delta in diff.deltas
        )
        # Tolerant comparison accepts the same movement.
        assert diff_reports(report, mutated, rel_tol=0.5).clean

    def test_dropped_point_is_removed_series(self, report):
        mutated = json.loads(json.dumps(report))
        del mutated["points"][0]
        diff = diff_reports(report, mutated)
        assert diff.deltas
        assert all(delta.kind == "removed" for delta in diff.deltas)

    def test_load_report_by_path_and_name(self, report, tmp_path):
        store_dir = tmp_path / "store"
        by_name = load_report("smoke", store_dir=store_dir)
        assert by_name == report
        by_path = load_report(
            store_dir / "sweeps" / "smoke.json", store_dir=store_dir
        )
        assert by_path == report
        with pytest.raises(FileNotFoundError):
            load_report("no-such-sweep", store_dir=store_dir)


@pytest.mark.slow
class TestInterruption:
    """Kill a sweep mid-run; resume must serve stored points and
    produce a byte-identical report."""

    WORKLOADS = ["bzip2", "hmmer"]
    CONFIGURATIONS = ["All-Strict", "Hybrid-1", "EqualPart"]

    def _sweep_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "interrupt",
                    "defaults": dict(FAST_KNOBS),
                    "matrix": {
                        "workload": self.WORKLOADS,
                        "configuration": self.CONFIGURATIONS,
                    },
                }
            )
        )
        return path

    def _env(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        # Hermetic curve store, shared across all runs of the test so
        # profiling cost is paid once.
        env["REPRO_MISS_CACHE_DIR"] = str(tmp_path / "curves")
        env.pop("REPRO_MISS_CACHE", None)
        env.pop("REPRO_RESULT_STORE_DIR", None)
        return env

    def _run(self, sweep_file, store_dir, env):
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", "run",
                str(sweep_file), "--store-dir", str(store_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sigkill_then_resume_matches_uninterrupted_run(self, tmp_path):
        sweep_file = self._sweep_file(tmp_path)
        env = self._env(tmp_path)
        interrupted_store = tmp_path / "store-a"
        pristine_store = tmp_path / "store-b"

        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", "run",
                str(sweep_file), "--store-dir", str(interrupted_store),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for at least one artifact to land, then pull the plug.
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break  # finished before we could kill it: still valid
                if list(interrupted_store.glob("*.json")):
                    process.send_signal(signal.SIGKILL)
                    process.wait(timeout=60)
                    break
                time.sleep(0.005)
            else:
                pytest.fail("no artifact appeared within the deadline")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)

        stored_at_kill = len(list(interrupted_store.glob("*.json")))
        assert stored_at_kill >= 1
        total = len(self.WORKLOADS) * len(self.CONFIGURATIONS)

        # The store is the progress record: status counts exactly the
        # artifacts that landed before the kill.
        status = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", "status",
                str(sweep_file), "--store-dir", str(interrupted_store),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert status.returncode == 0, status.stdout + status.stderr
        lines = status.stdout.splitlines()
        assert lines[0] == (
            f"sweep interrupt: {stored_at_kill}/{total} point(s) in "
            f"store, {total - stored_at_kill} missing"
        )
        assert len(lines) == 1 + total - stored_at_kill

        # Resume: completed points come from the store, the rest run.
        resume = self._run(sweep_file, interrupted_store, env)
        assert resume.returncode == 0, resume.stdout + resume.stderr
        match = re.search(
            r"(\d+) point\(s\) served from store, (\d+) executed",
            resume.stdout,
        )
        assert match, resume.stdout
        served, executed = int(match.group(1)), int(match.group(2))
        assert served + executed == total
        assert served >= stored_at_kill

        # An uninterrupted run in a fresh store must agree byte for byte.
        pristine = self._run(sweep_file, pristine_store, env)
        assert pristine.returncode == 0, pristine.stdout + pristine.stderr
        interrupted_report = (
            interrupted_store / "sweeps" / "interrupt.json"
        ).read_bytes()
        pristine_report = (
            pristine_store / "sweeps" / "interrupt.json"
        ).read_bytes()
        assert interrupted_report == pristine_report

        # No torn artifacts survived the SIGKILL.
        assert not list(interrupted_store.glob(".tmp-*"))
        store = ResultStore(interrupted_store)
        assert store.quarantine_count() == 0
        assert store.entry_count() == total
        assert not list(
            interrupted_store.glob(f"*{QUARANTINE_SUFFIX}")
        )
