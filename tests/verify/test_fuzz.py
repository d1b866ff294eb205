"""Tests for the scenario fuzzer (repro.verify.fuzz).

The centrepiece is the *mutation smoke*: an off-by-one deliberately
injected into the fast cache kernel's batch counters must be caught by
the backend differential, shrunk, and written as a replayable
``verify-case.json`` — the end-to-end proof that the verification
subsystem detects the class of bug it exists for.
"""

import json

import pytest

from repro.cache import fastsim
from repro.cache.basic import BatchCounters
from repro.verify import (
    VerifyCase,
    load_case,
    parse_budget,
    replay_case,
    run_fuzz,
)
from repro.verify.fuzz import FUZZ_WORKLOADS, random_scenario


class TestParseBudget:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("60s", 60.0),
            ("45", 45.0),
            ("2m", 120.0),
            ("1.5 min", 90.0),
            ("1h", 3600.0),
            (" 10 sec ", 10.0),
        ],
    )
    def test_accepts(self, text, seconds):
        assert parse_budget(text) == seconds

    @pytest.mark.parametrize("text", ["", "fast", "-5s", "10 days", "0"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_budget(text)


class TestRandomScenario:
    def test_pure_function_of_seed_and_index(self):
        for index in range(5):
            a = random_scenario(3, index)
            b = random_scenario(3, index)
            assert a == b

    def test_cases_vary_across_indices(self):
        cases = {random_scenario(0, index) for index in range(8)}
        assert len(cases) > 1

    def test_draws_stay_in_bounds(self):
        for index in range(10):
            scenario, pairs = random_scenario(1, index)
            assert scenario.workload in FUZZ_WORKLOADS
            assert 1 <= len(scenario.configurations) <= 3
            assert 3 <= scenario.count <= 6
            assert pairs  # never an empty pair set


class TestCleanFuzz:
    def test_bounded_run_is_clean(self, tmp_path):
        out = tmp_path / "verify-case.json"
        report = run_fuzz(
            0, budget_seconds=None, max_cases=1, out=str(out)
        )
        assert report.command == "fuzz"
        assert report.passed and report.exit_code == 0
        assert not out.exists()  # no failure, no case file
        assert any("1 case(s)" in note for note in report.notes)

    def test_requires_some_bound(self):
        with pytest.raises(ValueError, match="budget or a case limit"):
            run_fuzz(0, budget_seconds=None, max_cases=None)


def _off_by_one_access_block(real):
    """A batch path whose counters disagree with the reference by one."""

    def mutant(self, addresses, is_write=False, core_ids=0):
        counters = real(self, addresses, is_write=is_write, core_ids=core_ids)
        if not addresses:
            return counters
        return BatchCounters(
            accesses=counters.accesses,
            hits=counters.hits - 1,
            misses=counters.misses + 1,
            evictions=counters.evictions,
            writebacks=counters.writebacks,
        )

    return mutant


class TestMutationSmoke:
    """Inject a fastsim off-by-one; the fuzzer must catch and shrink it."""

    def test_backend_pair_catches_and_shrinks(self, tmp_path):
        out = tmp_path / "verify-case.json"
        real = fastsim.FastSetAssociativeCache.access_block
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(
                fastsim.FastSetAssociativeCache,
                "access_block",
                _off_by_one_access_block(real),
            )
            report = run_fuzz(
                0,
                budget_seconds=None,
                max_cases=3,
                out=str(out),
                pairs=("backend",),
            )
            assert not report.passed and report.exit_code == 1
            assert out.exists(), "failing case was not written"
            assert any("replay" in note for note in report.notes)

            case = load_case(out)
            assert isinstance(case, VerifyCase)
            assert case.pairs == ("backend",)
            # Shrinking reduced the scenario to a single configuration.
            assert len(case.scenario.configurations) == 1

            # While the mutant is live, the shrunk case reproduces.
            assert replay_case(case).exit_code == 1

        # With the kernel restored the very same case runs clean.
        clean = replay_case(out)
        assert clean.passed and clean.exit_code == 0

    def test_case_file_is_plain_versioned_json(self, tmp_path):
        out = tmp_path / "verify-case.json"
        real = fastsim.FastSetAssociativeCache.access_block
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(
                fastsim.FastSetAssociativeCache,
                "access_block",
                _off_by_one_access_block(real),
            )
            run_fuzz(
                0,
                budget_seconds=None,
                max_cases=3,
                out=str(out),
                pairs=("backend",),
            )
        payload = json.loads(out.read_text())
        assert payload["version"] == 2
        assert payload["pairs"] == ["backend"]
        assert "fast_backend" not in payload["scenario"]

    def test_version_1_case_is_refused(self, tmp_path):
        """Version 1 cases carried ``Scenario.fast_backend``; the backend
        pair is now always reference vs fast, so they do not replay."""
        out = tmp_path / "verify-case.json"
        v1 = {
            "version": 1,
            "scenario": {"workload": "bzip2", "fast_backend": "fast-vec"},
            "pairs": ["backend"],
        }
        out.write_text(json.dumps(v1))
        with pytest.raises(ValueError, match="version 1 not supported"):
            load_case(out)

    def test_case_naming_a_static_mode_policy_is_refused(self, tmp_path):
        """A static mode is not a registered policy, so a case that
        names one as its scenario policy fails validation."""
        out = tmp_path / "verify-case.json"
        case = {
            "version": 2,
            "scenario": {"workload": "bzip2", "policy": "strict"},
            "pairs": ["jobs"],
        }
        out.write_text(json.dumps(case))
        with pytest.raises(ValueError, match="unknown policy"):
            load_case(out)
