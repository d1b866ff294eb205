"""Tests for the differential pair harness (repro.verify.differential).

The pairs themselves are expensive (each runs the scenario twice), so
the passing-path tests use one heavily reduced scenario shared across
the module; the cheap structural tests (scenario validation, report
shape, pair dispatch) run at full breadth.
"""

import pytest

from repro.verify import PAIR_NAMES, Scenario, run_diff, run_pair

#: Small enough for test latency, large enough to exercise stealing,
#: auto-downgrade, and the traced event stream.
REDUCED = dict(
    count=3,
    seed=0,
    jobs=2,
    instructions_per_job=1_000_000,
    profile_num_sets=16,
    profile_accesses=2_000,
    profile_warmup=500,
)


class TestScenario:
    def test_defaults_are_valid(self):
        scenario = Scenario()
        assert scenario.workload == "bzip2"
        assert scenario.jobs >= 2

    def test_rejects_unknown_configuration(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            Scenario(configurations=("All-Strict", "Mystery"))

    def test_rejects_empty_configurations(self):
        with pytest.raises(ValueError, match="at least one"):
            Scenario(configurations=())

    def test_rejects_serial_jobs(self):
        with pytest.raises(ValueError, match="jobs >= 2"):
            Scenario(jobs=1)

    def test_for_figure(self):
        fig7 = Scenario.for_figure("fig7", seed=3)
        assert fig7.configurations == (
            "All-Strict",
            "All-Strict+AutoDown",
        )
        assert fig7.seed == 3
        fig5 = Scenario.for_figure("fig5")
        assert len(fig5.configurations) == 5
        with pytest.raises(ValueError, match="fig5 or fig7"):
            Scenario.for_figure("fig9")

    def test_round_trips_through_dict(self):
        scenario = Scenario(workload="Mix-1", **REDUCED)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_dict({"workload": "bzip2", "turbo": True})

    def test_mix_workload_lists_role_benchmarks(self):
        assert len(Scenario(workload="Mix-1").benchmarks()) > 1
        assert Scenario(workload="bzip2").benchmarks() == ["bzip2"]


class TestPairDispatch:
    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            run_pair(Scenario(), "threads")

    def test_pair_names_cover_the_redundancy_axes(self):
        assert PAIR_NAMES == ("backend", "jobs", "faults", "policy")

    def test_rejects_non_adaptive_pair_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'strict'"):
            Scenario(pair_policy="strict")

    def test_rejects_unknown_scenario_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Scenario(policy="thermostat")


@pytest.fixture(scope="module")
def reduced_scenario():
    return Scenario(
        workload="bzip2",
        configurations=("All-Strict", "All-Strict+AutoDown"),
        **REDUCED,
    )


class TestPairsAgree:
    """The seeded pipeline really is redundancy-invariant."""

    @pytest.mark.parametrize("pair", PAIR_NAMES)
    def test_pair_passes(self, reduced_scenario, pair):
        report = run_pair(reduced_scenario, pair)
        assert report.kind == pair
        failed = [
            (check.name, check.details)
            for check in report.checks
            if not check.passed
        ]
        assert report.passed, failed

    def test_run_diff_aggregates_all_pairs(self, reduced_scenario):
        report = run_diff(reduced_scenario)
        assert report.command == "diff"
        assert [r.kind for r in report.reports] == list(PAIR_NAMES)
        assert report.passed and report.exit_code == 0

    def test_faults_pair_skips_equalpart(self):
        """EqualPart rejects fault configs; an EqualPart-only scenario
        makes the faults pair vacuously clean rather than an error."""
        scenario = Scenario(configurations=("EqualPart",), **REDUCED)
        report = run_pair(scenario, "faults")
        assert report.passed


@pytest.mark.policy
class TestPolicyPair:
    """Disabled adaptation is byte-identical to running without a
    policy, and with an *active* policy both arms of the other pairs
    still agree (adaptive decisions are deterministic)."""

    def test_epochs_check_fails_on_equal_event_totals(self):
        """A disabled arm that fired no extra engine events ran no
        decision epoch, so the pair must not pass it."""
        import json

        from repro.verify.differential import events_fired_check

        def metrics(fired):
            return [
                json.dumps(
                    {
                        "name": "engine.events_fired",
                        "type": "counter",
                        "value": fired,
                    }
                )
            ]

        check = events_fired_check("epochs", metrics(3509), metrics(3509))
        assert not check.passed
        assert "no decision epoch ran" in check.details[0]
        assert events_fired_check(
            "epochs", metrics(3509), metrics(3537)
        ).passed
        # No run outlasted one epoch interval: nothing could fire.
        assert events_fired_check(
            "epochs", metrics(10), metrics(10), epoch_due=False
        ).passed

    def test_equalpart_only_scenario_passes(self):
        """EqualPart takes no policy, so no epoch falls due and the
        epochs check passes vacuously instead of failing the pair."""
        scenario = Scenario(configurations=("EqualPart",), **REDUCED)
        report = run_pair(scenario, "policy")
        assert report.passed, [
            (check.name, check.details)
            for check in report.checks
            if not check.passed
        ]

    def test_bandwidth_steal_variant(self, reduced_scenario):
        import dataclasses

        scenario = dataclasses.replace(
            reduced_scenario, pair_policy="bandwidth-steal"
        )
        report = run_pair(scenario, "policy")
        assert report.passed, [
            (check.name, check.details)
            for check in report.checks
            if not check.passed
        ]

    def test_active_policy_deterministic_across_jobs(
        self, reduced_scenario
    ):
        import dataclasses

        scenario = dataclasses.replace(
            reduced_scenario, policy="grow-shrink"
        )
        report = run_pair(scenario, "jobs")
        assert report.passed, [
            (check.name, check.details)
            for check in report.checks
            if not check.passed
        ]
