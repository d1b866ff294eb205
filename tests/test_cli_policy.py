"""Seeded determinism of policy-driven runs, end to end.

The adaptive policy layer adds decision epochs, actuation, and
``policy.decision`` events to the trajectory — all of which must stay
a pure function of the seed.  These tests pin the contract at the CLI
surface: the same policy-driven ``fig7`` command twice gives
byte-identical metric and event artifacts (decisions included), only
the two adaptive policies are accepted, and ``repro top --once``
renders a policy-bearing stats payload to the same bytes every time.
"""

import json

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.policy


def _run_fig7(tmp_path, tag, extra=()):
    """One in-process fig7 with artifacts; returns (metrics, events)."""
    from repro.workloads.profiler import clear_curve_cache

    clear_curve_cache()
    metrics = tmp_path / f"metrics-{tag}.jsonl"
    events = tmp_path / f"events-{tag}.jsonl"
    assert (
        main(
            [
                "fig7",
                *extra,
                "--metrics-out",
                str(metrics),
                "--events-out",
                str(events),
            ]
        )
        == 0
    )
    return metrics, events


@pytest.fixture
def no_misscache():
    from repro.analysis import misscache
    from repro.workloads.profiler import clear_curve_cache

    misscache.set_enabled(False)
    try:
        yield
    finally:
        misscache.set_enabled(None)
        clear_curve_cache()


class TestParser:
    def test_policy_flag_parses_on_figure_commands(self):
        parser = build_parser()
        for command in ("fig5", "fig6"):
            args = parser.parse_args(
                [command, "bzip2", "--policy", "grow-shrink"]
            )
            assert args.policy == "grow-shrink"
        args = parser.parse_args(["fig7", "--policy", "grow-shrink"])
        assert args.policy == "grow-shrink"
        assert parser.parse_args(["fig7"]).policy is None

    def test_policy_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--policy", "thermostat"])

    @pytest.mark.parametrize("command", ["fig7", "serve"])
    @pytest.mark.parametrize(
        "name",
        [
            "strict",
            "elastic",
            "opportunistic",
            "grow-shrink-off",
            "bandwidth-steal-off",
        ],
    )
    def test_static_modes_and_off_variants_exit_2(self, command, name):
        """Static modes are per-job targets and disabled instances are
        built by ``verify diff``; neither is a ``--policy`` value."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--policy", name])
        assert exit_info.value.code == 2

    def test_serve_accepts_policy(self):
        args = build_parser().parse_args(
            ["serve", "--policy", "bandwidth-steal"]
        )
        assert args.policy == "bandwidth-steal"

    def test_verify_laws_policy_flag(self):
        args = build_parser().parse_args(
            ["verify", "laws", "--policy", "all"]
        )
        assert args.policy == "all"

    def test_verify_diff_pair_policy_flag(self):
        args = build_parser().parse_args(
            [
                "verify",
                "diff",
                "--pairs",
                "policy",
                "--pair-policy",
                "bandwidth-steal",
            ]
        )
        assert args.pairs == ["policy"]
        assert args.pair_policy == "bandwidth-steal"


@pytest.mark.slow
class TestSeededDeterminism:
    def test_policy_run_is_byte_identical_across_runs(
        self, tmp_path, no_misscache
    ):
        """Same seeded policy-driven command, twice: the JSONL
        artifacts — ``policy.decision`` events included — match byte
        for byte."""
        first = _run_fig7(tmp_path, "a", ("--policy", "grow-shrink"))
        second = _run_fig7(tmp_path, "b", ("--policy", "grow-shrink"))
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()
        decisions = [
            json.loads(line)
            for line in first[1].read_text().splitlines()
            if json.loads(line).get("kind") == "policy.decision"
        ]
        assert decisions, "adaptive fig7 run emitted no decisions"
        for record in decisions:
            assert record["policy"] == "grow-shrink"


class TestTopRendersPolicy:
    def _stats(self, tmp_path):
        payload = {
            "uptime": 4.0,
            "queue_depth": 1,
            "inflight": 2,
            "accounting": {
                "offered": 9,
                "admitted": 8,
                "rejected": 1,
                "shed": 0,
                "downgraded": 0,
                "conserves": True,
            },
            "breaker": {
                "rung": 0,
                "ceiling": "strict",
                "open": False,
                "transitions": 0,
            },
            "health": {"state": "live", "pressure": 0.42},
            "policy": {
                "name": "bandwidth-steal",
                "granted": True,
                "decisions": 3,
            },
        }
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(payload))
        return path

    def test_once_renders_policy_line_deterministically(
        self, tmp_path, capsys
    ):
        stats = self._stats(tmp_path)
        assert main(["top", "--stats", str(stats), "--once"]) == 0
        first = capsys.readouterr().out
        assert main(["top", "--stats", str(stats), "--once"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "policy  bandwidth-steal" in first
        assert "bus=granted" in first
        assert "decisions=3" in first

    def test_policyless_stats_render_without_policy_line(
        self, tmp_path, capsys
    ):
        stats = self._stats(tmp_path)
        payload = json.loads(stats.read_text())
        del payload["policy"]
        stats.write_text(json.dumps(payload))
        assert main(["top", "--stats", str(stats), "--once"]) == 0
        assert "policy " not in capsys.readouterr().out
