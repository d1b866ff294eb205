"""The values a caller can set on the simulation and verification stack.

Each independently settable value is one more configuration that tests
and benchmarks must cover, so every value here is one some command,
bench, example or CI job sets; the tuning values nothing varies are
named constants (DESIGN.md §13).  Adding a knob back fails the test
that names its object.
"""

import argparse
import dataclasses
import inspect

import pytest

from repro.cli import build_parser
from repro.core.metrics import LacOccupancyTracker
from repro.core.policy import BandwidthStealPolicy, GrowShrinkWaysPolicy
from repro.core.stealing import ResourceStealingController
from repro.faults.invariants import InvariantChecker
from repro.faults.model import FaultConfig
from repro.faults.resilience import RetryPolicy
from repro.mem.bandwidth import BandwidthModel
from repro.obs.slo import SloMonitor
from repro.sim.config import SimulationConfig
from repro.sim.engine import EventQueue

FIELDS = {
    "FaultConfig": (
        FaultConfig,
        (
            "seed",
            "core_failure_rate",
            "core_repair_time",
            "core_stall_rate",
            "bandwidth_degradation_rate",
            "ecc_error_rate",
            "horizon",
        ),
    ),
    "SimulationConfig": (
        SimulationConfig,
        (
            "instructions_per_job",
            "accepted_jobs_target",
            "seed",
            "profile_num_sets",
            "profile_accesses",
            "queue_policy",
        ),
    ),
}

PARAMETERS = {
    "GrowShrinkWaysPolicy": (GrowShrinkWaysPolicy, ("dead_band", "name")),
    "BandwidthStealPolicy": (BandwidthStealPolicy, ("low_watermark", "name")),
    "RetryPolicy": (RetryPolicy, ()),
    "ResourceStealingController": (
        ResourceStealingController,
        ("slack", "baseline_ways", "min_ways"),
    ),
    "SloMonitor": (SloMonitor, ()),
    "BandwidthModel": (
        BandwidthModel,
        ("peak_bytes_per_second", "clock_hz", "block_bytes"),
    ),
    "InvariantChecker": (InvariantChecker, ("simulator",)),
    "LacOccupancyTracker": (LacOccupancyTracker, ()),
    "EventQueue.run": (EventQueue.run, ("stop_when", "budget")),
}

#: Options (and positionals) of each ``repro verify`` subcommand.
VERIFY_OPTIONS = {
    "diff": (
        "--json",
        "--fig",
        "--workload",
        "--configs",
        "--count",
        "--seed",
        "--pairs",
        "--pair-jobs",
        "--pair-policy",
    ),
    "laws": ("--json", "--seed", "--laws", "--policy"),
    "fuzz": ("--json", "--seed", "--budget", "--max-cases", "--out", "--pairs"),
    "replay": ("--json", "case"),
}


@pytest.mark.parametrize("name", FIELDS)
def test_config_fields(name):
    cls, expected = FIELDS[name]
    assert tuple(field.name for field in dataclasses.fields(cls)) == expected


@pytest.mark.parametrize("name", PARAMETERS)
def test_parameters(name):
    target, expected = PARAMETERS[name]
    parameters = tuple(inspect.signature(target).parameters)
    assert tuple(p for p in parameters if p != "self") == expected


def _subcommands(parser):
    (action,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices


@pytest.mark.parametrize("command", VERIFY_OPTIONS)
def test_verify_options(command):
    parser = _subcommands(_subcommands(build_parser())["verify"])[command]
    options = tuple(
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in (action.option_strings or [action.dest])
    )
    assert options == VERIFY_OPTIONS[command]
