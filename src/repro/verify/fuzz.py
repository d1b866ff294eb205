"""Seeded scenario fuzzing with shrinking.

The differential pairs and the metamorphic laws check scenarios
someone thought of.  The fuzzer composes scenarios nobody did: random
workloads (single benchmarks and the Table 3 mixes), random
configuration subsets, random job counts and seeds — all drawn from
one :class:`~repro.util.rng.DeterministicRng`, so a fuzz run is
exactly reproducible from its seed.

On the first failing case the fuzzer *shrinks* — fewer pairs, fewer
configurations, fewer jobs — re-running the differential after each
candidate reduction and keeping it only if it still fails, then
writes the minimal scenario as a replayable ``verify-case.json``
(:mod:`repro.verify.cases`).
"""

from __future__ import annotations

import dataclasses
import re
import time
from typing import Optional, Sequence, Tuple

from repro.core.policy import policy_names
from repro.util.rng import DeterministicRng
from repro.verify.cases import VerifyCase, load_case, save_case
from repro.verify.differential import (
    PAIR_NAMES,
    Scenario,
    run_diff,
)
from repro.verify.report import CheckResult, PairReport, VerifyReport
from repro.workloads.composer import MIX_ROLES

#: Workloads the fuzzer draws from: a cache-hungry, a moderate, and an
#: insensitive benchmark plus both heterogeneous mixes — small enough
#: to keep per-case profiling cheap, diverse enough to reach the
#: stealing, AutoDown, and EqualPart code paths.
FUZZ_WORKLOADS = ("bzip2", "hmmer", "gobmk", *sorted(MIX_ROLES))

_FUZZ_CONFIGURATIONS = (
    "All-Strict",
    "All-Strict+AutoDown",
    "Hybrid-1",
    "Hybrid-2",
    "EqualPart",
)

#: Policies a fuzz case may apply to both arms of its pairs: ``None``
#: (no policy) half the time, else one of the two adaptive policies.
_FUZZ_POLICIES = (None, None, "grow-shrink", "bandwidth-steal")

_BUDGET_PATTERN = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*(s|sec|secs|m|min|mins|h)?\s*$"
)

_UNIT_SECONDS = {
    None: 1.0,
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "m": 60.0,
    "min": 60.0,
    "mins": 60.0,
    "h": 3600.0,
}


def parse_budget(text: str) -> float:
    """Parse a fuzz time budget: ``"60s"``, ``"2m"``, ``"45"`` (seconds)."""
    match = _BUDGET_PATTERN.match(text)
    if not match:
        raise ValueError(
            f"cannot parse budget {text!r}; expected e.g. 60s, 2m, 45"
        )
    seconds = float(match.group(1)) * _UNIT_SECONDS[match.group(2)]
    if seconds <= 0:
        raise ValueError(f"budget must be positive, got {text!r}")
    return seconds


def random_scenario(
    fuzz_seed: int, case_index: int
) -> Tuple[Scenario, Tuple[str, ...]]:
    """The ``case_index``-th scenario of fuzz run ``fuzz_seed``.

    A pure function of its arguments (each case draws from its own
    derived stream), so the shrinker and ``replay`` can re-derive any
    case without replaying the whole run.
    """
    rng = DeterministicRng(fuzz_seed, "verify-fuzz").stream(
        f"case-{case_index}"
    )
    workload = rng.choice(FUZZ_WORKLOADS)
    config_count = rng.randint(1, 3)
    configurations = tuple(
        sorted(
            rng.sample_without_replacement(
                _FUZZ_CONFIGURATIONS, config_count
            )
        )
    )
    scenario = Scenario(
        workload=workload,
        configurations=configurations,
        count=rng.randint(3, 6),
        seed=rng.randint(0, 2**16),
        jobs=2,
        instructions_per_job=1_000_000,
        profile_num_sets=16,
        profile_accesses=2_000,
        profile_warmup=500,
        record_trace=True,
    )
    pair_count = rng.randint(1, len(PAIR_NAMES))
    drawn = set(rng.sample_without_replacement(PAIR_NAMES, pair_count))
    pairs = tuple(
        pair
        for pair in PAIR_NAMES  # canonical order, random subset
        if pair in drawn
    )
    # Policy draws come last so the workload/configuration/pair streams
    # above stay stable relative to pre-policy fuzz corpora.  Active
    # adaptive policies are fair game for the backend/jobs/faults pairs:
    # decisions are deterministic functions of the trajectory, so both
    # arms must still agree byte-for-byte.
    scenario = dataclasses.replace(
        scenario,
        policy=rng.choice(_FUZZ_POLICIES),
        pair_policy=rng.choice(policy_names()),
    )
    return scenario, pairs


def _fails(scenario: Scenario, pairs: Sequence[str]) -> bool:
    return not run_diff(scenario, pairs=pairs).passed


def shrink_case(
    scenario: Scenario, pairs: Sequence[str]
) -> Tuple[Scenario, Tuple[str, ...]]:
    """Greedily minimise a failing case, preserving failure.

    Three reduction passes, each kept only if the case still fails:
    isolate a single failing pair, then a single configuration, then
    the smallest failing job count.  Every candidate re-runs the
    differential, so shrinking is exact — never a guess.
    """
    pairs = tuple(pairs)
    for pair in pairs:
        if len(pairs) > 1 and _fails(scenario, (pair,)):
            pairs = (pair,)
            break
    if len(scenario.configurations) > 1:
        for name in scenario.configurations:
            candidate = Scenario.from_dict(
                {**scenario.to_dict(), "configurations": [name]}
            )
            if _fails(candidate, pairs):
                scenario = candidate
                break
    for count in range(1, scenario.count):
        candidate = Scenario.from_dict(
            {**scenario.to_dict(), "count": count}
        )
        if _fails(candidate, pairs):
            scenario = candidate
            break
    return scenario, pairs


def run_fuzz(
    fuzz_seed: int = 0,
    *,
    budget_seconds: Optional[float] = 60.0,
    max_cases: Optional[int] = None,
    out: str = "verify-case.json",
    pairs: Optional[Sequence[str]] = None,
) -> VerifyReport:
    """Fuzz until the budget or ``max_cases`` runs out, or a case fails.

    ``pairs`` pins the differential pairs for every case (the mutation
    smoke tests use this); by default each case draws its own subset.
    On failure the case is shrunk and written to ``out``; the report's
    notes say how to replay it.
    """
    if budget_seconds is None and max_cases is None:
        raise ValueError("need a time budget or a case limit (or both)")
    report = VerifyReport(command="fuzz")
    started = time.monotonic()
    case_index = 0
    while True:
        if max_cases is not None and case_index >= max_cases:
            break
        if (
            budget_seconds is not None
            and case_index > 0  # always run at least one case
            and time.monotonic() - started >= budget_seconds
        ):
            break
        scenario, drawn_pairs = random_scenario(fuzz_seed, case_index)
        case_pairs = tuple(pairs) if pairs is not None else drawn_pairs
        diff = run_diff(scenario, pairs=case_pairs)
        case_report = PairReport(
            kind=f"case-{case_index}",
            subject=f"{scenario.describe()} via {'+'.join(case_pairs)}",
            checks=[
                CheckResult(
                    name=f"{pair_report.kind}:{check.name}",
                    passed=check.passed,
                    details=check.details,
                )
                for pair_report in diff.reports
                for check in pair_report.checks
            ],
        )
        report.reports.append(case_report)
        if not diff.passed:
            shrunk, shrunk_pairs = shrink_case(scenario, case_pairs)
            case = VerifyCase(
                scenario=shrunk,
                pairs=shrunk_pairs,
                fuzz_seed=fuzz_seed,
                case_index=case_index,
                description=(
                    f"shrunk from fuzz seed {fuzz_seed} case {case_index}"
                ),
            )
            path = save_case(case, out)
            report.notes.append(f"failing case shrunk and written to {path}")
            report.notes.append(f"replay with: repro verify replay {path}")
            break
        case_index += 1
    elapsed = time.monotonic() - started
    report.notes.append(
        f"fuzz: {len(report.reports)} case(s) in {elapsed:.1f}s "
        f"(seed {fuzz_seed})"
    )
    return report


def replay_case(case_or_path) -> VerifyReport:
    """Re-run a saved :class:`VerifyCase`; exit code semantics of diff.

    Accepts a case object or a path to a ``verify-case.json``.
    """
    case = (
        case_or_path
        if isinstance(case_or_path, VerifyCase)
        else load_case(case_or_path)
    )
    diff = run_diff(case.scenario, pairs=case.pairs)
    report = VerifyReport(command="replay", reports=diff.reports)
    if case.description:
        report.notes.append(f"case: {case.description}")
    return report


__all__ = [
    "FUZZ_WORKLOADS",
    "parse_budget",
    "random_scenario",
    "replay_case",
    "run_fuzz",
    "shrink_case",
]
