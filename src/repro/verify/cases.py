"""Replayable verification cases (``verify-case.json``).

When the fuzzer finds a scenario on which two supposedly-equivalent
executions disagree, the shrunk scenario is worth more than the log
line: serialised, it becomes a deterministic regression test anyone
can re-run with ``repro verify replay verify-case.json``.  This module
is that serialisation — a versioned JSON envelope around a
:class:`~repro.verify.differential.Scenario` plus the differential
pairs that failed on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from repro.verify.differential import PAIR_NAMES, Scenario

#: Envelope version; bump on any incompatible schema change (version 2
#: dropped ``Scenario.fast_backend``).
VERIFY_CASE_VERSION = 2


@dataclass(frozen=True)
class VerifyCase:
    """One minimal failing (or pinned) differential scenario."""

    scenario: Scenario
    pairs: Tuple[str, ...]
    fuzz_seed: int = 0
    case_index: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        unknown = [pair for pair in self.pairs if pair not in PAIR_NAMES]
        if unknown:
            raise ValueError(
                f"unknown pair(s) {unknown}; expected among {PAIR_NAMES}"
            )
        if not self.pairs:
            raise ValueError("a verify case needs at least one pair")

    def to_dict(self) -> dict:
        return {
            "version": VERIFY_CASE_VERSION,
            "scenario": self.scenario.to_dict(),
            "pairs": list(self.pairs),
            "fuzz_seed": self.fuzz_seed,
            "case_index": self.case_index,
            "description": self.description,
        }

    @staticmethod
    def from_dict(payload: dict) -> "VerifyCase":
        version = payload.get("version")
        if version != VERIFY_CASE_VERSION:
            raise ValueError(
                f"verify-case version {version!r} not supported "
                f"(this build reads version {VERIFY_CASE_VERSION})"
            )
        try:
            return VerifyCase(
                scenario=Scenario.from_dict(payload["scenario"]),
                pairs=tuple(payload["pairs"]),
                fuzz_seed=int(payload.get("fuzz_seed", 0)),
                case_index=int(payload.get("case_index", 0)),
                description=str(payload.get("description", "")),
            )
        except KeyError as missing:
            raise ValueError(
                f"verify-case payload missing key {missing}"
            ) from None


def save_case(case: VerifyCase, path) -> Path:
    """Write ``case`` as deterministic, human-diffable JSON.

    Atomic (:mod:`repro.util.atomicio`): a shrunk failing case is the
    one artefact of a long fuzz run, so an interrupt while writing it
    must not leave unparsable JSON for ``repro verify replay``.
    """
    from repro.util.atomicio import write_atomic_text

    return write_atomic_text(
        Path(path),
        json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n",
    )


def load_case(path) -> VerifyCase:
    """Read back a case written by :func:`save_case`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a verify case (not a JSON object)")
    return VerifyCase.from_dict(payload)
