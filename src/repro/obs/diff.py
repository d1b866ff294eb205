"""Cross-run regression diffing over metrics snapshots.

``repro obs diff`` and the CI ``obs-regression`` gate both reduce to
one question: *did this run's numbers move beyond tolerance relative
to a baseline run?*  :func:`diff_snapshots` answers it over two parsed
metrics snapshots:

- counters and gauges compare by value,
- summaries compare by count and mean,
- series present on only one side are reported as added/removed —
  an instrumentation-coverage change is a regression signal too —
  and so are compared *fields* present on only one side of a shared
  series (e.g. a summary that lost its ``mean``).

A delta is **within tolerance** when ``|b - a| <= max(abs_tol,
rel_tol * max(|a|, |b|))`` — the symmetric form, so diffing A against
B flags exactly when diffing B against A does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Change classifications, in report order.
ADDED = "added"
REMOVED = "removed"
CHANGED = "changed"


@dataclass(frozen=True)
class SeriesDelta:
    """One out-of-tolerance difference between two snapshots."""

    kind: str  # ADDED / REMOVED / CHANGED
    series: str  # canonical metric key, qualified by field for summaries
    baseline: Optional[float]
    current: Optional[float]

    def describe(self) -> str:
        """One report line."""
        if self.kind == ADDED:
            return f"+ {self.series} = {self.current} (not in baseline)"
        if self.kind == REMOVED:
            return f"- {self.series} = {self.baseline} (gone from current)"
        delta = self.current - self.baseline  # type: ignore[operator]
        sign = "+" if delta >= 0 else ""
        return (
            f"~ {self.series}: {self.baseline} -> {self.current} "
            f"({sign}{delta:.6g})"
        )


@dataclass(frozen=True)
class DiffReport:
    """Outcome of one snapshot comparison."""

    deltas: Tuple[SeriesDelta, ...]
    series_compared: int

    @property
    def clean(self) -> bool:
        """True when every compared series stayed within tolerance."""
        return not self.deltas

    def lines(self) -> List[str]:
        """Human-facing report, deterministic order."""
        if self.clean:
            return [
                f"obs diff: {self.series_compared} series compared, "
                "no regressions"
            ]
        header = (
            f"obs diff: {len(self.deltas)} regression(s) across "
            f"{self.series_compared} series"
        )
        return [header] + [
            "  " + delta.describe() for delta in self.deltas
        ]


def _within(a: float, b: float, *, rel_tol: float, abs_tol: float) -> bool:
    return abs(b - a) <= max(abs_tol, rel_tol * max(abs(a), abs(b)))


def _comparable_values(record: dict) -> Dict[str, float]:
    """The numeric fields a snapshot record is compared on."""
    kind = record["type"]
    if kind in ("counter", "gauge"):
        return {"": float(record["value"])}
    if kind == "summary":
        values = {".count": float(record["count"])}
        # A summary can legitimately lack its ``mean`` (an exporter
        # that dropped the field); the shared-series loop reports the
        # asymmetry as an added/removed field rather than crashing —
        # or, worse, silently passing — here.
        if "mean" in record:
            values[".mean"] = float(record["mean"])
        return values
    raise ValueError(f"unknown snapshot record type {kind!r}")


def diff_snapshots(
    baseline: List[dict],
    current: List[dict],
    *,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> DiffReport:
    """Compare two metrics snapshots; returns out-of-tolerance deltas.

    With default (zero) tolerances this is an exact comparison — the
    mode the acceptance criterion uses on two identically-seeded runs.
    Deltas come back sorted (added, removed, changed; series name
    within each class) so the report is deterministic.
    """
    if not (rel_tol >= 0 and abs_tol >= 0):  # NaN fails too
        raise ValueError("tolerances must be non-negative numbers")

    def index(records: List[dict]) -> Dict[Tuple[str, str], dict]:
        table: Dict[Tuple[str, str], dict] = {}
        for record in records:
            table[(record["type"], record["name"])] = record
        return table

    base_index = index(baseline)
    current_index = index(current)

    deltas: List[SeriesDelta] = []
    for key in sorted(current_index.keys() - base_index.keys()):
        record = current_index[key]
        for suffix, value in sorted(_comparable_values(record).items()):
            deltas.append(
                SeriesDelta(
                    kind=ADDED,
                    series=record["name"] + suffix,
                    baseline=None,
                    current=value,
                )
            )
    for key in sorted(base_index.keys() - current_index.keys()):
        record = base_index[key]
        for suffix, value in sorted(_comparable_values(record).items()):
            deltas.append(
                SeriesDelta(
                    kind=REMOVED,
                    series=record["name"] + suffix,
                    baseline=value,
                    current=None,
                )
            )
    shared = sorted(base_index.keys() & current_index.keys())
    for key in shared:
        base_values = _comparable_values(base_index[key])
        current_values = _comparable_values(current_index[key])
        # Union of field suffixes: a field present on only one side is
        # a coverage regression (REMOVED/ADDED), never a silent pass —
        # e.g. a summary whose ``mean`` vanished from the current run.
        for suffix in sorted(base_values.keys() | current_values.keys()):
            a = base_values.get(suffix)
            b = current_values.get(suffix)
            if a is None:
                deltas.append(
                    SeriesDelta(
                        kind=ADDED,
                        series=base_index[key]["name"] + suffix,
                        baseline=None,
                        current=b,
                    )
                )
            elif b is None:
                deltas.append(
                    SeriesDelta(
                        kind=REMOVED,
                        series=base_index[key]["name"] + suffix,
                        baseline=a,
                        current=None,
                    )
                )
            elif not _within(a, b, rel_tol=rel_tol, abs_tol=abs_tol):
                deltas.append(
                    SeriesDelta(
                        kind=CHANGED,
                        series=base_index[key]["name"] + suffix,
                        baseline=a,
                        current=b,
                    )
                )

    order = {ADDED: 0, REMOVED: 1, CHANGED: 2}
    deltas.sort(key=lambda delta: (order[delta.kind], delta.series))
    return DiffReport(
        deltas=tuple(deltas),
        series_compared=len(shared),
    )
