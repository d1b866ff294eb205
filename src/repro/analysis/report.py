"""Paper-style result rendering.

Turns :class:`~repro.sim.system.SystemResult` collections into the text
tables the benchmark harness prints — one per reproduced figure/table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.analysis.runner import normalised_throughputs
from repro.analysis.sensitivity import SensitivityPoint
from repro.sim.system import SystemResult
from repro.util.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sweeps import SlackPoint


def deadline_table(results: Dict[str, SystemResult], *, title: str) -> str:
    """Figure 5(a)/9(a): deadline hit rate per configuration."""
    rows = [
        [name, result.deadline_report.considered, result.deadline_report.hit_rate]
        for name, result in results.items()
    ]
    return format_table(
        ["configuration", "jobs with deadlines", "deadline hit rate"],
        rows,
        title=title,
    )


def throughput_table(
    results: Dict[str, SystemResult],
    *,
    title: str,
    baseline: str = "All-Strict",
) -> str:
    """Figure 5(b)/9(b): normalised throughput per configuration."""
    normalised = normalised_throughputs(results, baseline=baseline)
    rows = [
        [
            name,
            result.makespan_cycles / 1e6,
            normalised[name],
        ]
        for name, result in results.items()
    ]
    return format_table(
        ["configuration", "makespan (Mcycles)", f"throughput vs {baseline}"],
        rows,
        title=title,
    )


def wall_clock_table(result: SystemResult, *, title: str) -> str:
    """Figure 6: per-mode average and min/max wall-clock candles."""
    rows = []
    for mode_key in result.wall_clock.modes():
        stats = result.wall_clock.stats_for(mode_key)
        rows.append(
            [
                mode_key,
                stats.count,
                stats.mean * 1e3,
                stats.minimum * 1e3,
                stats.maximum * 1e3,
            ]
        )
    return format_table(
        ["mode", "jobs", "avg wall-clock (ms)", "min (ms)", "max (ms)"],
        rows,
        title=title,
    )


def trace_table(result: SystemResult, *, title: str) -> str:
    """Figure 7: per-job execution spans, deadlines, and downgrades.

    The ``fault downgrades`` column counts the rungs a job was pushed
    down the recovery ladder by fault injection (distinct from the
    voluntary AutoDown of Section 3.4, shown in the mode column).
    """
    resilience = result.resilience
    rows = []
    for job in result.jobs:
        span = result.trace.job_span(job.job_id)
        start, end = (span if span else (None, None))
        fault_downgrades = (
            len(resilience.downgrades_for(job.job_id))
            if resilience is not None
            else 0
        )
        rows.append(
            [
                job.job_id,
                job.requested_mode.describe()
                + ("+AutoDown" if job.auto_downgraded else ""),
                None if start is None else start * 1e3,
                None if end is None else end * 1e3,
                None if job.deadline is None else job.deadline * 1e3,
                None
                if job.switch_back_time is None
                else job.switch_back_time * 1e3,
                fault_downgrades,
                "yes" if job.met_deadline else "no",
            ]
        )
    return format_table(
        [
            "job",
            "mode",
            "start (ms)",
            "end (ms)",
            "deadline (ms)",
            "switch-back (ms)",
            "fault downgrades",
            "met deadline",
        ],
        rows,
        title=title,
    )


def slo_table(result: SystemResult, *, title: str) -> str:
    """In-run SLO monitoring outcome: who violated, for how long.

    Complements the after-the-fact deadline report: a job can meet its
    deadline yet have spent most of the run projected to miss it (a
    near-miss the ``violation fraction`` column exposes), and vice
    versa a doomed job is flagged long before it fails.
    """
    if result.slo is None:
        raise ValueError(
            "result has no SLO report; run with observability enabled"
        )
    rows = []
    for job in result.slo.jobs:
        rows.append(
            [
                job.job_id,
                job.deadline * 1e3,
                job.violations,
                job.violation_fraction,
                None
                if job.last_projected is None
                or not job.last_projected < float("inf")
                else job.last_projected * 1e3,
                "-"
                if job.met_deadline is None
                else ("yes" if job.met_deadline else "no"),
            ]
        )
    return format_table(
        [
            "job",
            "deadline (ms)",
            "violations",
            "violation fraction",
            "last projected (ms)",
            "met deadline",
        ],
        rows,
        title=title,
    )


def resilience_table(result: SystemResult, *, title: str) -> str:
    """Fault-injection outcome summary for one simulation.

    Raises if the run had no fault config at all; an all-zero config
    renders a table of zeros, which is itself evidence the fault layer
    stayed inert.
    """
    resilience = result.resilience
    if resilience is None:
        raise ValueError(
            "result has no resilience report; run with a FaultConfig"
        )
    rows = [
        ["faults injected", resilience.faults_injected],
        ["jobs displaced by core faults", resilience.displacements],
        ["successful re-admissions", resilience.readmissions],
        ["re-admission attempts", resilience.readmission_attempts],
        ["mode downgrades (ladder rungs)", resilience.downgrade_count],
        ["jobs degraded to best-effort", resilience.best_effort_jobs],
        ["dispatches deferred by failures", resilience.deferred_dispatches],
        ["stealing cancelled by ECC", resilience.ecc_cancellations],
        ["invariant checks passed", resilience.invariant_checks],
    ]
    for kind in sorted(resilience.fault_counts):
        rows.append([f"  of which {kind}", resilience.fault_counts[kind]])
    return format_table(["event", "count"], rows, title=title)


def downgrade_ladder_lines(result: SystemResult) -> List[str]:
    """One line per fault-recovery downgrade, in time order."""
    if result.resilience is None:
        return []
    return [
        f"t={record.time * 1e3:9.3f} ms  job {record.job_id}: "
        f"{record.from_mode} -> {record.to_mode}  ({record.reason})"
        for record in result.resilience.downgrades
    ]


def sensitivity_table(
    points: Sequence[SensitivityPoint], *, title: str
) -> str:
    """Figure 4: the sensitivity scatter as a table."""
    rows = [
        [
            point.benchmark,
            point.declared_group,
            point.classify(),
            point.cpi_increase_7_to_1,
            point.cpi_increase_7_to_4,
        ]
        for point in points
    ]
    return format_table(
        [
            "benchmark",
            "declared group",
            "measured group",
            "CPI incr 7→1",
            "CPI incr 7→4",
        ],
        rows,
        title=title,
    )


def slack_table(points: Sequence["SlackPoint"], *, title: str) -> str:
    """Figure 8: the Elastic-slack sweep as a table.

    A mode class that rounded to zero jobs has a NaN mean wall clock;
    it renders as "-" rather than propagating a bogus number into the
    row.
    """

    def cell(value: float) -> object:
        return None if math.isnan(value) else value

    rows = [
        [
            f"{point.slack:.0%}",
            cell(point.elastic_mean_wall_clock),
            cell(point.opportunistic_mean_wall_clock),
            point.steal_transfers,
            point.deadline_hit_rate,
        ]
        for point in points
    ]
    return format_table(
        [
            "slack X",
            "elastic wall clock",
            "opportunistic wall clock",
            "steals",
            "deadline hit",
        ],
        rows,
        title=title,
    )


def shape_checks(results: Dict[str, SystemResult]) -> Dict[str, bool]:
    """Figure-5 curve *shape* invariants as named booleans.

    The qualitative claims of the paper's Figure 5 that must survive
    any seed or instruction-count choice, as opposed to the exact
    floats the golden tests pin for one seed: reserved configurations
    (everything but EqualPart) meet every deadline, no QoS
    optimisation throughputs *below* the All-Strict baseline, and
    Hybrid-2 (which layers stealing on top of Hybrid-1's mode mix)
    stays within a few percent of Hybrid-1 — stealing redistributes
    work between donors and thieves, so it can land a hair either side
    of Hybrid-1, but never far away.  Shared by the metamorphic law suite
    and the golden seed-sweep smoke so both enforce the same shapes.
    Checks whose configurations are absent from ``results`` are
    reported as ``True`` (vacuous).
    """
    tolerance = 1e-9
    checks: Dict[str, bool] = {}
    checks["makespans_positive"] = all(
        result.makespan_cycles > 0 for result in results.values()
    )
    checks["reserved_hit_rate_one"] = all(
        result.deadline_report.hit_rate == 1.0
        for name, result in results.items()
        if name != "EqualPart" and result.deadline_report.considered > 0
    )
    if "All-Strict" in results:
        normalised = normalised_throughputs(results)
        checks["optimisations_at_least_all_strict"] = all(
            value >= 1.0 - tolerance for value in normalised.values()
        )
        if "Hybrid-1" in normalised and "Hybrid-2" in normalised:
            checks["hybrid2_close_to_hybrid1"] = (
                abs(normalised["Hybrid-2"] - normalised["Hybrid-1"])
                <= 0.05 * normalised["Hybrid-1"]
            )
    return checks


def miss_cache_lines() -> List[str]:
    """Miss-curve store accounting for bench logs and CLI footers.

    Reports this process's hit/miss/store counters against the
    on-disk store (:mod:`repro.analysis.misscache`).  Empty when the
    store is disabled and was never consulted — callers can append the
    lines unconditionally.
    """
    from repro.analysis import misscache

    counters = misscache.stats()
    consulted = counters["hits"] + counters["misses"]
    if consulted == 0:
        return []
    hit_rate = counters["hits"] / consulted
    line = (
        f"miss-curve cache: {counters['hits']}/{consulted} curve lookups "
        f"served from disk ({hit_rate:.0%}), {counters['stores']} stored, "
        f"{misscache.entry_count()} entries on disk"
    )
    if counters.get("quarantined"):
        line += f", {counters['quarantined']} corrupt entries quarantined"
    return [line]


def observability_lines() -> List[str]:
    """Metrics/events footer for CLI runs with observability enabled.

    Empty when the installed observer is the null observer (the
    default), so callers can append the lines unconditionally — same
    contract as :func:`miss_cache_lines`.
    """
    from repro.obs import get_observer

    observer = get_observer()
    if not observer.enabled:
        return []
    series, counted = observer.metrics.totals()
    lines = [
        f"observability: {series} metric series "
        f"({counted:g} counter increments), "
        f"{len(observer.events.records)} events recorded",
    ]
    lines.extend(f"  {line}" for line in observer.profiler.lines())
    return lines

