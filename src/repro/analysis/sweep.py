"""Resumable sharded sweep orchestration over the results store.

The paper's evaluation is a matrix of (workload, configuration,
machine geometry) points; this module runs such a matrix once and
makes every rerun cheap:

- a **sweep file** (versioned JSON) declares the points, either as an
  explicit list or as a cartesian ``matrix`` of axes,
- every point gets a **scenario digest** — SHA-256 over the canonical
  JSON of the point's payload (seed included), a source fingerprint of
  the simulation stack, and the artifact schema version — keying its
  :class:`~repro.sim.system.ResultArtifact` in the content-addressed
  :class:`~repro.analysis.store.ResultStore`,
- :func:`run_sweep` shards the not-yet-stored points across one
  ``parallel_map`` call; each worker stores its artifact atomically
  the moment the point completes, so **resume after interruption is
  just rerun**: points already in the store are served from disk and
  only the missing ones execute,
- the store is the one progress record: :func:`sweep_status` (``repro
  sweep status``) lists the done and missing points during a run and
  after a kill,
- the **sweep report** is built purely from the spec and the stored
  artifacts (no timing, no hit counts), so an interrupted-then-resumed
  sweep produces a report byte-identical to an uninterrupted one,
- :func:`diff_reports` compares two sweep reports with
  :func:`repro.obs.diff.diff_snapshots` — the cross-run regression
  gate ``repro sweep diff`` and ``repro sweep run --baseline`` expose.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import misscache
from repro.analysis.parallel import current_shared, parallel_map
from repro.analysis.runner import run_point
from repro.analysis.store import ResultStore, content_digest, modules_fingerprint
from repro.obs.diff import DiffReport, diff_snapshots
from repro.util.atomicio import write_atomic_text
from repro.util.validation import check_power_of_two

#: Version of the sweep *file* schema (the user-authored input).
SWEEP_FILE_VERSION = 1

#: Version of the sweep *report* schema (the orchestrator's output).
SWEEP_REPORT_VERSION = 1

#: Modules whose source determines a sweep point's artifact: the
#: curve-producing modules the miss-curve store fingerprints, plus every
#: module whose code runs while a point is simulated and can change what
#: is stored (the artifact carries the metrics snapshot and SLO report).
#: Editing any of them changes every scenario digest, so stale artifacts
#: are never served for new code.  The modules that run but cannot
#: change an artifact are listed, with the reason, in
#: ``tests/analysis/test_sweep.py``.
_FINGERPRINT_MODULES = misscache._FINGERPRINT_MODULES + (
    "repro.analysis.runner",
    "repro.core.admission",
    "repro.core.config",
    "repro.core.job",
    "repro.core.metrics",
    "repro.core.modes",
    "repro.core.spec",
    "repro.core.stealing",
    "repro.cpu.cpi",
    "repro.faults.resilience",
    "repro.mem.bandwidth",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.slo",
    "repro.sim.config",
    "repro.sim.engine",
    "repro.sim.equalpart",
    "repro.sim.system",
    "repro.sim.tracing",
    "repro.util.stats",
    "repro.workloads.arrival",
    "repro.workloads.composer",
)


def code_fingerprint() -> str:
    """SHA-256 over the source of every result-determining module."""
    return modules_fingerprint(_FINGERPRINT_MODULES)


# -- sweep points and specs --------------------------------------------------


def _check_integer(
    name: str, value: object, *, minimum: Optional[int] = None
) -> None:
    """Require an integer (a bool is not one) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class SweepPoint:
    """One scenario: a workload under a configuration, plus knobs.

    The optional fields override the paper's defaults — ``l2_ways``
    scales the shared L2 (128 KB/way), and the ``instructions`` /
    ``profile_*`` knobs shrink the run for smoke sweeps.  ``None``
    means "paper default", and is digest-distinct from an explicit
    value.
    """

    workload: str
    configuration: str
    count: int = 10
    seed: int = 42
    l2_ways: Optional[int] = None
    instructions_per_job: Optional[int] = None
    profile_num_sets: Optional[int] = None
    profile_accesses: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.core.config import CONFIGURATIONS
        from repro.workloads.benchmarks import BENCHMARKS
        from repro.workloads.composer import REQUESTED_WAYS

        # A point is checked where it enters, so a bad sweep file fails
        # at load time with the field's name, not inside a run.
        for name in ("workload", "configuration"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(
                    f"{name} must be a string, got {getattr(self, name)!r}"
                )
        valid_workloads = set(BENCHMARKS) | {"Mix-1", "Mix-2"}
        if self.workload not in valid_workloads:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{sorted(valid_workloads)}"
            )
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {self.configuration!r}; expected "
                f"one of {sorted(CONFIGURATIONS)}"
            )
        _check_integer("count", self.count, minimum=1)
        _check_integer("seed", self.seed)
        # None means the paper's default.  Every job of a sweep workload
        # requests REQUESTED_WAYS ways, so a smaller L2 admits nothing.
        for name, minimum in (
            ("l2_ways", REQUESTED_WAYS),
            ("instructions_per_job", 1),
            ("profile_num_sets", 1),
            ("profile_accesses", 1),
        ):
            if getattr(self, name) is not None:
                _check_integer(name, getattr(self, name), minimum=minimum)
        if self.profile_num_sets is not None:
            check_power_of_two("profile_num_sets", self.profile_num_sets)

    def payload(self) -> Dict[str, object]:
        """Canonical scenario payload (every field, defaults included)."""
        return dataclasses.asdict(self)

    def label(self) -> str:
        """Stable human-readable identity, unique within a sweep.

        Doubles as the metric-series prefix in sweep diffs, so it must
        be a pure function of the payload.
        """
        parts = [self.workload, self.configuration]
        parts.append(f"count={self.count}")
        parts.append(f"seed={self.seed}")
        for field_name in (
            "l2_ways",
            "instructions_per_job",
            "profile_num_sets",
            "profile_accesses",
        ):
            value = getattr(self, field_name)
            if value is not None:
                parts.append(f"{field_name}={value}")
        return "/".join(parts)


def point_digest(point: SweepPoint) -> str:
    """The scenario digest keying ``point``'s artifact in the store."""
    from repro.sim.system import ARTIFACT_VERSION

    return content_digest(
        {
            "scenario": point.payload(),
            "code": code_fingerprint(),
            "artifact_version": ARTIFACT_VERSION,
        }
    )


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully expanded list of sweep points."""

    name: str
    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.name or not all(
            ch.isalnum() or ch in "-_." for ch in self.name
        ):
            raise ValueError(
                f"sweep name must be a filesystem-safe slug, got "
                f"{self.name!r}"
            )
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        labels = [point.label() for point in self.points]
        duplicates = sorted(
            {label for label in labels if labels.count(label) > 1}
        )
        if duplicates:
            raise ValueError(f"duplicate sweep point(s): {duplicates}")


_POINT_FIELDS = {
    field.name for field in dataclasses.fields(SweepPoint)
}


def _point_from_mapping(mapping: Dict[str, object]) -> SweepPoint:
    unknown = sorted(set(mapping) - _POINT_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown sweep point field(s) {unknown}; expected a subset "
            f"of {sorted(_POINT_FIELDS)}"
        )
    return SweepPoint(**mapping)  # type: ignore[arg-type]


def sweep_from_dict(payload: dict) -> SweepSpec:
    """Parse a sweep file payload into a fully expanded spec.

    Two shapes, both under ``{"version": 1, "name": ...}``:

    - ``"points"``: an explicit list of point mappings, or
    - ``"matrix"``: a mapping of point-field name to a list of values;
      the cartesian product (axes in sorted key order, values in
      listed order) becomes the point list.

    A ``"defaults"`` mapping merges under every point either way.
    """
    version = payload.get("version")
    if version != SWEEP_FILE_VERSION:
        raise ValueError(
            f"unsupported sweep file version {version!r} "
            f"(expected {SWEEP_FILE_VERSION})"
        )
    name = payload.get("name")
    if not isinstance(name, str):
        raise ValueError("sweep file needs a string 'name'")
    defaults = payload.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("'defaults' must be a mapping")

    has_points = "points" in payload
    has_matrix = "matrix" in payload
    if has_points == has_matrix:
        raise ValueError(
            "sweep file needs exactly one of 'points' or 'matrix'"
        )

    points: List[SweepPoint] = []
    if has_points:
        if not isinstance(payload["points"], list):
            raise ValueError("'points' must be a list")
        for entry in payload["points"]:
            if not isinstance(entry, dict):
                raise ValueError(f"point entries must be mappings: {entry!r}")
            points.append(_point_from_mapping({**defaults, **entry}))
    else:
        matrix = payload["matrix"]
        if not isinstance(matrix, dict) or not matrix:
            raise ValueError("'matrix' must be a non-empty mapping")
        for axis, values in matrix.items():
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"matrix axis {axis!r} must list at least one value"
                )
        axes = sorted(matrix)
        for combo in itertools.product(*(matrix[axis] for axis in axes)):
            entry = dict(zip(axes, combo))
            points.append(_point_from_mapping({**defaults, **entry}))
    return SweepSpec(name=name, points=tuple(points))


def load_sweep_file(path) -> SweepSpec:
    """Read and parse one sweep file."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ValueError(f"unparseable sweep file {path}: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"sweep file {path} must hold a JSON object")
    return sweep_from_dict(payload)


# -- running one point -------------------------------------------------------


def _point_worker(index: int) -> Dict[str, object]:
    """Run one sweep point into the store (module-level for pickling).

    Re-checks the store before simulating — the parent's partition can
    be stale after a crash-resume race — and stores the artifact
    *immediately* on completion.  That per-point atomic write is what
    makes a SIGKILL'd sweep resumable: every finished point survives,
    whatever happened to the process afterwards.
    """
    points, store_dir = current_shared()
    point = points[index]
    store = ResultStore(store_dir)
    digest = point_digest(point)
    if store.load_artifact(digest) is not None:
        return {"index": index, "digest": digest, "executed": False}
    artifact = run_point(point)
    store.store_artifact(digest, artifact)
    return {"index": index, "digest": digest, "executed": True}


# -- orchestration -----------------------------------------------------------


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_sweep` call did."""

    spec: SweepSpec
    store_dir: Path
    report_path: Path
    report: dict
    served_from_store: int
    executed: int


def report_path_for(store: ResultStore, name: str) -> Path:
    """Where the named sweep's report lives inside the store."""
    return store.directory() / "sweeps" / f"{name}.json"


def build_report(spec: SweepSpec, store: ResultStore) -> dict:
    """Assemble the sweep report purely from spec + stored artifacts.

    Nothing run-varying (timing, hit counts, worker layout) appears
    here — the report of a resumed sweep must be byte-identical to an
    uninterrupted run's.
    """
    points = []
    for point in spec.points:
        digest = point_digest(point)
        artifact = store.load_artifact(digest)
        if artifact is None:
            raise RuntimeError(
                f"sweep point {point.label()!r} has no stored artifact "
                f"({digest}); run the sweep to completion first"
            )
        points.append(
            {
                "label": point.label(),
                "scenario": point.payload(),
                "digest": digest,
                "fingerprint": artifact.counter_fingerprint(),
                "figures_of_merit": dict(artifact.figures_of_merit),
            }
        )
    return {
        "version": SWEEP_REPORT_VERSION,
        "sweep": spec.name,
        "points": points,
    }


def run_sweep(
    spec: SweepSpec,
    *,
    store_dir=None,
    jobs: Optional[int] = 1,
) -> SweepOutcome:
    """Run every point of ``spec`` not already in the store.

    Points whose scenario digest already has a readable artifact are
    served from the store (a corrupt artifact quarantines and reruns);
    the rest are sharded across ``jobs`` workers, each landing its
    artifact atomically on completion.  Finishes by writing the sweep
    report to ``<store>/sweeps/<name>.json``.  The store is also the
    progress record: :func:`sweep_status` reads it during a run and
    after a kill.
    """
    store = ResultStore(store_dir)
    pending: List[int] = []
    served = 0
    for index, point in enumerate(spec.points):
        if store.load_artifact(point_digest(point)) is not None:
            served += 1
        else:
            pending.append(index)
    executed = 0
    if pending:
        outcomes = parallel_map(
            _point_worker,
            pending,
            jobs=jobs,
            shared=(tuple(spec.points), str(store.directory())),
        )
        for outcome in outcomes:
            if outcome["executed"]:
                executed += 1
            else:
                served += 1
    report = build_report(spec, store)
    report_path = report_path_for(store, spec.name)
    write_atomic_text(
        report_path,
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n",
    )
    return SweepOutcome(
        spec=spec,
        store_dir=store.directory(),
        report_path=report_path,
        report=report,
        served_from_store=served,
        executed=executed,
    )


@dataclass(frozen=True)
class SweepStatus:
    """Read-only progress view of a sweep against a store."""

    spec: SweepSpec
    done: Tuple[str, ...]  # labels with a stored artifact that decodes
    missing: Tuple[str, ...]  # labels still to run
    corrupt: Tuple[str, ...]  # missing labels whose entry does not decode


def sweep_status(spec: SweepSpec, *, store_dir=None) -> SweepStatus:
    """Which points are in the store, each decoded as a run would.

    Read-only: an entry that does not decode counts as missing (the
    next run re-executes it) and is left where it is.
    """
    store = ResultStore(store_dir)
    done: List[str] = []
    missing: List[str] = []
    corrupt: List[str] = []
    for point in spec.points:
        key = point_digest(point)
        if store.has_artifact(key):
            done.append(point.label())
        else:
            missing.append(point.label())
            if store.contains(key):
                corrupt.append(point.label())
    return SweepStatus(
        spec=spec,
        done=tuple(done),
        missing=tuple(missing),
        corrupt=tuple(corrupt),
    )


# -- cross-run diffing -------------------------------------------------------


def report_metric_records(report: dict) -> List[dict]:
    """Flatten a sweep report into obs metrics-snapshot records.

    Each point contributes one gauge per figure of merit, named
    ``<label>.<figure>``, which lets :func:`repro.obs.diff.diff_snapshots`
    do the comparison: points present on only one side surface as
    added/removed series, moved numbers as changed ones.
    """
    records: List[dict] = []
    for point in report["points"]:
        label = point["label"]
        for key in sorted(point["figures_of_merit"]):
            records.append(
                {
                    "type": "gauge",
                    "name": f"{label}.{key}",
                    "value": float(point["figures_of_merit"][key]),
                }
            )
    return records


def diff_reports(
    baseline: dict,
    current: dict,
    *,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> DiffReport:
    """Regression-compare two sweep reports on their figures of merit."""
    return diff_snapshots(
        report_metric_records(baseline),
        report_metric_records(current),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


def load_report(reference, *, store_dir=None) -> dict:
    """Resolve a sweep report by path or by name within the store.

    A report :func:`report_metric_records` cannot read — ``points`` not
    a list of objects, each with a string ``label`` and a
    ``figures_of_merit`` object of numbers — raises ``ValueError``
    naming the field.
    """
    path = Path(reference)
    if not path.is_file():
        named = report_path_for(ResultStore(store_dir), str(reference))
        if named.is_file():
            path = named
        else:
            raise FileNotFoundError(
                f"no sweep report at {reference!r} nor a sweep named "
                f"{reference!r} in the store ({named})"
            )
    payload = json.loads(path.read_text())
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != SWEEP_REPORT_VERSION:
        raise ValueError(
            f"unsupported sweep report version {version!r} in {path} "
            f"(expected {SWEEP_REPORT_VERSION})"
        )
    points = payload.get("points")
    if not isinstance(points, list):
        raise ValueError(f"sweep report {path}: 'points' must be a list")
    for index, point in enumerate(points):
        field = f"sweep report {path}: points[{index}]"
        if not isinstance(point, dict):
            raise ValueError(f"{field} must be an object")
        if not isinstance(point.get("label"), str):
            raise ValueError(f"{field}.label must be a string")
        figures = point.get("figures_of_merit")
        if not isinstance(figures, dict) or not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in figures.values()
        ):
            raise ValueError(
                f"{field}.figures_of_merit must be an object of numbers"
            )
    return payload
