"""QoS target specification (Section 3.2).

The paper's first finding: to *fully* provide QoS a target must be
**convertible** — expressible in units of computation capacity that the
CMP can compare against its available capacity.  Resource Usage Metrics
(RUM: cores, cache ways, bandwidth) are convertible by construction;
Resource Performance Metrics (RPM: miss rates) and Overall Performance
Metrics (OPM: IPC) are not — the CMP cannot trivially tell how many
resources a given IPC needs, and some values are outright unsatisfiable.

This module provides the RUM-based :class:`QoSTarget` used by the
admission controller, its :class:`ResourceVector` and
:class:`TimeslotRequest` parts, and the preset targets.  ``repro fig1``
makes the case against IPC targets from a profiled curve and the CPI
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.modes import ExecutionMode
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class ResourceVector:
    """A RUM capacity vector: cores, shared-cache ways, and bandwidth.

    The paper focuses QoS specification on cores and cache ways
    (Section 3.2) and names the off-chip bandwidth rate as the next
    resource a complete target would include.  ``bandwidth_share`` is
    that extension: a fraction of the memory bus, reservable through
    the same supply/demand arithmetic and enforceable by the
    fair-queuing bus in :mod:`repro.mem.fair_queue`.  It defaults to
    zero so the paper's two-resource experiments are unchanged.
    """

    cores: int = 0
    cache_ways: int = 0
    bandwidth_share: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("cores", self.cores)
        check_non_negative("cache_ways", self.cache_ways)
        check_fraction("bandwidth_share", self.bandwidth_share)

    def fits_within(self, available: "ResourceVector") -> bool:
        """Convertibility in action: a trivial demand-vs-supply compare."""
        return (
            self.cores <= available.cores
            and self.cache_ways <= available.cache_ways
            and self.bandwidth_share <= available.bandwidth_share + 1e-12
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cores + other.cores,
            self.cache_ways + other.cache_ways,
            min(1.0, self.bandwidth_share + other.bandwidth_share),
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        cores = self.cores - other.cores
        ways = self.cache_ways - other.cache_ways
        bandwidth = self.bandwidth_share - other.bandwidth_share
        if cores < 0 or ways < 0 or bandwidth < -1e-12:
            raise ValueError(
                f"subtraction would go negative: {self} - {other}"
            )
        return ResourceVector(cores, ways, max(0.0, bandwidth))

    def is_zero(self) -> bool:
        """True when the vector requests nothing."""
        return (
            self.cores == 0
            and self.cache_ways == 0
            and self.bandwidth_share == 0.0
        )

    def __str__(self) -> str:
        text = f"{self.cores} core(s) + {self.cache_ways} way(s)"
        if self.bandwidth_share > 0:
            text += f" + {self.bandwidth_share:.0%} bus"
        return text


@dataclass(frozen=True)
class TimeslotRequest:
    """Optional timeslot resource: max wall-clock time and a deadline.

    ``max_wall_clock`` bounds how long the job runs *given all its
    requested resources* (a batch-system concept, not a WCET — the job
    may be terminated past it).  ``deadline`` is the latest acceptable
    completion time, absolute.  Long-running jobs may omit the deadline,
    in which case resources are held for the job's whole lifetime.
    """

    max_wall_clock: float
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("max_wall_clock", self.max_wall_clock)
        if self.deadline is not None:
            check_non_negative("deadline", self.deadline)

    def slack_at(self, arrival: float) -> Optional[float]:
        """Scheduling slack ``(td - ta) - tw``; ``None`` without a deadline."""
        if self.deadline is None:
            return None
        return (self.deadline - arrival) - self.max_wall_clock


@dataclass(frozen=True)
class QoSTarget:
    """A complete, convertible QoS target: RUM vector + timeslot + mode."""

    resources: ResourceVector
    timeslot: Optional[TimeslotRequest] = None
    mode: ExecutionMode = ExecutionMode.strict()

    def __post_init__(self) -> None:
        if self.resources.is_zero():
            raise ValueError("a QoS target must request some resources")

    @property
    def is_convertible(self) -> bool:
        """RUM targets are convertible by definition (Definition 1)."""
        return True

    def reservation_duration(self) -> Optional[float]:
        """Length of the reservation this target needs, mode-adjusted.

        ``None`` for targets without a timeslot (lifetime reservation);
        0.0 for Opportunistic jobs (no reservation).
        """
        if self.timeslot is None:
            return None
        return self.mode.reservation_duration(self.timeslot.max_wall_clock)


#: Preset RUM targets (Section 3.2 suggests small/medium/large presets,
#: mirroring batch-job systems).  Presets simplify user choice but
#: exacerbate overspecification — the fragmentation the paper's
#: execution modes then recover.
PRESET_TARGETS: Dict[str, ResourceVector] = {
    "small": ResourceVector(cores=1, cache_ways=3),
    "medium": ResourceVector(cores=1, cache_ways=7),
    "large": ResourceVector(cores=2, cache_ways=12),
}

