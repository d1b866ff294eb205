"""Deterministic fault models: what goes wrong, and when.

The QoS framework's central promise is that reserved jobs keep their
guarantees *under adverse conditions* — the admission controller and
mode ladder exist precisely so the system degrades gracefully instead
of collapsing (Sections 3.3–3.4 of the paper).  This module provides
the adversity: a seed-driven :class:`FaultSchedule` of core failures,
core stalls, DRAM bandwidth brown-outs, and duplicate-tag-array ECC
upsets.

Determinism is the design constraint.  Fault inter-arrival times and
targets are drawn from :class:`~repro.util.rng.DeterministicRng`
streams derived from the fault seed alone (one stream per fault kind),
so the timeline is byte-identical across runs with the same seed and
completely independent of the simulation's own randomness — enabling
the schedule to be regenerated exactly on checkpoint resume, and
compared via :meth:`FaultSchedule.digest` in regression tests.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.util.rng import DeterministicRng
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class FaultKind(enum.Enum):
    """The fault families the injector understands."""

    CORE_FAILURE = "core-failure"
    CORE_STALL = "core-stall"
    BANDWIDTH_DEGRADATION = "bandwidth-degradation"
    ECC_TAG_ERROR = "ecc-tag-error"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` selects the victim deterministically: a core index for
    core faults, and a selection index (reduced modulo the candidate
    count at injection time) for ECC upsets.  ``duration`` is how long
    the fault persists (repair time, stall length, brown-out window);
    ``magnitude`` is kind-specific (the bandwidth derate factor).
    """

    time: float
    kind: FaultKind
    target: int = 0
    duration: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        check_non_negative("target", self.target)
        check_non_negative("duration", self.duration)
        check_probability("magnitude", self.magnitude)

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        extra = ""
        if self.kind in (FaultKind.CORE_FAILURE, FaultKind.CORE_STALL):
            extra = f" core {self.target}, {self.duration * 1e3:.2f} ms"
        elif self.kind is FaultKind.BANDWIDTH_DEGRADATION:
            extra = (
                f" x{self.magnitude:.2f} peak for "
                f"{self.duration * 1e3:.2f} ms"
            )
        return f"t={self.time * 1e3:.3f} ms {self.kind.value}{extra}"

    def to_dict(self) -> dict:
        """JSON-friendly representation (checkpoint and report use)."""
        return {
            "time": self.time,
            "kind": self.kind.value,
            "target": self.target,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }


#: How long a core stall keeps its core from retiring (seconds).
CORE_STALL_DURATION = 0.005
#: The share of the bus peak left during a brown-out; positive, since
#: a severed bus would deadlock every Opportunistic job.
BANDWIDTH_DERATE_FACTOR = 0.5
#: How long a brown-out lasts (seconds).
BANDWIDTH_DEGRADATION_DURATION = 0.02


@dataclass(frozen=True)
class FaultConfig:
    """Rates of the fault process and its repair time and horizon.

    Rates are mean fault counts per simulated second (the fault process
    is Poisson per kind, matching the arrival modelling elsewhere in
    the reproduction).  All rates default to zero: a default-constructed
    config injects nothing, and a simulation configured with it is
    byte-identical to one with no fault config at all.  The stall and
    brown-out shapes are this module's constants; the recovery policy
    is :mod:`repro.faults.resilience`'s.
    """

    seed: int = 7
    # Core failures: the core goes down, its reserved job is displaced
    # and must be re-admitted; repairs arrive after ``core_repair_time``.
    core_failure_rate: float = 0.0
    core_repair_time: float = 0.05
    # Core stalls: transient — jobs on the core stop retiring for
    # CORE_STALL_DURATION, keeping their reservations (they may then
    # overrun).
    core_stall_rate: float = 0.0
    # Bandwidth brown-outs: the bus peak is derated by
    # BANDWIDTH_DERATE_FACTOR for BANDWIDTH_DEGRADATION_DURATION,
    # inflating Opportunistic miss penalties via the M/M/1 bus.
    bandwidth_degradation_rate: float = 0.0
    # ECC upsets in the duplicate (shadow) tag arrays: the stealing
    # feedback becomes untrustworthy, forcing a conservative cancel.
    ecc_error_rate: float = 0.0
    # Fault-process horizon in simulated seconds; ``None`` lets the
    # simulator estimate one from the workload's wall-clock scale.
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        check_non_negative("core_failure_rate", self.core_failure_rate)
        check_positive("core_repair_time", self.core_repair_time)
        check_non_negative("core_stall_rate", self.core_stall_rate)
        check_non_negative(
            "bandwidth_degradation_rate", self.bandwidth_degradation_rate
        )
        check_non_negative("ecc_error_rate", self.ecc_error_rate)
        if self.horizon is not None:
            check_positive("horizon", self.horizon)

    @property
    def has_any_faults(self) -> bool:
        """Whether any fault process has a non-zero rate."""
        return any(
            rate > 0.0
            for rate in (
                self.core_failure_rate,
                self.core_stall_rate,
                self.bandwidth_degradation_rate,
                self.ecc_error_rate,
            )
        )


class FaultSchedule:
    """An immutable, time-ordered fault timeline.

    Build one with :meth:`generate` (seeded Poisson processes) or
    directly from hand-written :class:`FaultEvent` lists in tests.
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.kind.value, e.target))
        )

    @staticmethod
    def generate(
        config: FaultConfig, *, horizon: float, num_cores: int
    ) -> "FaultSchedule":
        """Draw the fault timeline over ``[0, horizon)``.

        Each fault kind uses its own RNG stream derived from
        ``(config.seed, kind)``, so enabling one kind never perturbs
        another kind's draws — the same stream-independence property
        the rest of the reproduction relies on.
        """
        check_positive("horizon", horizon)
        check_positive("num_cores", num_cores)
        # (kind, rate, duration, magnitude) of each fault process.
        specs = (
            (
                FaultKind.CORE_FAILURE,
                config.core_failure_rate,
                config.core_repair_time,
                1.0,
            ),
            (
                FaultKind.CORE_STALL,
                config.core_stall_rate,
                CORE_STALL_DURATION,
                1.0,
            ),
            (
                FaultKind.BANDWIDTH_DEGRADATION,
                config.bandwidth_degradation_rate,
                BANDWIDTH_DEGRADATION_DURATION,
                BANDWIDTH_DERATE_FACTOR,
            ),
            (FaultKind.ECC_TAG_ERROR, config.ecc_error_rate, 0.0, 1.0),
        )
        events: List[FaultEvent] = []
        for kind, rate, duration, magnitude in specs:
            if rate <= 0.0:
                continue
            stream = DeterministicRng(config.seed, f"faults/{kind.value}")
            at = stream.exponential(1.0 / rate)
            while at < horizon:
                events.append(
                    FaultEvent(
                        time=at,
                        kind=kind,
                        target=stream.randint(0, num_cores - 1),
                        duration=duration,
                        magnitude=magnitude,
                    )
                )
                at += stream.exponential(1.0 / rate)
        return FaultSchedule(events)

    # -- container protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The ordered fault events."""
        return self._events

    def counts_by_kind(self) -> dict:
        """Number of scheduled events per fault kind value."""
        counts: dict = {}
        for event in self._events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

    def events_between(self, start: float, end: float) -> List[FaultEvent]:
        """Events with ``start <= time < end``."""
        return [e for e in self._events if start <= e.time < end]

    def to_dicts(self) -> List[dict]:
        """JSON-friendly timeline (report/checkpoint serialisation)."""
        return [event.to_dict() for event in self._events]

    def digest(self) -> str:
        """SHA-256 over the timeline — the determinism fingerprint.

        Two schedules with the same digest injected the byte-identical
        fault sequence; regression tests pin this instead of comparing
        event lists element-wise.
        """
        payload = repr(self.to_dicts()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule({len(self._events)} events, "
            f"digest={self.digest()[:12]})"
        )
