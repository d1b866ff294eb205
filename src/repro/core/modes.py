"""QoS execution modes and mode downgrade (Sections 3.3–3.4).

Three execution modes specify how strictly a job's QoS target must be
honoured:

- **Strict** — requested resources and timeslot are reserved exactly.
- **Elastic(X)** — deadline is rigid but throughput may degrade by up
  to X% relative to Strict; the system may steal excess resources, and
  in exchange the job's reservation is stretched to ``tw * (1 + X)``.
- **Opportunistic** — no reservation at all; runs on whatever resources
  are idle.

Two modes are *interchangeable* for a job when both still guarantee
completion by the job's deadline.  A Strict job arriving at ``ta`` with
deadline ``td`` and maximum wall-clock time ``tw`` has slack
``(td - ta) - tw``; it can be manually downgraded to
``Elastic(((td - ta) - tw) / tw)``, or automatically downgraded to run
Opportunistically until ``td - tw``, at which point it must switch back
to Strict (with its timeslot still reserved) to make the deadline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cache.partitioned import PartitionClass
from repro.obs import get_observer
from repro.util.validation import check_non_negative, check_positive


class ModeKind(enum.Enum):
    """The three execution-mode families."""

    STRICT = "strict"
    ELASTIC = "elastic"
    OPPORTUNISTIC = "opportunistic"


@dataclass(frozen=True)
class ExecutionMode:
    """An execution mode, carrying the Elastic slack when applicable.

    ``slack`` is the Elastic X as a fraction (Elastic(5%) has
    ``slack == 0.05``); it is zero for Strict and meaningless (kept
    zero) for Opportunistic.
    """

    kind: ModeKind
    slack: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("slack", self.slack)
        if self.kind is not ModeKind.ELASTIC and self.slack != 0.0:
            raise ValueError(
                f"slack is only meaningful for Elastic modes, got "
                f"{self.kind.value} with slack {self.slack}"
            )
        if self.kind is ModeKind.ELASTIC and self.slack <= 0.0:
            raise ValueError("Elastic mode requires a positive slack")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def strict() -> "ExecutionMode":
        """The Strict mode."""
        return ExecutionMode(ModeKind.STRICT)

    @staticmethod
    def elastic(slack: float) -> "ExecutionMode":
        """Elastic(X) with ``slack`` = X as a fraction (0.05 for 5%)."""
        check_positive("slack", slack)
        return ExecutionMode(ModeKind.ELASTIC, slack)

    @staticmethod
    def opportunistic() -> "ExecutionMode":
        """The Opportunistic mode."""
        return ExecutionMode(ModeKind.OPPORTUNISTIC)

    # -- properties -----------------------------------------------------------

    @property
    def allows_stealing(self) -> bool:
        """Only Elastic jobs donate capacity to resource stealing."""
        return self.kind is ModeKind.ELASTIC

    @property
    def partition_class(self) -> PartitionClass:
        """Victim-selection priority class in the partitioned cache."""
        if self.kind is ModeKind.OPPORTUNISTIC:
            return PartitionClass.BEST_EFFORT
        return PartitionClass.RESERVED

    @property
    def throughput_floor(self) -> float:
        """Guaranteed fraction of the job's Strict throughput.

        The QoS contract each mode makes about the job's CPI target:
        Strict promises full throughput (floor 1.0), Elastic(X) may run
        up to X% slower (floor ``1 / (1 + X)`` — the reservation
        stretch of Section 3.4 read as a rate), and Opportunistic
        promises nothing (floor 0.0).  Walking the downgrade ladder
        must never *raise* this floor — a downgrade that demanded more
        throughput than the mode it replaced would be an upgrade in
        disguise — which :mod:`repro.verify.laws` checks as a
        metamorphic law.
        """
        if self.kind is ModeKind.STRICT:
            return 1.0
        if self.kind is ModeKind.ELASTIC:
            return 1.0 / (1.0 + self.slack)
        return 0.0

    @property
    def guarantee_rank(self) -> int:
        """Position on the guarantee ladder (0 = Strict, 2 = Opportunistic).

        Strictly increases along any legal downgrade path; used by the
        verification laws to assert the ladder is monotone.
        """
        if self.kind is ModeKind.STRICT:
            return 0
        if self.kind is ModeKind.ELASTIC:
            return 1
        return 2

    def reservation_duration(self, max_wall_clock: float) -> float:
        """How long the requested resources must be reserved.

        Elastic(X) jobs may be slowed by up to X%, so their reservation
        stretches to ``tw * (1 + X)`` (Section 3.4).  Opportunistic jobs
        reserve nothing, expressed as a zero-length reservation.
        """
        check_positive("max_wall_clock", max_wall_clock)
        if self.kind is ModeKind.STRICT:
            return max_wall_clock
        if self.kind is ModeKind.ELASTIC:
            return max_wall_clock * (1.0 + self.slack)
        return 0.0

    def describe(self) -> str:
        """Human-readable name, e.g. ``Elastic(5%)``."""
        if self.kind is ModeKind.ELASTIC:
            return f"Elastic({self.slack:.0%})"
        return self.kind.value.capitalize()


# -----------------------------------------------------------------------------
# Mode downgrade (Section 3.3, "automatic mode downgrade" paragraph)
# -----------------------------------------------------------------------------


def time_slack(arrival: float, deadline: float, max_wall_clock: float) -> float:
    """The job's scheduling slack ``(td - ta) - tw``.

    Negative slack means even an immediately-started Strict run cannot
    make the deadline.
    """
    check_positive("max_wall_clock", max_wall_clock)
    return (deadline - arrival) - max_wall_clock


def max_elastic_slack(
    arrival: float, deadline: float, max_wall_clock: float
) -> float:
    """Largest Elastic X interchangeable with Strict for this job.

    ``((td - ta) - tw) / tw``: stretching the run by this factor still
    completes exactly at the deadline.  Returns 0.0 when there is no
    slack (the job must stay Strict).
    """
    slack = time_slack(arrival, deadline, max_wall_clock)
    return max(0.0, slack / max_wall_clock)


def downgrade_to_elastic(
    arrival: float, deadline: float, max_wall_clock: float
) -> Optional[ExecutionMode]:
    """Interchangeable Elastic mode for a Strict job, or ``None``.

    ``None`` when the job has no time slack at all — Elastic(0) is just
    Strict.
    """
    slack = max_elastic_slack(arrival, deadline, max_wall_clock)
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "modes.downgrade_to_elastic",
            feasible=slack > 0.0,
        ).inc()
    if slack <= 0.0:
        return None
    return ExecutionMode.elastic(slack)


def opportunistic_window(
    arrival: float, deadline: float, max_wall_clock: float
) -> Optional[float]:
    """Latest time an auto-downgraded job may run Opportunistically.

    A Strict job can be automatically downgraded to Opportunistic until
    ``td - tw``; at that instant it must switch back to Strict (in its
    reserved timeslot) to guarantee the deadline.  Returns ``None`` when
    there is no slack, i.e. the job must start Strict immediately.
    """
    slack = time_slack(arrival, deadline, max_wall_clock)
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "modes.opportunistic_window",
            feasible=slack > 0.0,
        ).inc()
    if slack <= 0.0:
        return None
    return deadline - max_wall_clock


def is_interchangeable(
    old: ExecutionMode,
    new: ExecutionMode,
    *,
    arrival: float,
    deadline: float,
    max_wall_clock: float,
) -> bool:
    """Whether downgrading ``old`` to ``new`` still guarantees the deadline.

    Definition from Section 3.3: interchangeable modes guarantee
    completion by the same deadline (throughput variation is assumed
    tolerable).  Upgrades (e.g. Opportunistic to Strict) are always
    deadline-safe and therefore interchangeable in this sense.
    """
    slack = time_slack(arrival, deadline, max_wall_clock)
    if slack < 0.0:
        # The deadline is already unreachable; no mode guarantees it.
        return False
    if new.kind is ModeKind.STRICT:
        return True
    if new.kind is ModeKind.ELASTIC:
        # Stretching by X must still fit before the deadline:
        # tw * (1 + X) <= td - ta, checked in slack space (X against
        # ((td - ta) - tw) / tw) rather than by re-multiplying the
        # duration — the multiplied form can round up past the deadline
        # for the boundary mode downgrade_to_elastic itself constructs,
        # misclassifying the paper's own maximal downgrade.
        return new.slack <= max_elastic_slack(arrival, deadline, max_wall_clock)
    # Opportunistic is deadline-safe only under automatic downgrade,
    # i.e. when a Strict reservation remains at td - tw to fall back to.
    # That requires positive slack (otherwise the fallback must start now).
    return slack > 0.0
