"""Graceful-degradation policy: retry with backoff, downgrade the mode.

When a core failure displaces a reserved job, the system does not give
up on it — it walks the paper's own execution-mode ladder (Sections
3.3–3.4) one rung at a time, re-probing the Local Admission Controller
between rungs:

    Strict → Elastic(X) → Opportunistic → best-effort

Each re-admission attempt waits an exponentially-backed-off delay (the
LAC timeline right after a fault is exactly where it was when admission
failed; retrying immediately is wasted work), and after
``RetryPolicy.MAX_RETRIES`` failed attempts at a reserved rung the job
steps one rung down; the first step grants Elastic
``ELASTIC_DOWNGRADE_SLACK``.  The terminal *best-effort* stage is
Opportunistic execution with no further recovery attempts: the job runs
on whatever is spare and its deadline promise is formally surrendered —
degraded, but never silently lost.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.modes import ExecutionMode, ModeKind
from repro.util.validation import check_non_negative, check_probability

#: The Elastic slack granted on the first downgrade rung; positive,
#: since Elastic(0) is just Strict and the ladder would stall.
ELASTIC_DOWNGRADE_SLACK = 0.10


class DegradationStage(enum.Enum):
    """Rungs of the fault-recovery ladder, most- to least-guaranteed."""

    STRICT = "strict"
    ELASTIC = "elastic"
    OPPORTUNISTIC = "opportunistic"
    BEST_EFFORT = "best-effort"


#: Ladder order used by :func:`next_stage`.
LADDER = (
    DegradationStage.STRICT,
    DegradationStage.ELASTIC,
    DegradationStage.OPPORTUNISTIC,
    DegradationStage.BEST_EFFORT,
)


def stage_for_mode(mode: ExecutionMode) -> DegradationStage:
    """The ladder rung a job currently executing in ``mode`` occupies."""
    if mode.kind is ModeKind.STRICT:
        return DegradationStage.STRICT
    if mode.kind is ModeKind.ELASTIC:
        return DegradationStage.ELASTIC
    return DegradationStage.OPPORTUNISTIC


def next_stage(stage: DegradationStage) -> Optional[DegradationStage]:
    """The rung below ``stage``, or ``None`` at the ladder's bottom."""
    index = LADDER.index(stage)
    if index + 1 >= len(LADDER):
        return None
    return LADDER[index + 1]


def mode_for_stage(
    stage: DegradationStage, *, elastic_slack: float
) -> Optional[ExecutionMode]:
    """Execution mode of a ladder rung.

    ``None`` for BEST_EFFORT: best-effort is *executed* as
    Opportunistic but is a distinct contract (no re-admission attempts
    remain), so callers must treat it explicitly rather than receiving
    a mode that looks recoverable.
    """
    if stage is DegradationStage.STRICT:
        return ExecutionMode.strict()
    if stage is DegradationStage.ELASTIC:
        check_probability("elastic_slack", elastic_slack)
        return ExecutionMode.elastic(elastic_slack)
    if stage is DegradationStage.OPPORTUNISTIC:
        return ExecutionMode.opportunistic()
    return None


def downgrade_mode(
    mode: ExecutionMode, *, elastic_slack: float
) -> Optional[ExecutionMode]:
    """One ladder rung down from ``mode``; ``None`` once past Opportunistic."""
    stage = next_stage(stage_for_mode(mode))
    if stage is None:
        return None
    return mode_for_stage(stage, elastic_slack=elastic_slack)


class RetryPolicy:
    """Bounded retry with exponential backoff for re-admission.

    ``delay(attempt)`` is ``BACKOFF_BASE * BACKOFF_FACTOR**attempt``
    seconds; attempt numbering starts at zero (the first post-fault
    re-admission already waits one base delay — the LAC state that just
    rejected the job cannot have improved instantaneously).
    """

    MAX_RETRIES = 3
    BACKOFF_BASE = 0.002
    BACKOFF_FACTOR = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff delay before re-admission attempt ``attempt``."""
        check_non_negative("attempt", attempt)
        return self.BACKOFF_BASE * self.BACKOFF_FACTOR**attempt

    def exhausted(self, attempt: int) -> bool:
        """Whether attempt ``attempt`` exceeds the retry budget."""
        return attempt >= self.MAX_RETRIES
