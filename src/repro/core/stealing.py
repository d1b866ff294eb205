"""Resource stealing (Section 4).

An Elastic(X) job tolerates up to an X% slowdown.  Because the CPI
decomposition is additive with non-negative components (Section 4.2), a
≤ X% increase in L2 *misses* guarantees a < X% increase in CPI — so the
controller uses the measurable miss count as a conservative proxy.

The algorithm (Section 4.3), evaluated once per repartitioning interval
(2 M instructions of the Elastic job in the machine model):

1. Steal one way from the Elastic job's partition and hand it to an
   Opportunistic beneficiary.
2. Duplicate (shadow) tags keep counting the misses the job *would*
   have had at its full allocation; cumulative counts are never reset.
3. If the main tags' cumulative misses reach or exceed the shadow's by
   X%, stealing is **cancelled** and every stolen way returns at once.
4. Otherwise, next interval, steal another way — down to a floor.

A cancelled controller resumes stealing once the cumulative increase
decays below ``RESUME_HYSTERESIS`` × X, so the long-run increase hugs
the slack budget, as Figure 8(a) shows.

Stealing also holds off while the memory bus is saturated (footnote 2):
past saturation extra misses inflate everyone's miss penalty, breaking
the constant-``tm`` assumption behind the miss-rate criterion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.util.validation import check_fraction, check_positive


class MissFeedback(Protocol):
    """Source of the cumulative miss-increase measurement.

    Satisfied by :class:`repro.cache.shadow.ShadowTagArray` (real
    duplicate tags at the cache level) and by the system simulator's
    curve-based predictor.
    """

    def miss_increase_fraction(self) -> float:
        """Cumulative main-vs-shadow miss increase since the job started."""
        ...


class StealingState(enum.Enum):
    """Controller lifecycle."""

    ACTIVE = "active"
    CANCELLED = "cancelled"


class StealingAction(enum.Enum):
    """What the controller decided this interval."""

    STEAL_ONE = "steal_one"
    HOLD = "hold"
    CANCEL = "cancel"


@dataclass(frozen=True)
class StealingDecision:
    """One interval's decision, with the resulting allocation."""

    action: StealingAction
    elastic_ways: int
    stolen_ways: int
    miss_increase: float
    reason: str


class ResourceStealingController:
    """Per-Elastic(X)-job stealing state machine."""

    #: After a cancel, the cumulative miss increase decays as the job
    #: keeps accruing baseline misses at its full allocation; once it
    #: falls back below this fraction of the slack the controller
    #: re-arms.
    RESUME_HYSTERESIS = 0.9

    def __init__(
        self,
        *,
        slack: float,
        baseline_ways: int,
        min_ways: int = 1,
    ) -> None:
        check_fraction("slack", slack)
        if slack == 0:
            raise ValueError("stealing requires a positive Elastic slack")
        check_positive("baseline_ways", baseline_ways)
        check_positive("min_ways", min_ways)
        if min_ways > baseline_ways:
            raise ValueError(
                f"min_ways ({min_ways}) exceeds baseline_ways "
                f"({baseline_ways})"
            )
        self.slack = slack
        self.baseline_ways = baseline_ways
        self.min_ways = min_ways
        self.state = StealingState.ACTIVE
        self._current_ways = baseline_ways
        self.intervals_run = 0
        self.cancellations = 0
        self.ecc_cancellations = 0

    # -- inspection -------------------------------------------------------------

    @property
    def current_ways(self) -> int:
        """The Elastic job's present allocation."""
        return self._current_ways

    @property
    def stolen_ways(self) -> int:
        """Ways currently reallocated to Opportunistic jobs."""
        return self.baseline_ways - self._current_ways

    @property
    def can_steal_more(self) -> bool:
        """Whether another way can be taken without hitting the floor."""
        return (
            self.state is StealingState.ACTIVE
            and self._current_ways > self.min_ways
        )

    # -- the per-interval step ------------------------------------------------------

    def on_interval(
        self,
        feedback: MissFeedback,
        *,
        bus_saturated: bool = False,
    ) -> StealingDecision:
        """Run one repartitioning interval of the algorithm.

        The caller applies the decision to the partitioned cache (move a
        way to an Opportunistic core, or return all stolen ways).
        """
        self.intervals_run += 1
        increase = feedback.miss_increase_fraction()

        if self.state is StealingState.CANCELLED:
            if increase < self.slack * self.RESUME_HYSTERESIS:
                self.state = StealingState.ACTIVE
            else:
                return self._decision(
                    StealingAction.HOLD, increase, "stealing is cancelled"
                )

        if increase >= self.slack and self.stolen_ways > 0:
            # The job has potentially been slowed by more than X%:
            # return everything at once (Section 4.3).
            self._current_ways = self.baseline_ways
            self.state = StealingState.CANCELLED
            self.cancellations += 1
            return self._decision(
                StealingAction.CANCEL,
                increase,
                f"miss increase {increase:.2%} reached slack "
                f"{self.slack:.0%}; all stolen ways returned",
            )

        if bus_saturated:
            return self._decision(
                StealingAction.HOLD,
                increase,
                "memory bus saturated; stealing paused (footnote 2)",
            )

        if not self.can_steal_more:
            return self._decision(
                StealingAction.HOLD,
                increase,
                f"at the {self.min_ways}-way floor",
            )

        self._current_ways -= 1
        return self._decision(
            StealingAction.STEAL_ONE,
            increase,
            f"stole one way ({self._current_ways} remain)",
        )

    def on_ecc_error(self) -> StealingDecision:
        """React to an ECC upset in the duplicate tag array.

        With the shadow corrupted there is no trustworthy bound on how
        much the Elastic job has already been slowed, so the only safe
        move is the cancel path of Section 4.3: return every stolen way
        immediately.  The caller applies the returned allocation exactly
        as for a slack-triggered cancel.  The controller re-arms once the
        (reset) shadow rebuilds a trustworthy low-increase observation.
        """
        self.ecc_cancellations += 1
        returned = self.stolen_ways
        self._current_ways = self.baseline_ways
        if self.state is not StealingState.CANCELLED:
            self.state = StealingState.CANCELLED
            self.cancellations += 1
        return self._decision(
            StealingAction.CANCEL,
            0.0,
            f"ECC error in duplicate tags; {returned} stolen way(s) "
            "conservatively returned",
        )

    def _decision(
        self, action: StealingAction, increase: float, reason: str
    ) -> StealingDecision:
        return StealingDecision(
            action=action,
            elastic_ways=self._current_ways,
            stolen_ways=self.stolen_ways,
            miss_increase=increase,
            reason=reason,
        )

    def reset(self, *, baseline_ways: Optional[int] = None) -> None:
        """Re-arm the controller for a new Elastic job."""
        if baseline_ways is not None:
            check_positive("baseline_ways", baseline_ways)
            if self.min_ways > baseline_ways:
                raise ValueError(
                    f"min_ways ({self.min_ways}) exceeds baseline_ways "
                    f"({baseline_ways})"
                )
            self.baseline_ways = baseline_ways
        self._current_ways = self.baseline_ways
        self.state = StealingState.ACTIVE
        self.intervals_run = 0
