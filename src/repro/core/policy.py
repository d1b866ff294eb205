"""Closed-loop adaptive QoS policy engine.

The paper fixes target allocations offline and evaluates three static
execution modes.  This module closes the loop: a :class:`Policy` observes a
:class:`SensorSnapshot` of the running system each decision epoch and emits
absolute-target actions (:class:`SetWays`, :class:`SetBusGrant`) that the
simulator applies to its reserved allocations and its bus model.  The
paper's Strict / Elastic / Opportunistic modes are per-job targets fixed by
the configuration, not policies: a run has either one of the two adaptive
policies in the registry or none.

Design invariants the conformance laws pin down (``repro verify laws
--policy all``):

* **Capacity conservation** — at every epoch boundary the reserved ways plus
  spare ways equal the machine's L2 ways, and spare never goes negative.
* **Actuation idempotence** — actions carry absolute targets, so re-applying
  an already-applied action is a no-op (``apply_action`` returns ``False``).
* **Throughput floor** — running a policy never loses deadlines or
  meaningfully inflates makespan versus the policy-free run.

Policies read the snapshot as the single source of truth for current
allocations (never their own memory of past actions), which is what
makes the idempotence law hold by construction: a policy that wants the
state the snapshot already shows emits nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.resilience import RetryPolicy

__all__ = [
    "JobSensor",
    "SensorSnapshot",
    "PolicyAction",
    "SetWays",
    "SetBusGrant",
    "ActuatorState",
    "apply_action",
    "Policy",
    "GrowShrinkWaysPolicy",
    "BandwidthStealPolicy",
    "make_policy",
    "policy_names",
]


# ---------------------------------------------------------------------------
# Sensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSensor:
    """Per-job reading taken at a decision epoch.

    ``rates_by_ways[w]`` is the model-predicted execution rate (instructions
    per second) the job would sustain with ``w`` L2 ways at full CPU share
    and an uncontended bus; index 0 is always 0.0.  Every sensor has it,
    as the simulator builds sensors only for jobs a policy may resize.
    """

    job_id: int
    mode: str
    reserved: bool
    elastic: bool
    ways: int
    requested_ways: int
    progress: float
    instructions: int
    deadline: Optional[float]
    reservation_end: Optional[float]
    projected_finish: float
    rates_by_ways: Tuple[float, ...]

    def limit(self) -> float:
        """Earliest hard completion bound (deadline or reservation end)."""

        bounds = [b for b in (self.deadline, self.reservation_end) if b is not None]
        return min(bounds) if bounds else math.inf

    def slack_fraction(self, now: float) -> float:
        """Fraction of the remaining horizon left after the projected finish.

        Positive means headroom, negative means a projected violation, and
        ``inf`` means the job has no hard bound at all.
        """

        limit = self.limit()
        if not math.isfinite(limit):
            return math.inf
        horizon = limit - now
        if horizon <= 0.0:
            return 0.0 if self.projected_finish <= limit else -math.inf
        return (limit - self.projected_finish) / horizon

    def finish_at(self, now: float, ways: int) -> float:
        """Model-predicted finish time if the job ran with ``ways`` ways."""

        if ways < 0 or ways >= len(self.rates_by_ways):
            return math.inf
        rate = self.rates_by_ways[ways]
        remaining = self.instructions - self.progress
        if remaining <= 0.0:
            return now
        if rate <= 0.0:
            return math.inf
        return now + remaining / rate


@dataclass(frozen=True)
class SensorSnapshot:
    """System-wide reading taken at a decision epoch.

    ``reserved_ways`` counts every running reserved job, stealing ones
    included.  ``jobs`` holds, in job-id order, a sensor for each running
    reserved job that no stealing controller owns (the jobs a
    :class:`SetWays` can resize), and nothing for a policy whose
    ``job_sensors`` is False.
    """

    now: float
    epoch_index: int
    l2_ways: int
    reserved_ways: int
    spare_ways: int
    bus_utilisation: float
    bus_saturated: bool
    bus_granted: bool
    jobs: Tuple[JobSensor, ...] = ()


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetWays:
    """Set a reserved job's L2 allocation to an absolute way count."""

    job_id: int
    ways: int

    kind = "set_ways"

    def describe(self) -> Dict[str, object]:
        return {"action": self.kind, "job_id": self.job_id, "ways": self.ways}


@dataclass(frozen=True)
class SetBusGrant:
    """Grant (or revoke) full bus share to opportunistic traffic."""

    granted: bool

    kind = "set_bus_grant"

    def describe(self) -> Dict[str, object]:
        return {"action": self.kind, "granted": self.granted}


PolicyAction = object  # union of SetWays | SetBusGrant


# ---------------------------------------------------------------------------
# Actuation harness
# ---------------------------------------------------------------------------


@dataclass
class ActuatorState:
    """Mutable shadow of the actuatable system state.

    The simulator builds one of these from live state on each epoch whose
    policy proposes an action (not on every epoch) and runs every proposed
    action through :func:`apply_action`; only actions that report a change
    are committed.  The conformance suite drives the same
    harness directly, so the idempotence law exercises exactly the code the
    simulator uses.
    """

    total_ways: int
    ways: Dict[int, int] = field(default_factory=dict)
    caps: Dict[int, int] = field(default_factory=dict)
    locked: frozenset = frozenset()
    bus_granted: bool = False

    def reserved_total(self) -> int:
        return sum(self.ways.values())

    def spare(self) -> int:
        return self.total_ways - self.reserved_total()


def apply_action(state: ActuatorState, action: PolicyAction) -> bool:
    """Apply ``action`` to ``state``; return True iff anything changed.

    Invalid or unsafe actions (unknown job, oversubscription, cap overflow)
    are rejected by returning ``False`` without mutating the state, so the
    caller can treat the return value as "effective".
    """

    if isinstance(action, SetWays):
        current = state.ways.get(action.job_id)
        if current is None or action.job_id in state.locked:
            return False
        if action.ways < 1 or action.ways == current:
            return False
        cap = state.caps.get(action.job_id)
        if cap is not None and action.ways > cap:
            return False
        if action.ways - current > state.spare():
            return False
        state.ways[action.job_id] = action.ways
        return True
    if isinstance(action, SetBusGrant):
        if action.granted == state.bus_granted:
            return False
        state.bus_granted = action.granted
        return True
    return False


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy:
    """Strategy interface: observe a snapshot, emit absolute-target actions.

    A simulator given a policy schedules a decision epoch every
    repartition interval and calls :meth:`reset` when the run starts, so
    one instance can drive several runs in turn.
    """

    name: str = "policy"
    #: Whether :meth:`decide` reads ``snapshot.jobs``; the simulator
    #: builds no per-job sensor for a policy that does not.
    job_sensors: bool = True

    def reset(self) -> None:
        """Clear internal state before a run (policies may be reused)."""

    def decide(self, snapshot: SensorSnapshot) -> Tuple[PolicyAction, ...]:
        return ()


class GrowShrinkWaysPolicy(Policy):
    """Grow a tenant's L2 ways on projected SLO violation, shrink on
    sustained headroom.

    Targets reserved strict jobs only (elastic jobs are owned by their
    stealing controller).  Ways move ``STEP`` at a time, never below
    ``MIN_WAYS``.  A shrink is emitted only after ``PATIENCE``
    consecutive epochs of slack above ``dead_band`` *and* only if the
    model-predicted finish at the smaller allocation still leaves
    ``SHRINK_MARGIN`` slack before ``min(deadline, reservation end)``.  A
    grow restores ways toward the admission-requested allocation and burns
    the restored level as a floor for that job, so a job can never oscillate:
    per job, ways moves monotonically downward between grows and each grow
    permanently raises the floor.

    ``dead_band=inf`` disables shrinking entirely; since jobs start at their
    requested ways and grows only restore toward requested, the disabled
    policy provably emits no actions and is byte-identical to running
    without a policy (the ``policy`` differential pair checks this).
    """

    PATIENCE = 2
    SHRINK_MARGIN = 0.10
    MIN_WAYS = 1
    STEP = 1

    def __init__(
        self, *, dead_band: float = 0.25, name: str = "grow-shrink"
    ) -> None:
        self.dead_band = dead_band
        self.name = name
        self._streak: Dict[int, int] = {}
        self._floor: Dict[int, int] = {}

    def reset(self) -> None:
        self._streak.clear()
        self._floor.clear()

    def decide(self, snapshot: SensorSnapshot) -> Tuple[PolicyAction, ...]:
        actions: List[PolicyAction] = []
        spare = snapshot.spare_ways
        for job in snapshot.jobs:
            if not job.reserved or job.elastic or job.mode != "strict":
                continue
            limit = job.limit()
            if not math.isfinite(limit):
                continue
            slack = job.slack_fraction(snapshot.now)
            floor = max(self.MIN_WAYS, self._floor.get(job.job_id, self.MIN_WAYS))
            if slack < 0.0 and job.ways < job.requested_ways:
                grow = min(self.STEP, job.requested_ways - job.ways, spare)
                if grow > 0:
                    target = job.ways + grow
                    actions.append(SetWays(job.job_id, target))
                    spare -= grow
                    self._floor[job.job_id] = max(
                        self._floor.get(job.job_id, self.MIN_WAYS), target
                    )
                self._streak[job.job_id] = 0
                continue
            if not math.isfinite(self.dead_band):
                self._streak[job.job_id] = 0
                continue
            candidate = job.ways - self.STEP
            if candidate < floor:
                self._streak[job.job_id] = 0
                continue
            horizon = limit - snapshot.now
            safe = False
            if slack > self.dead_band and horizon > 0.0:
                candidate_finish = job.finish_at(snapshot.now, candidate)
                candidate_slack = (limit - candidate_finish) / horizon
                safe = candidate_slack >= self.SHRINK_MARGIN
            if safe:
                streak = self._streak.get(job.job_id, 0) + 1
                if streak >= self.PATIENCE:
                    actions.append(SetWays(job.job_id, candidate))
                    spare += self.STEP
                    streak = 0
                self._streak[job.job_id] = streak
            else:
                self._streak[job.job_id] = 0
        return tuple(actions)


class BandwidthStealPolicy(Policy):
    """Steal idle bus share for opportunistic traffic, with exponential
    backoff on recovery.

    When the measured bus utilisation sits below ``low_watermark`` the
    policy grants opportunistic traffic full bus share (the fair-queue
    penalty multiplier is forced to 1.0).  When utilisation climbs past
    ``RELEASE_THRESHOLD`` — the reserved tenants want their bandwidth back —
    the grant is released and the policy backs off exponentially (reusing
    :class:`repro.faults.resilience.RetryPolicy`) before trying to steal
    again.  ``STABLE_EPOCHS`` of uninterrupted grant reset the backoff.

    The policy trusts ``snapshot.bus_granted`` as the source of truth for
    the current grant, so re-deciding on an already-actuated state emits
    nothing (idempotence law).  ``low_watermark < 0`` disables stealing.
    It decides on the bus fields alone, so it gets no per-job sensors.
    """

    job_sensors = False
    RELEASE_THRESHOLD = 0.85
    STABLE_EPOCHS = 8

    def __init__(
        self, *, low_watermark: float = 0.5, name: str = "bandwidth-steal"
    ) -> None:
        self.low_watermark = low_watermark
        self.name = name
        self._retry = RetryPolicy()
        self._attempt = 0
        self._hold_until = 0.0
        self._stable = 0

    def reset(self) -> None:
        self._attempt = 0
        self._hold_until = 0.0
        self._stable = 0

    def decide(self, snapshot: SensorSnapshot) -> Tuple[PolicyAction, ...]:
        if snapshot.bus_granted:
            self._stable += 1
            if self._stable >= self.STABLE_EPOCHS:
                self._attempt = 0
            if (
                snapshot.bus_utilisation >= self.RELEASE_THRESHOLD
                or snapshot.bus_saturated
            ):
                self._stable = 0
                retries = self._retry.MAX_RETRIES
                attempt = min(self._attempt, retries)
                self._hold_until = snapshot.now + self._retry.delay(attempt)
                self._attempt = min(self._attempt + 1, retries)
                return (SetBusGrant(False),)
            return ()
        self._stable = 0
        if (
            snapshot.bus_utilisation < self.low_watermark
            and not snapshot.bus_saturated
            and snapshot.now >= self._hold_until
        ):
            return (SetBusGrant(True),)
        return ()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_REGISTRY: Dict[str, Callable[[], Policy]] = {
    "grow-shrink": GrowShrinkWaysPolicy,
    "bandwidth-steal": BandwidthStealPolicy,
}


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, in registry order."""

    return tuple(_REGISTRY)


def make_policy(name: str) -> Policy:
    """Build a fresh policy instance from its registry name."""

    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown policy {name!r} (known: {known})") from None
    return factory()
