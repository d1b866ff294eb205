"""Conservation-law checking for the system simulator.

Fault injection exercises recovery paths that the happy-path test
suite never reaches; a bug there typically corrupts shared-resource
accounting long before it corrupts a headline metric.  The
:class:`InvariantChecker` therefore re-asserts the simulator's
conservation laws every ``InvariantChecker.EVERY_N_EVENTS`` fired
events of a fault-configured run:

- reserved cache ways across running reserved jobs never exceed the
  L2 associativity (the paper's partitioning substrate guarantees
  exclusivity);
- the LAC's reservation timeline never oversubscribes node capacity
  at the current instant;
- no job retires more instructions than it was admitted for, and no
  job has a negative execution rate;
- the bandwidth model's derate state stays physical (positive
  effective peak, no negative utilisation).

Violations raise :class:`InvariantViolation` (an ``AssertionError``
subclass) naming the broken law, so a faulted run fails loudly at the
first inconsistent event instead of emitting a quietly-wrong report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import QoSSystemSimulator

_PROGRESS_TOLERANCE = 1e-3  # instructions; matches the engine epsilon


class InvariantViolation(AssertionError):
    """A simulator conservation law was broken."""


class InvariantChecker:
    """Periodic conservation-law assertions over a live simulator."""

    #: Events between two checks.
    EVERY_N_EVENTS = 256

    def __init__(self, simulator: "QoSSystemSimulator") -> None:
        self.simulator = simulator
        self.checks_run = 0
        self._next_check = self.EVERY_N_EVENTS

    def maybe_check(self) -> None:
        """Run :meth:`check` if at least N events fired since the last."""
        fired = self.simulator.events.events_fired
        if fired < self._next_check:
            return
        self._next_check = fired + self.EVERY_N_EVENTS
        self.check()

    def check(self) -> None:
        """Assert every conservation law right now."""
        sim = self.simulator
        now = sim.events.now

        reserved_ways = 0
        for state in sim._states.values():
            if state.reserved_running:
                reserved_ways += state.ways
            if state.rate < 0.0:
                raise InvariantViolation(
                    f"job {state.job.job_id} has negative rate "
                    f"{state.rate} at t={now}"
                )
            if (
                state.progress
                > state.job.instructions + _PROGRESS_TOLERANCE
            ):
                raise InvariantViolation(
                    f"job {state.job.job_id} retired {state.progress} of "
                    f"{state.job.instructions} admitted instructions"
                )
        if reserved_ways > sim.machine.l2_ways:
            raise InvariantViolation(
                f"partition ways oversubscribed: {reserved_ways} reserved "
                f"in a {sim.machine.l2_ways}-way L2 at t={now}"
            )

        used = sim.lac.used_at(max(now, 0.0))
        if not used.fits_within(sim.lac.capacity):
            raise InvariantViolation(
                f"LAC timeline oversubscribed at t={now}: {used} used of "
                f"{sim.lac.capacity}"
            )

        effective_peak = sim.bandwidth.effective_peak_bytes_per_second
        if effective_peak <= 0.0:
            raise InvariantViolation(
                f"bandwidth model has non-positive effective peak "
                f"{effective_peak} at t={now}"
            )
        if sim.bandwidth.utilisation(0.0) < 0.0:
            raise InvariantViolation("negative bus utilisation at zero load")

        self.checks_run += 1
