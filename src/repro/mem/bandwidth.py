"""Memory-bus bandwidth and queueing model.

The machine model gives the memory bus a 6.4 GB/s peak (Section 6).
Footnote 2 of the paper invokes Little's law: prior to saturation,
queueing delay on the bus is roughly constant, so resource stealing can
treat the L2 miss penalty ``tm`` as fixed — but stealing must be
*disabled* when the bus saturates, since extra misses then inflate
``tm`` for everyone.

We model the bus as an M/M/1-like server: given an offered load (bytes
per second of miss and write-back traffic), utilisation is
``rho = offered / peak`` and the queueing multiplier on the miss penalty
is ``1 / (1 - rho)``, clamped at ``SATURATION_THRESHOLD``.
"""

from __future__ import annotations

from typing import List

from repro.obs import get_observer
from repro.util.validation import check_positive, check_probability

#: The bus utilisation at which it counts as saturated, and at which
#: the queueing model clamps.
SATURATION_THRESHOLD = 0.9


class BandwidthModel:
    """Shared memory-bus contention model."""

    def __init__(
        self,
        *,
        peak_bytes_per_second: float = 6.4e9,
        clock_hz: float = 2.0e9,
        block_bytes: int = 64,
    ) -> None:
        check_positive("peak_bytes_per_second", peak_bytes_per_second)
        check_positive("clock_hz", clock_hz)
        check_positive("block_bytes", block_bytes)
        self.peak_bytes_per_second = peak_bytes_per_second
        self.clock_hz = clock_hz
        self.block_bytes = block_bytes
        # Active brown-out derates (fault injection).  Factors stack
        # multiplicatively: two overlapping 0.5× windows leave 25% of
        # peak.  With the stack empty the effective peak is *exactly*
        # ``peak_bytes_per_second`` (multiplying by nothing, not by a
        # float 1.0 product), keeping fault-free runs byte-identical.
        self._derate_factors: List[float] = []

    # -- fault injection --------------------------------------------------------

    @property
    def derate_factor(self) -> float:
        """Product of the active derate factors (1.0 when healthy)."""
        factor = 1.0
        for value in self._derate_factors:
            factor *= value
        return factor

    @property
    def effective_peak_bytes_per_second(self) -> float:
        """Peak bandwidth after any active brown-out derates."""
        if not self._derate_factors:
            return self.peak_bytes_per_second
        return self.peak_bytes_per_second * self.derate_factor

    def apply_derate(self, factor: float) -> None:
        """Start a brown-out: multiply the bus peak by ``factor``."""
        check_probability("factor", factor)
        if factor == 0:
            raise ValueError("a zero derate factor would sever the bus")
        self._derate_factors.append(factor)
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("mem.bus.derates_applied").inc()
            obs.metrics.gauge("mem.bus.derate_factor").set(
                self.derate_factor
            )

    def remove_derate(self, factor: float) -> None:
        """End one previously-applied brown-out window."""
        try:
            self._derate_factors.remove(factor)
        except ValueError:
            raise ValueError(
                f"no active derate with factor {factor} to remove"
            ) from None
        obs = get_observer()
        if obs.enabled:
            obs.metrics.gauge("mem.bus.derate_factor").set(
                self.derate_factor
            )

    # -- utilisation ------------------------------------------------------------

    def utilisation(self, transfers_per_cycle: float) -> float:
        """Bus utilisation for an aggregate block-transfer rate.

        ``transfers_per_cycle`` is the sum over running jobs of their L2
        misses plus write-backs per cycle.
        """
        if transfers_per_cycle < 0:
            raise ValueError(
                f"transfers_per_cycle must be non-negative, got "
                f"{transfers_per_cycle}"
            )
        offered = transfers_per_cycle * self.block_bytes * self.clock_hz
        return offered / self.effective_peak_bytes_per_second

    def utilisation_from_jobs(self, per_job_mpc: list) -> float:
        """Utilisation from a list of per-job misses-per-cycle values."""
        return self.utilisation(sum(per_job_mpc))

    # -- queueing ----------------------------------------------------------------

    def is_saturated(self, transfers_per_cycle: float) -> bool:
        """True when utilisation reaches the saturation threshold.

        The resource-stealing controller checks this and refuses to
        steal (footnote 2 of the paper): past this point extra misses
        raise everyone's effective miss penalty.
        """
        return self.utilisation(transfers_per_cycle) >= SATURATION_THRESHOLD

    @property
    def service_cycles(self) -> float:
        """Cycles the bus needs to move one cache block.

        64 bytes over 6.4 GB/s at 2 GHz is 20 cycles — the service time
        of the M/M/1 bus server.  Only this portion of a miss queues;
        the DRAM array access itself does not shrink with bus load.
        A brown-out derate stretches the service time proportionally.
        """
        return (
            self.block_bytes * self.clock_hz
            / self.effective_peak_bytes_per_second
        )

    def queueing_delay_cycles(self, transfers_per_cycle: float) -> float:
        """Mean extra cycles a miss waits for the bus (M/M/1 wait).

        ``W_q = S * rho / (1 - rho)`` with rho clamped at the saturation
        threshold (real buses back-pressure rather than diverge).  Per
        footnote 2 / Little's law, this stays small — a few cycles on a
        300-cycle miss — until utilisation approaches saturation.
        """
        rho = min(self.utilisation(transfers_per_cycle), SATURATION_THRESHOLD)
        return self.service_cycles * rho / (1.0 - rho)

    def penalty_multiplier(
        self, transfers_per_cycle: float, base_penalty: float
    ) -> float:
        """Multiplier on ``base_penalty`` from bus queueing."""
        check_positive("base_penalty", base_penalty)
        return 1.0 + self.queueing_delay_cycles(transfers_per_cycle) / base_penalty

    def breakdown(
        self, transfers_per_cycle: float, base_penalty: float
    ) -> dict:
        """One-call latency decomposition for an offered load.

        Returns utilisation, queueing delay, the penalty multiplier,
        and the saturation verdict together so instrumentation sites
        (``QoSSystemSimulator._recompute``) publish a consistent set of
        gauges from a single evaluation.  The multiplier and verdict
        are computed with the exact expressions of
        :meth:`penalty_multiplier` and :meth:`is_saturated`, so
        switching a call site to ``breakdown`` cannot move a simulated
        trajectory.
        """
        check_positive("base_penalty", base_penalty)
        utilisation = self.utilisation(transfers_per_cycle)
        queueing = self.queueing_delay_cycles(transfers_per_cycle)
        return {
            "utilisation": utilisation,
            "queueing_delay_cycles": queueing,
            "penalty_multiplier": 1.0 + queueing / base_penalty,
            "saturated": utilisation >= SATURATION_THRESHOLD,
        }

    def max_transfers_per_cycle(self) -> float:
        """Block transfers per cycle at 100% bus utilisation."""
        return self.effective_peak_bytes_per_second / (
            self.block_bytes * self.clock_hz
        )
