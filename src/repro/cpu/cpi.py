"""Luo's additive CPI model (Section 4.2 of the paper).

The paper expresses per-job cycles-per-instruction as

``CPI = CPI_L1inf + h2 * t2 + hm * tm``

where ``CPI_L1inf`` is the CPI with an infinite L1, ``h2``/``hm`` are L2
accesses/misses per instruction, and ``t2``/``tm`` the L2 access and
miss penalties.  Because all components are non-negative and ``hm * tm``
is only one of them, an X% increase in ``hm`` yields a *less than* X%
increase in CPI — the observation that justifies using the L2 miss rate
as the conservative resource-stealing criterion.

This module is used in two roles:

1. Inside the resource-stealing analysis (Figure 8a) to convert
   measured miss-rate increases into CPI increases.
2. As the timing model of the system simulator: a job's execution time
   under a given way allocation is ``instructions * CPI(hm(ways))``
   cycles, with ``hm(ways)`` read off the job's miss-ratio curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class CpiModel:
    """Immutable CPI decomposition parameters for one job/benchmark.

    Parameters
    ----------
    cpi_l1_inf:
        Base CPI assuming an infinite L1 cache (compute component).
    l2_accesses_per_instruction:
        ``h2`` — L1 misses (= L2 accesses) per instruction.
    l2_access_penalty:
        ``t2`` — L2 hit latency in cycles (10 in the machine model).
    l2_miss_penalty:
        ``tm`` — additional cycles for an L2 miss (300 in the machine
        model, before bandwidth contention).
    """

    cpi_l1_inf: float
    l2_accesses_per_instruction: float
    l2_access_penalty: float
    l2_miss_penalty: float

    def __post_init__(self) -> None:
        check_positive("cpi_l1_inf", self.cpi_l1_inf)
        check_non_negative(
            "l2_accesses_per_instruction", self.l2_accesses_per_instruction
        )
        check_non_negative("l2_access_penalty", self.l2_access_penalty)
        check_non_negative("l2_miss_penalty", self.l2_miss_penalty)

    # -- forward model -------------------------------------------------------

    def cpi(
        self,
        misses_per_instruction: float,
        *,
        miss_penalty_multiplier: float = 1.0,
    ) -> float:
        """CPI at the given ``hm``.

        ``miss_penalty_multiplier`` scales ``tm`` for bandwidth
        contention (queueing delay on the memory bus).
        """
        check_non_negative("misses_per_instruction", misses_per_instruction)
        check_positive("miss_penalty_multiplier", miss_penalty_multiplier)
        if misses_per_instruction > self.l2_accesses_per_instruction + 1e-12:
            raise ValueError(
                f"misses_per_instruction ({misses_per_instruction}) cannot "
                f"exceed l2_accesses_per_instruction "
                f"({self.l2_accesses_per_instruction})"
            )
        return (
            self.cpi_l1_inf
            + self.l2_accesses_per_instruction * self.l2_access_penalty
            + misses_per_instruction
            * self.l2_miss_penalty
            * miss_penalty_multiplier
        )

    def ipc(self, misses_per_instruction: float, **kwargs: float) -> float:
        """Instructions per cycle at the given ``hm``."""
        return 1.0 / self.cpi(misses_per_instruction, **kwargs)

    def cycles(
        self, instructions: int, misses_per_instruction: float, **kwargs: float
    ) -> float:
        """Total cycles to execute ``instructions`` at the given ``hm``."""
        check_non_negative("instructions", instructions)
        return instructions * self.cpi(misses_per_instruction, **kwargs)

    # -- analysis helpers ------------------------------------------------------

    def cpi_increase_fraction(
        self, baseline_mpi: float, degraded_mpi: float
    ) -> float:
        """Fractional CPI increase when ``hm`` rises from baseline to degraded.

        The paper's key inequality: if ``degraded_mpi`` is (1 + X) times
        ``baseline_mpi``, the returned value is strictly less than X
        whenever the non-miss CPI components are positive.
        """
        base = self.cpi(baseline_mpi)
        return (self.cpi(degraded_mpi) - base) / base

    def miss_cpi_share(self, misses_per_instruction: float) -> float:
        """Fraction of CPI contributed by L2 misses at the given ``hm``.

        This equals the asymptotic ratio between CPI increase and
        miss-rate increase; Figure 8(a) of the paper observes it to be
        roughly one third to one half for bzip2.
        """
        total = self.cpi(misses_per_instruction)
        return misses_per_instruction * self.l2_miss_penalty / total
