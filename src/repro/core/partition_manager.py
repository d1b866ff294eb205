"""Per-node cache partition ledger.

Tracks which core owns how many L2 ways on one CMP node, keeps the
reserved/best-effort split consistent, redistributes *spare* (unreserved
plus stolen) ways among Opportunistic jobs, and can push the resulting
targets into a real :class:`~repro.cache.partitioned.WayPartitionedCache`.

Its one consumer is the trace-driven node (:class:`~repro.sim.cmp.CmpNode`),
which syncs the ledger into an actual partitioned cache.  The system
simulator keeps its own allocation numbers and does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.util.validation import check_non_negative, check_positive


@dataclass
class _CoreAllocation:
    reserved_ways: int = 0  # the job's own (possibly stealing-reduced) share
    bonus_ways: int = 0  # spare ways granted on top (best-effort only)
    partition_class: PartitionClass = PartitionClass.UNASSIGNED

    @property
    def total_ways(self) -> int:
        return self.reserved_ways + self.bonus_ways


class PartitionManager:
    """Way-allocation ledger for one CMP node."""

    def __init__(self, total_ways: int, num_cores: int) -> None:
        check_positive("total_ways", total_ways)
        check_positive("num_cores", num_cores)
        self.total_ways = total_ways
        self.num_cores = num_cores
        self._cores: List[_CoreAllocation] = [
            _CoreAllocation() for _ in range(num_cores)
        ]

    # -- assignment ----------------------------------------------------------

    def assign(
        self, core_id: int, ways: int, partition_class: PartitionClass
    ) -> None:
        """Give ``core_id`` a reserved allocation of ``ways``."""
        self._check_core(core_id)
        check_non_negative("ways", ways)
        state = self._cores[core_id]
        old = state.reserved_ways
        state.reserved_ways = ways
        state.partition_class = partition_class
        if self.reserved_total() > self.total_ways:
            state.reserved_ways = old
            raise ValueError(
                f"assigning {ways} ways to core {core_id} would exceed the "
                f"{self.total_ways}-way cache"
            )
        self._trim_bonuses()

    def release(self, core_id: int) -> None:
        """Job departed: zero the core's allocation."""
        self._check_core(core_id)
        self._cores[core_id] = _CoreAllocation()

    def transfer(self, from_core: int, to_core: int, ways: int = 1) -> None:
        """Move reserved ways (resource stealing: Elastic → Opportunistic).

        The donor's *reserved* share shrinks; the recipient gains
        ``bonus`` ways, so cancelling the steal is the reverse move.
        """
        self._check_core(from_core)
        self._check_core(to_core)
        check_positive("ways", ways)
        donor = self._cores[from_core]
        if donor.reserved_ways < ways:
            raise ValueError(
                f"core {from_core} has only {donor.reserved_ways} reserved "
                f"ways; cannot donate {ways}"
            )
        donor.reserved_ways -= ways
        self._cores[to_core].bonus_ways += ways

    def restore(self, to_core: int, from_core: int, ways: int) -> None:
        """Return previously stolen ways to their owner (steal cancelled)."""
        self._check_core(from_core)
        self._check_core(to_core)
        check_positive("ways", ways)
        holder = self._cores[from_core]
        if holder.bonus_ways < ways:
            raise ValueError(
                f"core {from_core} holds only {holder.bonus_ways} bonus "
                f"ways; cannot return {ways}"
            )
        holder.bonus_ways -= ways
        self._cores[to_core].reserved_ways += ways

    # -- spare-way distribution -------------------------------------------------

    def reserved_total(self) -> int:
        """Total reserved (non-bonus) ways."""
        return sum(state.reserved_ways for state in self._cores)

    def spare_ways(self) -> int:
        """Ways neither reserved nor granted as bonus."""
        granted = sum(state.total_ways for state in self._cores)
        return self.total_ways - granted

    def redistribute_spare(self) -> Dict[int, int]:
        """Grant all spare ways evenly to best-effort cores.

        Opportunistic jobs utilise unallocated capacity (Section 7.1's
        Hybrid-1 discussion).  Returns the per-core *bonus* allocation
        after redistribution.  Earlier cores receive the remainder ways
        — deterministic, and immaterial to the aggregate results.
        """
        best_effort = [
            core_id
            for core_id, state in enumerate(self._cores)
            if state.partition_class is PartitionClass.BEST_EFFORT
        ]
        for core_id in best_effort:
            self._cores[core_id].bonus_ways = 0
        spare = self.total_ways - sum(
            state.total_ways for state in self._cores
        )
        if best_effort and spare > 0:
            share, remainder = divmod(spare, len(best_effort))
            for index, core_id in enumerate(best_effort):
                self._cores[core_id].bonus_ways += share + (
                    1 if index < remainder else 0
                )
        return {
            core_id: self._cores[core_id].bonus_ways
            for core_id in best_effort
        }

    def _trim_bonuses(self) -> None:
        """Shrink bonus grants when reserved demand grows."""
        while (
            self.total_ways
            < sum(state.total_ways for state in self._cores)
        ):
            donor = max(
                range(self.num_cores),
                key=lambda core_id: self._cores[core_id].bonus_ways,
            )
            if self._cores[donor].bonus_ways == 0:
                raise AssertionError(
                    "over-committed with no bonus ways to trim"
                )
            self._cores[donor].bonus_ways -= 1

    # -- queries --------------------------------------------------------------------

    def allocation(self, core_id: int) -> int:
        """Total ways (reserved + bonus) currently held by ``core_id``."""
        self._check_core(core_id)
        return self._cores[core_id].total_ways

    def reserved_allocation(self, core_id: int) -> int:
        """Reserved ways only."""
        self._check_core(core_id)
        return self._cores[core_id].reserved_ways

    def class_of(self, core_id: int) -> PartitionClass:
        """Partition class of ``core_id``."""
        self._check_core(core_id)
        return self._cores[core_id].partition_class

    def find_idle_core(self) -> Optional[int]:
        """Lowest-numbered unassigned core, or ``None``."""
        for core_id, state in enumerate(self._cores):
            if state.partition_class is PartitionClass.UNASSIGNED:
                return core_id
        return None

    def apply_to_cache(self, cache: WayPartitionedCache) -> None:
        """Push current targets and classes into a real partitioned cache."""
        if cache.num_cores != self.num_cores:
            raise ValueError(
                f"cache has {cache.num_cores} cores, ledger has "
                f"{self.num_cores}"
            )
        if cache.geometry.associativity != self.total_ways:
            raise ValueError(
                f"cache has {cache.geometry.associativity} ways, ledger "
                f"has {self.total_ways}"
            )
        for core_id, state in enumerate(self._cores):
            cache.set_target(core_id, 0)
        for core_id, state in enumerate(self._cores):
            cache.set_target(core_id, state.total_ways)
            cache.set_class(core_id, state.partition_class)

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range [0, {self.num_cores})"
            )
