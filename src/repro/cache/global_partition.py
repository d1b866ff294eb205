"""Global-counter cache partitioning (the rejected alternative).

Section 4.1 of the paper describes a coarser partitioning scheme, after
Suh et al.'s modified LRU: a single *global* counter per core tracks how
many blocks the core holds across the whole cache, compared against a
global target.  The per-set distribution of a core's blocks is then
unconstrained, which makes the same job's performance vary run-to-run
depending on co-runners — exactly why the paper rejects the scheme in a
QoS setting.  It is implemented here as the baseline for the
partitioning ablation (DESIGN.md §5.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.basic import HIT, AccessResult, CacheLine
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import LruPolicy
from repro.cache.stats import CacheStats


class GlobalPartitionedCache:
    """Shared cache partitioned by global per-core block counters."""

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        *,
        name: str = "l2-global",
    ) -> None:
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.geometry = geometry
        self.num_cores = num_cores
        self.name = name
        self.stats = CacheStats()
        self._lines: List[List[CacheLine]] = [
            [CacheLine() for _ in range(geometry.associativity)]
            for _ in range(geometry.num_sets)
        ]
        self._policies: List[LruPolicy] = [
            LruPolicy(geometry.associativity) for _ in range(geometry.num_sets)
        ]
        # Global (whole-cache) occupancy and target, in blocks.
        self._occupancy: List[int] = [0] * num_cores
        self._target_blocks: List[int] = [0] * num_cores

    # -- partition management --------------------------------------------------

    def set_target(self, core_id: int, ways: int) -> None:
        """Set ``core_id``'s target to ``ways`` worth of blocks cache-wide."""
        self._check_core(core_id)
        if not 0 <= ways <= self.geometry.associativity:
            raise ValueError(
                f"target ways {ways} out of range "
                f"[0, {self.geometry.associativity}]"
            )
        self._target_blocks[core_id] = ways * self.geometry.num_sets

    def occupancy_of(self, core_id: int) -> int:
        """Blocks currently held by ``core_id`` cache-wide."""
        self._check_core(core_id)
        return self._occupancy[core_id]

    def set_occupancy(self, core_id: int, set_index: int) -> int:
        """Blocks held by ``core_id`` in one set (unconstrained here)."""
        self._check_core(core_id)
        return sum(
            1
            for line in self._lines[set_index]
            if line.valid and line.core_id == core_id
        )

    def allocation_error(self, core_id: int) -> float:
        """Mean absolute per-set deviation from a uniform target spread.

        The global scheme only constrains the cache-wide total, so this
        error stays large — the quantity the partitioning ablation
        contrasts against :meth:`WayPartitionedCache.allocation_error`.
        """
        self._check_core(core_id)
        per_set_target = self._target_blocks[core_id] / self.geometry.num_sets
        total_error = 0.0
        for set_index in range(self.geometry.num_sets):
            total_error += abs(
                self.set_occupancy(core_id, set_index) - per_set_target
            )
        return total_error / self.geometry.num_sets

    # -- the access path ----------------------------------------------------------

    def access(
        self, core_id: int, address: int, *, is_write: bool = False
    ) -> AccessResult:
        """Present one access from ``core_id``; fill on miss."""
        self._check_core(core_id)
        set_index = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        lines = self._lines[set_index]
        policy = self._policies[set_index]

        for way, line in enumerate(lines):
            if line.valid and line.tag == tag:
                policy.touch(way)
                if is_write:
                    line.dirty = True
                self.stats.record_access(core_id, hit=True)
                return HIT

        self.stats.record_access(core_id, hit=False)

        empty_way = next(
            (way for way, line in enumerate(lines) if not line.valid), None
        )
        if empty_way is not None:
            victim_way = empty_way
            evicted_address = None
            writeback = False
            victim_core: Optional[int] = None
        else:
            victim_way = self._choose_victim(core_id, set_index)
            victim_line = lines[victim_way]
            evicted_address = self.geometry.compose(victim_line.tag, set_index)
            writeback = victim_line.dirty
            victim_core = victim_line.core_id
            self.stats.record_eviction(
                victim_line.core_id, core_id, victim_line.dirty
            )
            self._occupancy[victim_line.core_id] -= 1

        line = lines[victim_way]
        line.valid = True
        line.tag = tag
        line.dirty = is_write
        line.core_id = core_id
        policy.insert(victim_way)
        self._occupancy[core_id] += 1
        self.stats.record_fill()
        return AccessResult(
            hit=False,
            evicted_address=evicted_address,
            writeback=writeback,
            victim_core=victim_core,
        )

    def _choose_victim(self, core_id: int, set_index: int) -> int:
        """Suh-style modified LRU guided by *global* counters.

        If the requester is under its global target, the victim is the
        LRU block in this set belonging to any globally over-allocated
        core; otherwise the requester's own LRU block in the set.  Both
        scopes fall back to global LRU when empty in this set — the very
        looseness that makes per-set occupancy drift.
        """
        lines = self._lines[set_index]
        policy = self._policies[set_index]
        under_target = self._occupancy[core_id] < self._target_blocks[core_id]

        if under_target:
            over_allocated = [
                way
                for way, line in enumerate(lines)
                if line.valid
                and self._occupancy[line.core_id]
                > self._target_blocks[line.core_id]
            ]
            if over_allocated:
                return policy.victim(over_allocated)
        else:
            own = [
                way
                for way, line in enumerate(lines)
                if line.valid and line.core_id == core_id
            ]
            if own:
                return policy.victim(own)
        valid = [way for way, line in enumerate(lines) if line.valid]
        return policy.victim(valid)

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range [0, {self.num_cores})"
            )
