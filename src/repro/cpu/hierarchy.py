"""Per-core memory hierarchy: private L1s over a shared partitioned L2.

Models the machine of Section 6: each core has private L1 I/D caches;
all cores share one way-partitioned L2; L2 misses go to DRAM.  The
hierarchy returns, for every access, which level served it and the
latency in cycles, so a trace-driven core can accumulate exact cycle
counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cache.backend import AnyCache, AnyPartitionedCache
from repro.cache.shadow import ShadowTagArray
from repro.mem.dram import DramModel
from repro.util.validation import check_non_negative


class ServiceLevel(enum.Enum):
    """Which level of the hierarchy satisfied an access."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one hierarchy access."""

    level: ServiceLevel
    latency_cycles: float
    l2_hit: Optional[bool] = None  # None when the access never reached L2


@dataclass(frozen=True)
class BatchOutcome:
    """Aggregate result of one :meth:`MemoryHierarchy.access_block` call."""

    accesses: int
    l1_hits: int
    l2_hits: int
    l2_misses: int
    latency_cycles: float


class MemoryHierarchy:
    """L1 (private, per core) → shared L2 → DRAM access path.

    Shadow tag arrays can be attached per core; they observe that core's
    L2 access stream (Section 4.3) without affecting timing.
    """

    def __init__(
        self,
        l1_caches: Dict[int, AnyCache],
        l2_cache: AnyPartitionedCache,
        dram: DramModel,
        *,
        l1_latency: float = 2.0,
        l2_latency: float = 10.0,
    ) -> None:
        check_non_negative("l1_latency", l1_latency)
        check_non_negative("l2_latency", l2_latency)
        self.l1_caches = l1_caches
        self.l2_cache = l2_cache
        self.dram = dram
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self._shadows: Dict[int, ShadowTagArray] = {}

    def attach_shadow(self, core_id: int, shadow: ShadowTagArray) -> None:
        """Attach a duplicate tag array observing ``core_id``'s L2 stream."""
        if core_id not in self.l1_caches:
            raise ValueError(f"core {core_id} has no L1 cache in this hierarchy")
        self._shadows[core_id] = shadow

    def detach_shadow(self, core_id: int) -> Optional[ShadowTagArray]:
        """Detach and return ``core_id``'s shadow, if any."""
        return self._shadows.pop(core_id, None)

    def shadow_of(self, core_id: int) -> Optional[ShadowTagArray]:
        """The shadow currently observing ``core_id``, if any."""
        return self._shadows.get(core_id)

    def access(
        self, core_id: int, address: int, *, is_write: bool = False
    ) -> AccessOutcome:
        """Run one access through L1 → L2 → DRAM and return the outcome.

        Write-backs of dirty victims are modelled as bandwidth events in
        the DRAM model but (as in most trace-driven simulators) do not
        add to the critical-path latency of the triggering access.
        """
        try:
            l1 = self.l1_caches[core_id]
        except KeyError:
            raise ValueError(
                f"core {core_id} has no L1 cache in this hierarchy"
            ) from None

        l1_result = l1.access(address, is_write=is_write, core_id=core_id)
        if l1_result.hit:
            return AccessOutcome(ServiceLevel.L1, self.l1_latency)

        l2_result = self.l2_cache.access(core_id, address, is_write=is_write)
        shadow = self._shadows.get(core_id)
        if shadow is not None:
            shadow.observe(address, l2_result.hit)
        if l2_result.writeback:
            self.dram.record_writeback()

        if l2_result.hit:
            return AccessOutcome(
                ServiceLevel.L2,
                self.l1_latency + self.l2_latency,
                l2_hit=True,
            )

        dram_latency = self.dram.access(address)
        return AccessOutcome(
            ServiceLevel.MEMORY,
            self.l1_latency + self.l2_latency + dram_latency,
            l2_hit=False,
        )

    def access_block(
        self,
        core_id: int,
        addresses: Sequence[int],
        is_writes: Sequence[bool],
    ) -> BatchOutcome:
        """Run a batch of accesses from one core; return the aggregate.

        State evolution (cache contents, DRAM counters, shadow
        observations) is identical to calling :meth:`access` per
        element; the batch only avoids building an
        :class:`AccessOutcome` per access and re-resolving the L1/L2
        objects inside the loop.  The default latencies are
        integer-valued, so summing them here is exact.
        """
        try:
            l1 = self.l1_caches[core_id]
        except KeyError:
            raise ValueError(
                f"core {core_id} has no L1 cache in this hierarchy"
            ) from None
        l1_access = l1.access
        l2_access = self.l2_cache.access
        dram = self.dram
        dram_access = dram.access
        shadow = self._shadows.get(core_id)
        l1_hits = l2_hits = l2_misses = 0
        dram_latency = 0.0
        for address, is_write in zip(addresses, is_writes):
            if l1_access(address, is_write=is_write, core_id=core_id).hit:
                l1_hits += 1
                continue
            l2_result = l2_access(core_id, address, is_write=is_write)
            if shadow is not None:
                shadow.observe(address, l2_result.hit)
            if l2_result.writeback:
                dram.record_writeback()
            if l2_result.hit:
                l2_hits += 1
            else:
                l2_misses += 1
                dram_latency += dram_access(address)
        accesses = l1_hits + l2_hits + l2_misses
        latency = (
            accesses * self.l1_latency
            + (l2_hits + l2_misses) * self.l2_latency
            + dram_latency
        )
        return BatchOutcome(
            accesses=accesses,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
            latency_cycles=latency,
        )
