"""Cache statistics counters.

Tracks hits/misses/evictions/writebacks, both globally and per core.
Per-core accounting is essential for the QoS framework: the resource
stealing criterion (Section 4.2) bounds the *per-job* increase in L2
misses, and Figure 8(a) reports per-mode miss rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CoreCounters:
    """Per-core access counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions_suffered: int = 0  # this core's blocks evicted by anyone
    evictions_inflicted: int = 0  # victims chosen on this core's misses
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0.0 before any access)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (0.0 before any access)."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class CacheStats:
    """Aggregate and per-core cache statistics."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0
    per_core: Dict[int, CoreCounters] = field(default_factory=dict)

    def core(self, core_id: int) -> CoreCounters:
        """Return (creating on first use) the counters for ``core_id``."""
        if core_id not in self.per_core:
            self.per_core[core_id] = CoreCounters()
        return self.per_core[core_id]

    def record_access(self, core_id: int, hit: bool) -> None:
        """Record one access and its outcome."""
        self.accesses += 1
        counters = self.core(core_id)
        counters.accesses += 1
        if hit:
            self.hits += 1
            counters.hits += 1
        else:
            self.misses += 1
            counters.misses += 1

    def record_eviction(self, victim_core: int, by_core: int, dirty: bool) -> None:
        """Record an eviction of ``victim_core``'s block on ``by_core``'s miss."""
        self.evictions += 1
        self.core(victim_core).evictions_suffered += 1
        self.core(by_core).evictions_inflicted += 1
        if dirty:
            self.writebacks += 1
            self.core(victim_core).writebacks += 1

    def record_fill(self) -> None:
        """Record a block fill (miss completing)."""
        self.fills += 1

    @property
    def miss_rate(self) -> float:
        """Global misses / accesses (0.0 before any access)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Global hits / accesses (0.0 before any access)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        """Return a deep copy usable as a baseline for interval deltas."""
        copy = CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            writebacks=self.writebacks,
            fills=self.fills,
        )
        for core_id, counters in self.per_core.items():
            copy.per_core[core_id] = CoreCounters(
                accesses=counters.accesses,
                hits=counters.hits,
                misses=counters.misses,
                evictions_suffered=counters.evictions_suffered,
                evictions_inflicted=counters.evictions_inflicted,
                writebacks=counters.writebacks,
            )
        return copy
