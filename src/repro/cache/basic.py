"""A plain set-associative, write-back cache.

This models the private L1 instruction and data caches of the machine
model (32 KB, 4-way, 64-byte blocks, LRU, write-back, Section 6), and
also serves as the un-partitioned L2 for the EqualPart-style baselines
that give each core a private slice.

The cache is *trace-driven*: callers present block addresses and the
cache returns hit/miss plus any eviction, without modelling data values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Union

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import LruPolicy
from repro.cache.stats import CacheStats


class CacheLine:
    """One tag-array entry.

    A plain ``__slots__`` class rather than a dataclass: a 2 MB L2 has
    32k lines and every trace access reads several of their attributes,
    so the per-instance dict is pure overhead.
    """

    __slots__ = ("valid", "tag", "dirty", "core_id")

    def __init__(
        self,
        valid: bool = False,
        tag: int = 0,
        dirty: bool = False,
        core_id: int = -1,
    ) -> None:
        self.valid = valid
        self.tag = tag
        self.dirty = dirty
        self.core_id = core_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(valid={self.valid}, tag={self.tag:#x}, "
            f"dirty={self.dirty}, core_id={self.core_id})"
        )


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes
    ----------
    hit:
        True if the block was present.
    evicted_address:
        Block-aligned byte address of the victim, or ``None`` if the
        fill used an empty way (or the access hit).
    writeback:
        True if the victim was dirty (write-back traffic to the next
        level).
    victim_core:
        Core that owned the victim block, or ``None``.
    """

    hit: bool
    evicted_address: Optional[int] = None
    writeback: bool = False
    victim_core: Optional[int] = None


#: Shared result for the (overwhelmingly common) hit outcome.  Hits carry
#: no victim information, so every hit is observationally identical and
#: all access paths return this one frozen instance instead of
#: allocating a fresh ``AccessResult`` per hit.
HIT = AccessResult(hit=True)


@dataclass(frozen=True)
class BatchCounters:
    """Counter deltas accumulated over one :meth:`access_block` call."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses over the batch (0.0 for an empty batch)."""
        return self.misses / self.accesses if self.accesses else 0.0


WriteSpec = Union[bool, Sequence[bool]]
CoreSpec = Union[int, Sequence[int]]


def _broadcast_writes(is_write: WriteSpec) -> Iterable[bool]:
    if isinstance(is_write, (bool, int)):
        return repeat(bool(is_write))
    return is_write


def _broadcast_cores(core_ids: CoreSpec) -> Iterable[int]:
    if isinstance(core_ids, int):
        return repeat(core_ids)
    return core_ids


class SetAssociativeCache:
    """Single-level set-associative LRU cache."""

    def __init__(self, geometry: CacheGeometry, *, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        self._lines: List[List[CacheLine]] = [
            [CacheLine() for _ in range(geometry.associativity)]
            for _ in range(geometry.num_sets)
        ]
        self._policies: List[LruPolicy] = [
            LruPolicy(geometry.associativity) for _ in range(geometry.num_sets)
        ]

    # -- main interface ----------------------------------------------------

    def access(self, address: int, *, is_write: bool = False, core_id: int = 0) -> AccessResult:
        """Present one access; fill on miss; return the outcome."""
        set_index = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        lines = self._lines[set_index]
        policy = self._policies[set_index]

        for way, line in enumerate(lines):
            if line.valid and line.tag == tag:
                policy.touch(way)
                if is_write:
                    line.dirty = True
                line.core_id = core_id
                self.stats.record_access(core_id, hit=True)
                return HIT

        # Miss: fill, evicting if the set is full.
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
            victim_way = policy.victim(range(len(lines)))
            victim_line = lines[victim_way]
            evicted_address = self.geometry.compose(victim_line.tag, set_index)
            writeback = victim_line.dirty
            victim_core = victim_line.core_id
            self.stats.record_eviction(victim_line.core_id, core_id, victim_line.dirty)

        line = lines[victim_way]
        line.valid = True
        line.tag = tag
        line.dirty = is_write
        line.core_id = core_id
        policy.insert(victim_way)
        self.stats.record_fill()
        return AccessResult(
            hit=False,
            evicted_address=evicted_address,
            writeback=writeback,
            victim_core=victim_core,
        )

    def access_block(
        self,
        addresses: Sequence[int],
        is_write: WriteSpec = False,
        core_ids: CoreSpec = 0,
    ) -> BatchCounters:
        """Present a batch of accesses; return the batch's counter deltas.

        ``is_write`` and ``core_ids`` may be scalars (broadcast over the
        batch) or per-access sequences.  The batch is exactly equivalent
        to calling :meth:`access` once per element; the fast backend
        overrides this with an allocation-free kernel.
        """
        hits = misses = evictions = writebacks = 0
        access = self.access
        for address, write, core_id in zip(
            addresses, _broadcast_writes(is_write), _broadcast_cores(core_ids)
        ):
            result = access(address, is_write=write, core_id=core_id)
            if result.hit:
                hits += 1
            else:
                misses += 1
                if result.evicted_address is not None:
                    evictions += 1
                if result.writeback:
                    writebacks += 1
        return BatchCounters(
            accesses=hits + misses,
            hits=hits,
            misses=misses,
            evictions=evictions,
            writebacks=writebacks,
        )

    # -- inspection and maintenance -----------------------------------------

    def contains(self, address: int) -> bool:
        """Return True if the block holding ``address`` is resident."""
        set_index = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        return any(
            line.valid and line.tag == tag for line in self._lines[set_index]
        )

    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(
            1 for lines in self._lines for line in lines if line.valid
        )

    def invalidate_address(self, address: int) -> bool:
        """Invalidate the block holding ``address``; True if it was present."""
        set_index = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        for way, line in enumerate(self._lines[set_index]):
            if line.valid and line.tag == tag:
                line.valid = False
                line.dirty = False
                self._policies[set_index].invalidate(way)
                return True
        return False

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines dropped."""
        dirty = 0
        for set_index, lines in enumerate(self._lines):
            for way, line in enumerate(lines):
                if line.valid:
                    if line.dirty:
                        dirty += 1
                    line.valid = False
                    line.dirty = False
                    self._policies[set_index].invalidate(way)
        return dirty

    def resident_blocks(self) -> List[int]:
        """Return block-aligned addresses of all resident blocks (sorted)."""
        addresses = []
        for set_index, lines in enumerate(self._lines):
            for line in lines:
                if line.valid:
                    addresses.append(self.geometry.compose(line.tag, set_index))
        return sorted(addresses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetAssociativeCache({self.name}, {self.geometry})"
