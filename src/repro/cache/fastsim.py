"""Flat-state fast cache-simulation kernel.

The reference implementations (:mod:`repro.cache.basic`,
:mod:`repro.cache.partitioned`) model each tag entry as a
:class:`~repro.cache.basic.CacheLine` object and each set's recency
order as a :class:`~repro.cache.replacement.LruPolicy` object, and they
allocate an :class:`~repro.cache.basic.AccessResult` per miss.  That is
the right shape for reading the paper's mechanisms off the code, but it
makes every trace access pay for attribute lookups, method dispatch and
object allocation — and the trace-driven loop is where every figure in
the reproduction spends its time.

This module re-implements both caches on flat state:

- One insertion-ordered ``dict`` per set, mapping ``tag`` to a packed
  ``(core_id << 1) | dirty`` integer.  The dict *is* the LRU stack:
  a hit pops and re-inserts its tag (moving it to the MRU end), so
  iteration order is LRU-first and the victim is ``next(iter(set))``.
  Only valid lines are present, so "fill an empty way first" becomes
  ``len(set) < associativity``.
- Flat integer counters (global and per-core ``[accesses, hits, misses,
  evictions_suffered, evictions_inflicted, writebacks]`` rows) instead
  of live :class:`~repro.cache.stats.CacheStats` mutation; a
  :class:`~repro.cache.stats.CacheStats` is materialised on demand by
  the ``stats`` property.
- A batch API :meth:`access_block` that drives the whole inner loop
  with locals bound once per batch and zero allocations on the hit
  path.

Equivalence to the reference implementations — identical
hit/miss/eviction/writeback/fill counters, identical victim choices,
access for access — is pinned by the differential property suite in
``tests/cache/test_fastsim_differential.py``.  The LRU victim rule
matches because a full set's valid lines are always all present in the
reference policy's recency stack, so "LRU among candidates" equals
"first candidate in LRU-first iteration order".  Every cache build
takes this kernel unless it names the reference model
(:mod:`repro.cache.backend`), which is built only where something is
checked against it.

Curve profiling builds no cache at all: :func:`lru_stack_misses` keeps
one recency list per set and counts the misses of every way count in a
single pass over the trace, which the equivalence suite in
``tests/workloads/test_generator_equivalence.py`` pins to a per-way
replay on both backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.basic import (
    HIT,
    AccessResult,
    BatchCounters,
    CoreSpec,
    WriteSpec,
    _broadcast_cores,
    _broadcast_writes,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.cache.stats import CacheStats, CoreCounters

# Victim-priority classes as integers for the inner loop.
_RESERVED = 0
_BEST_EFFORT = 1
_UNASSIGNED = 2

_CLASS_TO_INT = {
    PartitionClass.RESERVED: _RESERVED,
    PartitionClass.BEST_EFFORT: _BEST_EFFORT,
    PartitionClass.UNASSIGNED: _UNASSIGNED,
}
_INT_TO_CLASS = {value: key for key, value in _CLASS_TO_INT.items()}


def _materialise_stats(
    totals: List[int], per_core: Dict[int, List[int]]
) -> CacheStats:
    """Build a CacheStats snapshot from flat counter state."""
    stats = CacheStats(
        accesses=totals[0],
        hits=totals[1],
        misses=totals[2],
        evictions=totals[3],
        writebacks=totals[4],
        fills=totals[5],
    )
    for core_id, row in per_core.items():
        stats.per_core[core_id] = CoreCounters(
            accesses=row[0],
            hits=row[1],
            misses=row[2],
            evictions_suffered=row[3],
            evictions_inflicted=row[4],
            writebacks=row[5],
        )
    return stats


class FastSetAssociativeCache:
    """Drop-in fast twin of :class:`~repro.cache.basic.SetAssociativeCache`."""

    def __init__(self, geometry: CacheGeometry, *, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self._assoc = geometry.associativity
        self._offset_bits = geometry.offset_bits
        self._index_bits = geometry.index_bits
        self._index_mask = geometry.num_sets - 1
        # accesses, hits, misses, evictions, writebacks, fills
        self._totals = [0, 0, 0, 0, 0, 0]
        self._per_core: Dict[int, List[int]] = {}

    # -- stats -------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Counters as a :class:`CacheStats` (fresh snapshot per call)."""
        return _materialise_stats(self._totals, self._per_core)

    def _core_row(self, core_id: int) -> List[int]:
        row = self._per_core.get(core_id)
        if row is None:
            if core_id < 0:
                raise ValueError(
                    f"the fast backend requires core_id >= 0, got {core_id}"
                )
            row = [0, 0, 0, 0, 0, 0]
            self._per_core[core_id] = row
        return row

    # -- main interface ----------------------------------------------------

    def access(
        self, address: int, *, is_write: bool = False, core_id: int = 0
    ) -> AccessResult:
        """Present one access; fill on miss; return the outcome."""
        block = address >> self._offset_bits
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        lines = self._sets[set_index]
        totals = self._totals
        row = self._core_row(core_id)
        totals[0] += 1
        row[0] += 1
        meta = lines.pop(tag, -1)
        if meta >= 0:
            # Hit: move to MRU, take ownership, accumulate dirtiness.
            lines[tag] = (core_id << 1) | (meta & 1) | (1 if is_write else 0)
            totals[1] += 1
            row[1] += 1
            return HIT

        totals[2] += 1
        row[2] += 1
        evicted_address: Optional[int] = None
        writeback = False
        victim_core: Optional[int] = None
        if len(lines) >= self._assoc:
            victim_tag = next(iter(lines))
            vmeta = lines.pop(victim_tag)
            victim_core = vmeta >> 1
            writeback = (vmeta & 1) == 1
            evicted_address = (
                (victim_tag << self._index_bits) | set_index
            ) << self._offset_bits
            totals[3] += 1
            vrow = self._core_row(victim_core)
            vrow[3] += 1
            row[4] += 1
            if writeback:
                totals[4] += 1
                vrow[5] += 1
        lines[tag] = (core_id << 1) | (1 if is_write else 0)
        totals[5] += 1
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
        """Batch :meth:`access` with the inner loop run on flat state.

        Scalar ``is_write``/``core_ids`` broadcast over the batch.
        """
        offset_bits = self._offset_bits
        index_bits = self._index_bits
        index_mask = self._index_mask
        assoc = self._assoc
        sets = self._sets
        per_core = self._per_core
        hits = misses = evictions = writebacks = 0
        last_core = -1
        row: List[int] = []
        shifted_core = 0
        for address, write, core_id in zip(
            addresses, _broadcast_writes(is_write), _broadcast_cores(core_ids)
        ):
            if core_id != last_core:
                row = self._core_row(core_id)
                last_core = core_id
                shifted_core = core_id << 1
            row[0] += 1
            block = address >> offset_bits
            lines = sets[block & index_mask]
            tag = block >> index_bits
            meta = lines.pop(tag, -1)
            if meta >= 0:
                lines[tag] = shifted_core | (meta & 1) | write
                hits += 1
                row[1] += 1
                continue
            misses += 1
            row[2] += 1
            if len(lines) >= assoc:
                victim_tag = next(iter(lines))
                vmeta = lines.pop(victim_tag)
                evictions += 1
                victim_core = vmeta >> 1
                vrow = per_core.get(victim_core)
                if vrow is None:
                    vrow = self._core_row(victim_core)
                vrow[3] += 1
                row[4] += 1
                if vmeta & 1:
                    writebacks += 1
                    vrow[5] += 1
            lines[tag] = shifted_core | (1 if write else 0)
        totals = self._totals
        accesses = hits + misses
        totals[0] += accesses
        totals[1] += hits
        totals[2] += misses
        totals[3] += evictions
        totals[4] += writebacks
        totals[5] += misses  # every miss fills
        return BatchCounters(
            accesses=accesses,
            hits=hits,
            misses=misses,
            evictions=evictions,
            writebacks=writebacks,
        )

    # -- inspection and maintenance ----------------------------------------

    def contains(self, address: int) -> bool:
        """Return True if the block holding ``address`` is resident."""
        block = address >> self._offset_bits
        return (block >> self._index_bits) in self._sets[
            block & self._index_mask
        ]

    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(len(lines) for lines in self._sets)

    def invalidate_address(self, address: int) -> bool:
        """Invalidate the block holding ``address``; True if present."""
        block = address >> self._offset_bits
        lines = self._sets[block & self._index_mask]
        return lines.pop(block >> self._index_bits, None) is not None

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines dropped."""
        dirty = 0
        for lines in self._sets:
            for meta in lines.values():
                dirty += meta & 1
            lines.clear()
        return dirty

    def resident_blocks(self) -> List[int]:
        """Return block-aligned addresses of all resident blocks (sorted)."""
        addresses = []
        for set_index, lines in enumerate(self._sets):
            for tag in lines:
                addresses.append(
                    ((tag << self._index_bits) | set_index)
                    << self._offset_bits
                )
        return sorted(addresses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FastSetAssociativeCache({self.name}, {self.geometry})"


class FastWayPartitionedCache:
    """Drop-in fast twin of :class:`~repro.cache.partitioned.WayPartitionedCache`.

    Implements the Section 4.1 per-set partitioning scheme — per-set
    per-core occupancy counters and the QoS victim-priority order — on
    the same flat dict-per-set state as the basic fast cache.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        *,
        name: str = "l2",
    ) -> None:
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.geometry = geometry
        self.num_cores = num_cores
        self.name = name
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self._set_counters: List[List[int]] = [
            [0] * num_cores for _ in range(geometry.num_sets)
        ]
        self._targets = [0] * num_cores
        self._classes = [_UNASSIGNED] * num_cores
        self._total_blocks = [0] * num_cores
        self._assoc = geometry.associativity
        self._offset_bits = geometry.offset_bits
        self._index_bits = geometry.index_bits
        self._index_mask = geometry.num_sets - 1
        self._totals = [0, 0, 0, 0, 0, 0]
        self._per_core: Dict[int, List[int]] = {}

    # -- stats -------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Counters as a :class:`CacheStats` (fresh snapshot per call)."""
        return _materialise_stats(self._totals, self._per_core)

    def _core_row(self, core_id: int) -> List[int]:
        row = self._per_core.get(core_id)
        if row is None:
            row = [0, 0, 0, 0, 0, 0]
            self._per_core[core_id] = row
        return row

    # -- partition management ----------------------------------------------

    def set_target(self, core_id: int, ways: int) -> None:
        """Set the target way allocation for ``core_id``."""
        self._check_core(core_id)
        if not 0 <= ways <= self._assoc:
            raise ValueError(
                f"target ways {ways} out of range [0, {self._assoc}]"
            )
        proposed = sum(self._targets) - self._targets[core_id] + ways
        if proposed > self._assoc:
            raise ValueError(
                f"total target ways would be {proposed}, exceeding "
                f"associativity {self._assoc}"
            )
        self._targets[core_id] = ways

    def set_class(self, core_id: int, partition_class: PartitionClass) -> None:
        """Set the victim-priority class for ``core_id``."""
        self._check_core(core_id)
        self._classes[core_id] = _CLASS_TO_INT[partition_class]

    def target_of(self, core_id: int) -> int:
        """Current target way allocation of ``core_id``."""
        self._check_core(core_id)
        return self._targets[core_id]

    def class_of(self, core_id: int) -> PartitionClass:
        """Current partition class of ``core_id``."""
        self._check_core(core_id)
        return _INT_TO_CLASS[self._classes[core_id]]

    def unallocated_ways(self) -> int:
        """Ways not covered by any core's target."""
        return self._assoc - sum(self._targets)

    def release_core(self, core_id: int) -> None:
        """Mark ``core_id``'s job as departed (blocks stay, age out)."""
        self._check_core(core_id)
        self._targets[core_id] = 0
        self._classes[core_id] = _UNASSIGNED

    def flush_core(self, core_id: int) -> int:
        """Invalidate all blocks owned by ``core_id``; return the count."""
        self._check_core(core_id)
        flushed = 0
        for set_index, lines in enumerate(self._sets):
            owned = [
                tag for tag, meta in lines.items() if meta >> 1 == core_id
            ]
            if owned:
                for tag in owned:
                    del lines[tag]
                self._set_counters[set_index][core_id] -= len(owned)
                flushed += len(owned)
        self._total_blocks[core_id] -= flushed
        return flushed

    # -- occupancy inspection ----------------------------------------------

    def occupancy_of(self, core_id: int) -> int:
        """Total blocks owned by ``core_id`` across all sets."""
        self._check_core(core_id)
        return self._total_blocks[core_id]

    def set_occupancy(self, core_id: int, set_index: int) -> int:
        """Blocks owned by ``core_id`` in one set."""
        self._check_core(core_id)
        return self._set_counters[set_index][core_id]

    def allocation_error(self, core_id: int) -> float:
        """Mean absolute per-set deviation from the target allocation."""
        self._check_core(core_id)
        target = self._targets[core_id]
        total_error = sum(
            abs(counters[core_id] - target)
            for counters in self._set_counters
        )
        return total_error / self.geometry.num_sets

    def contains(self, address: int) -> bool:
        """Return True if the block holding ``address`` is resident."""
        block = address >> self._offset_bits
        return (block >> self._index_bits) in self._sets[
            block & self._index_mask
        ]

    # -- the access path ---------------------------------------------------

    def access(
        self, core_id: int, address: int, *, is_write: bool = False
    ) -> AccessResult:
        """Present one access from ``core_id``; fill on miss."""
        self._check_core(core_id)
        block = address >> self._offset_bits
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        lines = self._sets[set_index]
        totals = self._totals
        row = self._core_row(core_id)
        totals[0] += 1
        row[0] += 1
        meta = lines.pop(tag, -1)
        if meta >= 0:
            # Hit: move to MRU; ownership is NOT transferred.
            lines[tag] = meta | (1 if is_write else 0)
            totals[1] += 1
            row[1] += 1
            return HIT

        totals[2] += 1
        row[2] += 1
        counters = self._set_counters[set_index]
        evicted_address: Optional[int] = None
        writeback = False
        victim_core: Optional[int] = None
        if len(lines) >= self._assoc:
            victim_tag = self._choose_victim_tag(core_id, lines, counters)
            vmeta = lines.pop(victim_tag)
            victim_core = vmeta >> 1
            writeback = (vmeta & 1) == 1
            evicted_address = (
                (victim_tag << self._index_bits) | set_index
            ) << self._offset_bits
            totals[3] += 1
            vrow = self._core_row(victim_core)
            vrow[3] += 1
            row[4] += 1
            if writeback:
                totals[4] += 1
                vrow[5] += 1
            counters[victim_core] -= 1
            self._total_blocks[victim_core] -= 1
        lines[tag] = (core_id << 1) | (1 if is_write else 0)
        counters[core_id] += 1
        self._total_blocks[core_id] += 1
        totals[5] += 1
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
        """Batch :meth:`access` with the inner loop run on flat state."""
        offset_bits = self._offset_bits
        index_bits = self._index_bits
        index_mask = self._index_mask
        assoc = self._assoc
        sets = self._sets
        set_counters = self._set_counters
        total_blocks = self._total_blocks
        hits = misses = evictions = writebacks = 0
        last_core = -1
        row: List[int] = []
        shifted_core = 0
        for address, write, core_id in zip(
            addresses, _broadcast_writes(is_write), _broadcast_cores(core_ids)
        ):
            if core_id != last_core:
                self._check_core(core_id)
                row = self._core_row(core_id)
                last_core = core_id
                shifted_core = core_id << 1
            row[0] += 1
            block = address >> offset_bits
            set_index = block & index_mask
            lines = sets[set_index]
            tag = block >> index_bits
            meta = lines.pop(tag, -1)
            if meta >= 0:
                lines[tag] = meta | write
                hits += 1
                row[1] += 1
                continue
            misses += 1
            row[2] += 1
            counters = set_counters[set_index]
            if len(lines) >= assoc:
                victim_tag = self._choose_victim_tag(core_id, lines, counters)
                vmeta = lines.pop(victim_tag)
                evictions += 1
                victim_core = vmeta >> 1
                vrow = self._core_row(victim_core)
                vrow[3] += 1
                row[4] += 1
                if vmeta & 1:
                    writebacks += 1
                    vrow[5] += 1
                counters[victim_core] -= 1
                total_blocks[victim_core] -= 1
            lines[tag] = shifted_core | (1 if write else 0)
            counters[core_id] += 1
            total_blocks[core_id] += 1
        totals = self._totals
        accesses = hits + misses
        totals[0] += accesses
        totals[1] += hits
        totals[2] += misses
        totals[3] += evictions
        totals[4] += writebacks
        totals[5] += misses
        return BatchCounters(
            accesses=accesses,
            hits=hits,
            misses=misses,
            evictions=evictions,
            writebacks=writebacks,
        )

    # -- victim selection (Section 4.1) ------------------------------------

    def _choose_victim_tag(
        self, core_id: int, lines: Dict[int, int], counters: List[int]
    ) -> int:
        """Pick the tag to evict from a full set for a miss by ``core_id``.

        Mirrors the reference
        :meth:`~repro.cache.partitioned.WayPartitionedCache._choose_victim`
        scope order exactly; "LRU block within a scope" becomes "first
        tag in LRU-first iteration order whose owner matches the scope".
        """
        targets = self._targets
        occupancy = counters[core_id]
        if occupancy >= targets[core_id] and occupancy > 0:
            for tag, meta in lines.items():
                if meta >> 1 == core_id:
                    return tag
            raise AssertionError(
                "unreachable: per-set counter says the core owns a block"
            )

        classes = self._classes
        reserved_over: Optional[int] = None
        best_effort_over: Optional[int] = None
        best_effort_any: Optional[int] = None
        for tag, meta in lines.items():
            owner = meta >> 1
            kind = classes[owner]
            if kind == _UNASSIGNED:
                return tag  # top priority: departed jobs' leftovers, LRU-first
            if kind == _RESERVED:
                if reserved_over is None and counters[owner] > targets[owner]:
                    reserved_over = tag
            else:  # _BEST_EFFORT
                if best_effort_any is None:
                    best_effort_any = tag
                if (
                    best_effort_over is None
                    and counters[owner] > targets[owner]
                ):
                    best_effort_over = tag
        if reserved_over is not None:
            return reserved_over
        if best_effort_over is not None:
            return best_effort_over
        if best_effort_any is not None:
            return best_effort_any
        return next(iter(lines))  # global LRU fallback

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range [0, {self.num_cores})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastWayPartitionedCache({self.name}, {self.geometry}, "
            f"targets={self._targets})"
        )


def lru_stack_misses(
    geometry: CacheGeometry,
    addresses: Sequence[int],
    warmup: Sequence[int] = (),
) -> List[int]:
    """Misses over ``addresses`` of an LRU cache at every way count.

    One stack-distance pass (Mattson et al., 1970) stands in for a
    replay per way count.  Under LRU a ``w``-way set holds the ``w``
    most recently used blocks of that set, so each set keeps its
    recency list to depth ``geometry.associativity``, MRU first, and a
    measured access found at position ``p`` hits every cache of more
    than ``p`` ways.  Every miss fills, so reads and writes move the
    stack alike.  ``warmup`` accesses move the stacks but count
    nothing.

    Returns ``misses`` with ``misses[w]`` the misses of a ``w``-way
    cache (``misses[0] == len(addresses)``), for ``w`` up to the
    geometry's associativity; only its set/tag split and depth are
    read.
    """
    offset_bits = geometry.offset_bits
    index_bits = geometry.index_bits
    index_mask = geometry.num_sets - 1
    depth = geometry.associativity
    stacks: List[List[int]] = [[] for _ in range(geometry.num_sets)]
    hits_at = [0] * depth  # measured hits by stack position, MRU = 0
    for trace, counts in ((warmup, [0] * depth), (addresses, hits_at)):
        for address in trace:
            block = address >> offset_bits
            stack = stacks[block & index_mask]
            tag = block >> index_bits
            if tag in stack:
                position = stack.index(tag)
                counts[position] += 1
                if position:
                    del stack[position]
                    stack.insert(0, tag)
            else:
                stack.insert(0, tag)
                if len(stack) > depth:
                    stack.pop()
    misses = [len(addresses)]
    for hits in hits_at:
        misses.append(misses[-1] - hits)
    return misses

