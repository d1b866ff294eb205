"""LRU replacement for the reference caches.

The machine model uses LRU everywhere (Section 6), but the partitioned
L2's *victim scope* is decided by the partitioning layer — the policy
here only orders blocks *within* whatever candidate scope it is given.
"""

from __future__ import annotations

from typing import List, Sequence


class LruPolicy:
    """True-LRU recency stack.

    Maintains a most-recent-first list of way indices.  ``victim``
    returns the candidate deepest in the stack (least recently used).
    Ways never touched sit below all touched ways and are victimised
    first in insertion order.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.associativity = associativity
        # Most-recently-used first. Starts empty; ways appear on first use.
        self._stack: List[int] = []

    def touch(self, way: int) -> None:
        self._check_way(way)
        if way in self._stack:
            self._stack.remove(way)
        self._stack.insert(0, way)

    def insert(self, way: int) -> None:
        self.touch(way)

    def invalidate(self, way: int) -> None:
        self._check_way(way)
        if way in self._stack:
            self._stack.remove(way)

    def victim(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError("victim() requires at least one candidate")
        candidate_set = set(candidates)
        # Candidates not in the stack were never touched: evict those first,
        # in ascending way order for determinism.
        untouched = sorted(candidate_set.difference(self._stack))
        if untouched:
            return untouched[0]
        for way in reversed(self._stack):
            if way in candidate_set:
                return way
        raise AssertionError("unreachable: every candidate is tracked")

    def recency_order(self) -> List[int]:
        """Return ways most-recent-first (for tests and shadow tags)."""
        return list(self._stack)

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.associativity:
            raise ValueError(
                f"way {way} out of range [0, {self.associativity})"
            )
