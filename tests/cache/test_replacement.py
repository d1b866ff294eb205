"""Tests for the LRU replacement policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.replacement import LruPolicy


class TestLruPolicy:
    def test_victim_is_least_recently_used(self):
        policy = LruPolicy(4)
        for way in (0, 1, 2, 3):
            policy.insert(way)
        policy.touch(0)  # order (MRU→LRU): 0, 3, 2, 1
        assert policy.victim(range(4)) == 1

    def test_untouched_ways_are_victimised_first(self):
        policy = LruPolicy(4)
        policy.insert(0)
        policy.insert(1)
        assert policy.victim(range(4)) == 2  # lowest untouched way

    def test_victim_respects_candidate_scope(self):
        policy = LruPolicy(4)
        for way in (0, 1, 2, 3):
            policy.insert(way)
        # LRU is way 0, but it is out of scope.
        assert policy.victim([2, 3]) == 2

    def test_invalidate_removes_from_stack(self):
        policy = LruPolicy(4)
        for way in (0, 1, 2, 3):
            policy.insert(way)
        policy.invalidate(0)
        assert 0 not in policy.recency_order()
        # Invalidated way becomes "untouched" and is preferred again.
        assert policy.victim(range(4)) == 0

    def test_touch_moves_to_front(self):
        policy = LruPolicy(3)
        policy.insert(0)
        policy.insert(1)
        policy.touch(0)
        assert policy.recency_order() == [0, 1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            LruPolicy(4).victim([])

    def test_way_bounds_checked(self):
        with pytest.raises(ValueError):
            LruPolicy(4).touch(4)

    def test_zero_associativity_rejected(self):
        with pytest.raises(ValueError):
            LruPolicy(0)

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    def test_stack_is_always_a_permutation_of_touched_ways(self, touches):
        policy = LruPolicy(8)
        for way in touches:
            policy.touch(way)
        order = policy.recency_order()
        assert sorted(set(order)) == sorted(set(touches))
        assert len(order) == len(set(order))

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    def test_victim_is_always_a_candidate(self, touches):
        policy = LruPolicy(8)
        for way in touches:
            policy.touch(way)
        assert policy.victim(range(8)) in range(8)
        assert policy.victim([3, 5]) in (3, 5)

