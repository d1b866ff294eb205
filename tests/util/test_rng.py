"""Tests for deterministic RNG streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import DeterministicRng, derive_seed


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_separates_streams(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_separates_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = DeterministicRng(7, "t")
        b = DeterministicRng(7, "t")
        assert [a.uniform() for _ in range(10)] == [
            b.uniform() for _ in range(10)
        ]

    def test_child_streams_independent_of_draw_order(self):
        parent1 = DeterministicRng(7)
        _ = [parent1.uniform() for _ in range(5)]
        child1 = parent1.stream("worker")

        parent2 = DeterministicRng(7)
        child2 = parent2.stream("worker")

        assert [child1.uniform() for _ in range(5)] == [
            child2.uniform() for _ in range(5)
        ]

    def test_different_children_differ(self):
        parent = DeterministicRng(7)
        a = parent.stream("a")
        b = parent.stream("b")
        assert [a.uniform() for _ in range(5)] != [
            b.uniform() for _ in range(5)
        ]


class TestDraws:
    def test_uniform_bounds(self):
        rng = DeterministicRng(1)
        for _ in range(100):
            assert 0.0 <= rng.uniform() < 1.0
            assert 2.0 <= rng.uniform(2.0, 3.0) <= 3.0

    def test_randint_inclusive(self):
        rng = DeterministicRng(1)
        draws = {rng.randint(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_exponential_positive_and_mean(self):
        rng = DeterministicRng(1)
        draws = [rng.exponential(2.0) for _ in range(5000)]
        assert all(d >= 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.1)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).exponential(0.0)

    def test_random_is_the_raw_draw_uniform_scales(self):
        a = DeterministicRng(1)
        b = DeterministicRng(1)
        draws = [a.random() for _ in range(100)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [b.uniform() for _ in range(100)]

    def test_choice_and_empty(self):
        rng = DeterministicRng(1)
        assert rng.choice([5]) == 5
        with pytest.raises(ValueError):
            rng.choice([])

    def test_weighted_choice_validates_lengths(self):
        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            rng.weighted_choice([1, 2], [1.0])

    def test_weighted_choice_respects_weights(self):
        rng = DeterministicRng(1)
        draws = [
            rng.weighted_choice(["a", "b"], [0.95, 0.05])
            for _ in range(1000)
        ]
        assert draws.count("a") > 800

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(1)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_without_replacement(self):
        rng = DeterministicRng(1)
        sample = rng.sample_without_replacement(range(10), 5)
        assert len(set(sample)) == 5

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_seed_is_usable(self, seed):
        rng = DeterministicRng(seed)
        assert 0.0 <= rng.uniform() < 1.0
