"""Tests for access-pattern primitives."""

import pytest

from repro.util.rng import DeterministicRng
from repro.workloads.patterns import (
    LoopPattern,
    StreamingPattern,
    ZipfPattern,
)


def bind(pattern, *, num_sets=8, block_bytes=64, base=0, seed=1):
    pattern.bind(
        num_sets=num_sets,
        block_bytes=block_bytes,
        region_base=base,
        rng=DeterministicRng(seed, "test"),
    )
    return pattern


class TestBinding:
    def test_unbound_pattern_rejects_use(self):
        with pytest.raises(RuntimeError):
            LoopPattern(2.0).region_bytes()

    def test_footprint_materialises_in_blocks(self):
        pattern = bind(LoopPattern(2.0), num_sets=8)
        assert pattern.num_blocks == 16
        assert pattern.region_bytes() == 16 * 64

    def test_fractional_footprints_round(self):
        pattern = bind(LoopPattern(0.5), num_sets=8)
        assert pattern.num_blocks == 4

    def test_minimum_one_block(self):
        pattern = bind(ZipfPattern(0.01), num_sets=8)
        assert pattern.num_blocks == 1

    def test_footprint_must_be_positive(self):
        with pytest.raises(ValueError):
            LoopPattern(0.0)


class TestLoopPattern:
    def test_cycles_through_footprint(self):
        pattern = bind(LoopPattern(1.0), num_sets=4)  # 4 blocks
        addresses = [pattern.next_address() for _ in range(8)]
        assert addresses[:4] == addresses[4:]
        assert len(set(addresses)) == 4

    def test_addresses_spread_over_sets(self):
        # Footprint of W ways means W blocks per set: consecutive
        # blocks land in consecutive sets.
        pattern = bind(LoopPattern(2.0), num_sets=4)
        sets = [(pattern.next_address() // 64) % 4 for _ in range(8)]
        assert sets == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_respects_region_base(self):
        pattern = bind(LoopPattern(1.0), num_sets=4, base=1 << 20)
        assert all(
            pattern.next_address() >= (1 << 20) for _ in range(8)
        )


class TestZipfPattern:
    def test_addresses_within_region(self):
        pattern = bind(ZipfPattern(2.0, alpha=1.0), num_sets=8)
        limit = pattern.region_bytes()
        for _ in range(200):
            assert 0 <= pattern.next_address() < limit

    def test_skewed_popularity(self):
        pattern = bind(ZipfPattern(4.0, alpha=1.3), num_sets=8)
        counts = {}
        for _ in range(3000):
            address = pattern.next_address()
            counts[address] = counts.get(address, 0) + 1
        frequencies = sorted(counts.values(), reverse=True)
        # The hottest block is much hotter than the median block.
        assert frequencies[0] > 5 * frequencies[len(frequencies) // 2]

    def test_zipf_range(self):
        # Ten blocks: every draw is one of them, block-aligned.
        pattern = bind(ZipfPattern(1.25, alpha=1.0), num_sets=8, base=1 << 20)
        assert pattern.num_blocks == 10
        offsets = [pattern.next_address() - (1 << 20) for _ in range(500)]
        assert all(offset % 64 == 0 for offset in offsets)
        assert {offset // 64 for offset in offsets} <= set(range(10))

    def test_zipf_skew(self):
        # A hundred blocks at alpha 1.2: the ten hottest blocks draw far
        # more than the ten coldest (uniform draws would give about 2x).
        pattern = bind(ZipfPattern(12.5, alpha=1.2), num_sets=8)
        counts = [0] * pattern.num_blocks
        for _ in range(5000):
            counts[pattern.next_address() // 64] += 1
        counts.sort(reverse=True)
        assert len(counts) == 100
        assert sum(counts[:10]) > 5 * max(sum(counts[-10:]), 1)

    def test_deterministic_given_seed(self):
        a = bind(ZipfPattern(2.0), seed=9)
        b = bind(ZipfPattern(2.0), seed=9)
        assert [a.next_address() for _ in range(50)] == [
            b.next_address() for _ in range(50)
        ]

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ZipfPattern(2.0, alpha=0.0)


class TestStreamingPattern:
    def test_no_reuse_within_window(self):
        pattern = bind(StreamingPattern(16.0), num_sets=8)  # 128 blocks
        addresses = [pattern.next_address() for _ in range(128)]
        assert len(set(addresses)) == 128

    def test_wraps_after_window(self):
        pattern = bind(StreamingPattern(1.0), num_sets=4)  # 4 blocks
        first = [pattern.next_address() for _ in range(4)]
        second = [pattern.next_address() for _ in range(4)]
        assert first == second
