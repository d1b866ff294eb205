"""Tests for trace file I/O."""

import gzip

import pytest

from repro.cpu.core import MemoryAccess
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.tracefile import (
    FileTracePattern,
    TraceParseError,
    load_trace,
    read_trace,
    record_trace,
    write_trace,
)


SAMPLE = [
    MemoryAccess(0x1000, is_write=False),
    MemoryAccess(0x2040, is_write=True),
    MemoryAccess(0x1000, is_write=False),
]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "trace.txt"
        assert write_trace(SAMPLE, path) == 3
        restored = load_trace(path)
        assert restored == SAMPLE

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        write_trace(SAMPLE, path)
        # It really is gzip on disk.
        with gzip.open(path, "rt") as handle:
            assert "0x1000" in handle.read()
        assert load_trace(path) == SAMPLE

    def test_record_synthetic_generator(self, tmp_path):
        generator = get_benchmark("gobmk").make_generator()
        generator.bind(
            num_sets=16, block_bytes=64, rng=DeterministicRng(3, "t")
        )
        path = tmp_path / "gobmk.trace"
        assert record_trace(generator, path, count=500) == 500
        restored = load_trace(path)
        assert len(restored) == 500

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\nR 0x40\n# mid comment\nW 0x80\n")
        assert load_trace(path) == [
            MemoryAccess(0x40, is_write=False),
            MemoryAccess(0x80, is_write=True),
        ]


class TestParsing:
    @pytest.mark.parametrize(
        "line",
        ["X 0x40", "R", "R 0x40 extra", "R zzz", "R -0x40"],
    )
    def test_bad_lines_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(line + "\n")
        with pytest.raises(TraceParseError):
            list(read_trace(path))

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R 0x40\nnonsense\n")
        with pytest.raises(TraceParseError, match="line 2"):
            list(read_trace(path))

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R 64\n")
        assert load_trace(path)[0].address == 64


class TestFileTracePattern:
    def test_replays_cyclically(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(SAMPLE, path)
        pattern = FileTracePattern(path)
        pattern.bind(
            num_sets=16,
            block_bytes=64,
            region_base=0,
            rng=DeterministicRng(1, "t"),
        )
        first_cycle = [pattern.next_address() for _ in range(3)]
        second_cycle = [pattern.next_address() for _ in range(3)]
        assert first_cycle == [0x1000, 0x2040, 0x1000]
        assert first_cycle == second_cycle

    def test_region_base_offsets_addresses(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(SAMPLE, path)
        pattern = FileTracePattern(path)
        pattern.bind(
            num_sets=16,
            block_bytes=64,
            region_base=1 << 20,
            rng=DeterministicRng(1, "t"),
        )
        assert pattern.next_address() == (1 << 20) + 0x1000

    def test_preserves_write_bit(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(SAMPLE, path)
        pattern = FileTracePattern(path)
        pattern.bind(
            num_sets=16,
            block_bytes=64,
            region_base=0,
            rng=DeterministicRng(1, "t"),
        )
        kinds = [pattern.next_access().is_write for _ in range(3)]
        assert kinds == [False, True, False]

    def test_footprint_derived_from_distinct_blocks(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(SAMPLE, path)  # two distinct blocks
        pattern = FileTracePattern(path)
        pattern.bind(
            num_sets=16,
            block_bytes=64,
            region_base=0,
            rng=DeterministicRng(1, "t"),
        )
        assert pattern.footprint_ways == pytest.approx(2 / 16)
        assert pattern.trace_length == 3

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no accesses"):
            FileTracePattern(path)

    def test_real_trace_through_a_real_cache(self, tmp_path):
        """End to end: record a synthetic workload, replay the file
        through a cache, and get the identical miss count."""
        from repro.cache.basic import SetAssociativeCache
        from repro.cache.geometry import CacheGeometry

        generator = get_benchmark("hmmer").make_generator()
        generator.bind(
            num_sets=16, block_bytes=64, rng=DeterministicRng(5, "t")
        )
        path = tmp_path / "hmmer.trace.gz"
        record_trace(generator, path, count=2000)

        def misses(accesses):
            cache = SetAssociativeCache(CacheGeometry.from_sets(16, 4, 64))
            for access in accesses:
                cache.access(access.address, is_write=access.is_write)
            return cache.stats.misses

        # Regenerate the same synthetic stream for reference.
        reference = get_benchmark("hmmer").make_generator()
        reference.bind(
            num_sets=16, block_bytes=64, rng=DeterministicRng(5, "t")
        )
        assert misses(read_trace(path)) == misses(
            map(MemoryAccess, *reference.address_block(2000))
        )


class TestTraceFormatError:
    def test_alias_is_the_same_class(self):
        from repro.workloads.tracefile import TraceFormatError

        assert TraceParseError is TraceFormatError

    def test_error_carries_structured_fields(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R 0x40\nR zzz\n")
        with pytest.raises(TraceParseError) as excinfo:
            list(read_trace(path))
        error = excinfo.value
        assert error.line_number == 2
        assert error.path == path
        assert "bad address" in error.detail
        assert str(path) in str(error)

    def test_lenient_skips_bad_lines(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("R 0x40\nnonsense\nW 0x80\nR zzz\n")
        assert load_trace(path, lenient=True) == [
            MemoryAccess(0x40, is_write=False),
            MemoryAccess(0x80, is_write=True),
        ]

    def test_lenient_collects_skipped_line_numbers(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("R 0x40\nnonsense\nW 0x80\nR zzz\n")
        skipped = []
        accesses = list(read_trace(path, lenient=True, skipped=skipped))
        assert len(accesses) == 2
        assert skipped == [2, 4]

    def test_strict_is_the_default(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(TraceParseError, match="line 1"):
            list(read_trace(path))
