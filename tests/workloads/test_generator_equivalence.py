"""Trace generation in flat lists against the per-access oracle.

``TraceGenerator.address_block`` returns a trace as two flat lists,
``TraceGenerator.addresses`` its addresses alone, and
``measure_miss_rates`` draws one trace per curve and counts every way
count's misses in one LRU stack pass.  The oracles below are the
per-access loop they replaced, kept verbatim: one ``weighted_choice``
per component pick, one ``next_address`` per access and
``uniform() < wf`` per write flag, all drawn from the generator's
bound streams; the Zipf draw ``ZipfPattern`` replaced, the harmonic
CDF built entry by entry and searched by a ``while lo < hi`` loop on
the pattern's own stream; and a per-way replay that regenerates the
trace for each way count's own cache.  Every miss-ratio curve, golden
and stored curve rests on them agreeing access for access.
"""

import pytest

from repro.cache.backend import make_cache
from repro.cache.fastsim import lru_stack_misses
from repro.cache.geometry import CacheGeometry
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.generator import MixtureComponent, TraceGenerator
from repro.workloads.patterns import (
    LoopPattern,
    PhasedPattern,
    StreamingPattern,
    ZipfPattern,
)
from repro.workloads.profiler import measure_miss_rates
from repro.workloads.tracefile import FileTracePattern


def oracle_trace(generator, count):
    """The per-access generation loop, as ``(address, is_write)`` pairs."""
    components = generator.components
    trace = []
    if len(components) == 1:
        only = components[0].pattern
        for _ in range(count):
            trace.append(
                (
                    only.next_address(),
                    generator._write_rng.uniform() < generator.write_fraction,
                )
            )
        return trace
    weights = [component.weight for component in components]
    for _ in range(count):
        component = generator._pick_rng.weighted_choice(components, weights)
        trace.append(
            (
                component.pattern.next_address(),
                generator._write_rng.uniform() < generator.write_fraction,
            )
        )
    return trace


def oracle_zipf_addresses(pattern, twin, count):
    """``count`` Zipf draws as the old ``DeterministicRng.zipf_index`` made them.

    ``twin`` is a fresh copy of the stream ``pattern`` was bound to.
    The ranks are shuffled over the blocks, the harmonic CDF is built
    entry by entry, and each draw searches it with a ``while lo < hi``
    loop for the first rank whose CDF reaches the draw.
    """
    n, alpha = pattern.num_blocks, pattern.alpha
    rank_to_block = list(range(n))
    twin.shuffle(rank_to_block)
    weights = [1.0 / ((i + 1) ** alpha) for i in range(n)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    addresses = []
    for _ in range(count):
        u = twin._random.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        addresses.append(
            pattern.region_base + rank_to_block[lo] * pattern.block_bytes
        )
    return addresses


def bound_pair(make, *, num_sets=16, seed=5):
    """Two identically bound generators: one per side of a comparison."""
    pair = []
    for _ in range(2):
        generator = make()
        generator.bind(
            num_sets=num_sets,
            block_bytes=64,
            rng=DeterministicRng(seed, "equivalence"),
            base_address=1 << 30,
        )
        pair.append(generator)
    return pair


def block_trace(generator, *splits):
    addresses, writes = [], []
    for count in splits:
        block_addresses, block_writes = generator.address_block(count)
        assert len(block_addresses) == len(block_writes) == count
        addresses += block_addresses
        writes += block_writes
    return list(zip(addresses, writes))


def phased():
    return PhasedPattern(
        [LoopPattern(1.5), ZipfPattern(3.0, alpha=0.8), StreamingPattern(40.0)],
        phase_length=37,
    )


MIXTURES = {
    "phased-mixture": lambda: TraceGenerator(
        [
            MixtureComponent(phased(), 0.6),
            MixtureComponent(ZipfPattern(2.0, alpha=1.3), 0.4),
        ]
    ),
    "phased-only": lambda: TraceGenerator([MixtureComponent(phased(), 1.0)]),
    "loop-only": lambda: TraceGenerator([MixtureComponent(LoopPattern(3.0), 1.0)]),
    "zipf-only": lambda: TraceGenerator(
        [MixtureComponent(ZipfPattern(6.0, alpha=0.9), 1.0)]
    ),
    "stream-only": lambda: TraceGenerator(
        [MixtureComponent(StreamingPattern(32.0), 1.0)]
    ),
    "never-writes": lambda: TraceGenerator(
        [
            MixtureComponent(LoopPattern(2.0), 0.5),
            MixtureComponent(ZipfPattern(4.0), 0.5),
        ],
        write_fraction=0.0,
    ),
    "always-writes": lambda: TraceGenerator(
        [
            MixtureComponent(LoopPattern(2.0), 0.5),
            MixtureComponent(StreamingPattern(64.0), 0.5),
        ],
        write_fraction=1.0,
    ),
}


class TestAddressBlock:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_benchmark_profile(self, name):
        block, oracle = bound_pair(BENCHMARKS[name].make_generator)
        assert block_trace(block, 3000) == oracle_trace(oracle, 3000)

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_synthetic_mixtures(self, name):
        block, oracle = bound_pair(MIXTURES[name])
        assert block_trace(block, 3000) == oracle_trace(oracle, 3000)

    def test_write_fraction_extremes_are_exercised(self):
        never, _ = bound_pair(MIXTURES["never-writes"])
        always, _ = bound_pair(MIXTURES["always-writes"])
        assert not any(never.address_block(500)[1])
        assert all(always.address_block(500)[1])

    def test_file_trace_component(self, tmp_path):
        path = tmp_path / "small.trace"
        path.write_text("R 0x40\nW 0x80\nR 0x1000\nW 0x40\nR 0x2040\n")

        def make():
            return TraceGenerator(
                [
                    MixtureComponent(FileTracePattern(path), 0.3),
                    MixtureComponent(ZipfPattern(2.0), 0.7),
                ]
            )

        block, oracle = bound_pair(make)
        assert block_trace(block, 2000) == oracle_trace(oracle, 2000)

    @pytest.mark.parametrize("splits", [(1, 999, 3000), (4000,), (7, 7, 3986)])
    def test_uneven_blocks_concatenate_to_one_stream(self, splits):
        for make in (BENCHMARKS["gobmk"].make_generator, MIXTURES["phased-mixture"]):
            block, oracle = bound_pair(make)
            assert block_trace(block, *splits) == oracle_trace(oracle, 4000)


class TestZipfDraw:
    """``ZipfPattern`` against the search it replaced, draw for draw."""

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.3])
    @pytest.mark.parametrize("num_blocks", [1, 2, 7, 96, 1000])
    def test_matches_the_per_draw_search(self, num_blocks, alpha):
        pattern = ZipfPattern(num_blocks / 16, alpha=alpha)
        pattern.bind(
            num_sets=16,
            block_bytes=64,
            region_base=1 << 30,
            rng=DeterministicRng(5, "zipf"),
        )
        assert pattern.num_blocks == num_blocks
        twin = DeterministicRng(5, "zipf")
        expected = oracle_zipf_addresses(pattern, twin, 4000)
        assert [pattern.next_address() for _ in range(4000)] == expected
        # One draw per access, as before: the streams end level.
        assert pattern.rng.uniform() == twin.uniform()


class TestAddresses:
    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_addresses_are_the_block_addresses(self, name):
        alone, block = bound_pair(MIXTURES[name])
        addresses, _ = block.address_block(3000)
        assert alone.addresses(1000) + alone.addresses(2000) == addresses

    @pytest.mark.parametrize("name", ["bzip2", "gobmk", "sjeng"])
    def test_addresses_match_the_oracle(self, name):
        alone, oracle = bound_pair(BENCHMARKS[name].make_generator)
        expected = [address for address, _ in oracle_trace(oracle, 3000)]
        assert alone.addresses(3000) == expected


def regenerating_oracle(
    profile, *, ways_list, num_sets, block_bytes, accesses, warmup, seed, backend
):
    """Per-way profiling that regenerates the trace for every way count."""
    points = {}
    for ways in ways_list:
        geometry = CacheGeometry.from_sets(num_sets, ways, block_bytes)
        cache = make_cache(geometry, backend=backend)
        generator = profile.make_generator()
        generator.bind(
            num_sets=num_sets,
            block_bytes=block_bytes,
            rng=DeterministicRng(seed, f"profile-{profile.name}"),
        )
        trace = oracle_trace(generator, warmup + accesses)
        if warmup:
            addresses, writes = zip(*trace[:warmup])
            cache.access_block(addresses, writes)
        addresses, writes = zip(*trace[warmup:])
        points[ways] = cache.access_block(addresses, writes).miss_rate
    return points


class RefusingStream:
    """A write stream that fails the test when anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the write stream ({name})")


def refuse_write_streams(monkeypatch):
    """Make every generator's ``write-pick`` stream a ``RefusingStream``.

    Returns the list of refusing streams built, so a test can check
    that the generator it drives really got one.
    """
    built = []
    stream = DeterministicRng.stream

    def refusing_stream(self, label):
        if label != "write-pick":
            return stream(self, label)
        built.append(RefusingStream())
        return built[-1]

    monkeypatch.setattr(DeterministicRng, "stream", refusing_stream)
    return built


def assert_matches_oracle(name, **overrides):
    kwargs = dict(
        ways_list=(1, 2, 4, 8),
        num_sets=16,
        block_bytes=64,
        accesses=2500,
        warmup=500,
        seed=11,
        backend="fast",
    )
    kwargs.update(overrides)
    measured = measure_miss_rates(BENCHMARKS[name], **kwargs)
    expected = regenerating_oracle(BENCHMARKS[name], **kwargs)
    assert list(measured.items()) == list(expected.items())


class TestMeasureMissRates:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize(
        "name, ways_list, warmup",
        [
            ("bzip2", (1, 2, 4, 8), 500),
            ("mcf", (6, 2, 6, 1, 9, 2), 0),
            ("libquantum", (3, 1), 700),
            ("gobmk", (1,), 500),
            ("hmmer", (16, 1, 16), 500),
            ("sjeng", (20, 5), 500),
            ("bzip2", tuple(range(1, 17)), 0),
        ],
    )
    def test_matches_regenerating_oracle(self, backend, name, ways_list, warmup):
        assert_matches_oracle(
            name, ways_list=ways_list, warmup=warmup, backend=backend
        )

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_single_set(self, backend):
        assert_matches_oracle(
            "hmmer", ways_list=tuple(range(1, 17)), num_sets=1, backend=backend
        )

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_benchmark_profile(self, backend, name):
        assert_matches_oracle(
            name,
            ways_list=tuple(range(1, 17)),
            num_sets=4,
            accesses=600,
            warmup=200,
            backend=backend,
        )

    def test_bad_way_count_raises_before_generating(self, monkeypatch):
        def refuse(self, count):
            raise AssertionError("generated a trace for a bad ways_list")

        monkeypatch.setattr(TraceGenerator, "address_block", refuse)
        monkeypatch.setattr(TraceGenerator, "addresses", refuse)
        for backend in ("fast", "reference"):
            with pytest.raises(ValueError, match="ways must be positive"):
                measure_miss_rates(
                    BENCHMARKS["bzip2"], ways_list=(2, 0), backend=backend
                )

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_fast_backend_draws_no_write_flag(self, monkeypatch, name):
        kwargs = dict(
            ways_list=tuple(range(1, 17)),
            num_sets=4,
            block_bytes=64,
            accesses=600,
            warmup=200,
            seed=11,
            backend="fast",
        )
        expected = regenerating_oracle(BENCHMARKS[name], **kwargs)
        refusing = refuse_write_streams(monkeypatch)
        measured = measure_miss_rates(BENCHMARKS[name], **kwargs)
        assert len(refusing) == 1  # the generator's write stream
        assert list(measured.items()) == list(expected.items())

    def test_reference_backend_still_draws_write_flags(self, monkeypatch):
        refuse_write_streams(monkeypatch)
        with pytest.raises(AssertionError, match="drew from the write stream"):
            measure_miss_rates(
                BENCHMARKS["bzip2"], ways_list=(1, 2), backend="reference"
            )


class TestLruStackMisses:
    def test_hand_worked_single_set(self):
        # One set, blocks A B A C B A D A.  Stack positions (MRU = 0) of
        # the re-references: A at 1, B at 2, A at 2, A at 1, so a 1-way
        # set hits none of them, 2 ways hit the two at position 1, and 3
        # or more ways hit all four.
        geometry = CacheGeometry.from_sets(1, 4, 64)
        a, b, c, d = (64 * n for n in (1, 2, 3, 4))
        trace = [a, b, a, c, b, a, d, a]
        assert lru_stack_misses(geometry, trace) == [8, 8, 6, 4, 4]

    def test_warmup_moves_the_stacks_but_counts_nothing(self):
        geometry = CacheGeometry.from_sets(1, 2, 64)
        a, b, c = (64 * n for n in (1, 2, 3))
        # Cold, A C A misses three times at one way and twice at two.
        # The warm-up A B B leaves the stack (B, A), so the first A hits
        # at two ways too, and B's warm-up hit counts nowhere.
        assert lru_stack_misses(geometry, [a, c, a]) == [3, 3, 2]
        assert lru_stack_misses(geometry, [a, c, a], warmup=[a, b, b]) == [
            3, 3, 1,
        ]
