"""Trace generation in flat lists against the per-access oracle.

``TraceGenerator.address_block`` returns a trace as two flat lists,
and ``measure_miss_rates`` draws one trace per curve and replays it
into every way count.  The oracle below is the per-access loop they
replaced, kept verbatim: one ``weighted_choice`` per component pick,
one ``next_address`` per access and ``uniform() < wf`` per write flag,
all drawn from the generator's bound streams.  Every miss-ratio curve,
golden and stored curve rests on the two agreeing access for access.
"""

import pytest

from repro.cache.backend import make_cache
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
    for _ in range(count):
        component = generator._pick_rng.weighted_choice(
            components, generator._weights
        )
        trace.append(
            (
                component.pattern.next_address(),
                generator._write_rng.uniform() < generator.write_fraction,
            )
        )
    return trace


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


class TestMeasureMissRates:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize(
        "name, ways_list, warmup",
        [
            ("bzip2", (1, 2, 4, 8), 500),
            ("mcf", (6, 2, 6, 1, 9, 2), 0),
            ("libquantum", (3, 1), 700),
        ],
    )
    def test_matches_regenerating_oracle(self, backend, name, ways_list, warmup):
        kwargs = dict(
            ways_list=ways_list,
            num_sets=16,
            block_bytes=64,
            accesses=2500,
            warmup=warmup,
            seed=11,
            backend=backend,
        )
        measured = measure_miss_rates(BENCHMARKS[name], **kwargs)
        expected = regenerating_oracle(BENCHMARKS[name], **kwargs)
        assert list(measured.items()) == list(expected.items())

    def test_bad_way_count_raises_before_generating(self, monkeypatch):
        def refuse(self, count):
            raise AssertionError("generated a trace for a bad ways_list")

        monkeypatch.setattr(TraceGenerator, "address_block", refuse)
        with pytest.raises(ValueError, match="ways must be positive"):
            measure_miss_rates(BENCHMARKS["bzip2"], ways_list=(2, 0))
