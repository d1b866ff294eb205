"""Tests for the mixture trace generator."""

import pytest

from repro.util.rng import DeterministicRng
from repro.workloads.generator import MixtureComponent, TraceGenerator
from repro.workloads.patterns import LoopPattern, StreamingPattern, ZipfPattern


def make_generator(write_fraction=0.2):
    return TraceGenerator(
        [
            MixtureComponent(LoopPattern(2.0), 0.5),
            MixtureComponent(ZipfPattern(1.0), 0.3),
            MixtureComponent(StreamingPattern(8.0), 0.2),
        ],
        write_fraction=write_fraction,
    )


def bind(generator, *, num_sets=8, seed=1, base=0):
    generator.bind(
        num_sets=num_sets,
        block_bytes=64,
        rng=DeterministicRng(seed, "test"),
        base_address=base,
    )
    return generator


class TestConstruction:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            TraceGenerator([])

    def test_write_fraction_validated(self):
        with pytest.raises(ValueError):
            TraceGenerator(
                [MixtureComponent(LoopPattern(1.0), 1.0)], write_fraction=1.5
            )

    def test_component_weight_positive(self):
        with pytest.raises(ValueError):
            MixtureComponent(LoopPattern(1.0), 0.0)

    def test_footprint_sums_components(self):
        assert make_generator().footprint_ways == pytest.approx(11.0)


class TestGeneration:
    def test_unbound_generator_rejects(self):
        with pytest.raises(RuntimeError):
            make_generator().address_block(1)

    def test_generates_requested_count(self):
        generator = bind(make_generator())
        addresses, writes = generator.address_block(100)
        assert len(addresses) == len(writes) == 100

    def test_deterministic_given_seed(self):
        a = bind(make_generator(), seed=3)
        b = bind(make_generator(), seed=3)
        assert a.address_block(200) == b.address_block(200)

    def test_write_fraction_approximated(self):
        generator = bind(make_generator(write_fraction=0.3))
        _, writes = generator.address_block(3000)
        assert 0.2 < sum(writes) / 3000 < 0.4

    def test_zero_write_fraction(self):
        generator = bind(make_generator(write_fraction=0.0))
        _, writes = generator.address_block(500)
        assert not any(writes)


class TestRegionIsolation:
    def test_components_never_share_addresses(self):
        generator = bind(make_generator())
        regions = []
        for component in generator.components:
            base = component.pattern.region_base
            regions.append((base, base + component.pattern.region_bytes()))
        regions.sort()
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2

    def test_two_jobs_with_different_bases_do_not_collide(self):
        a = bind(make_generator(), base=0)
        b = bind(make_generator(), base=1 << 32)
        addresses_a, _ = a.address_block(500)
        addresses_b, _ = b.address_block(500)
        assert not set(addresses_a) & set(addresses_b)

    def test_single_component_fast_path(self):
        generator = TraceGenerator(
            [MixtureComponent(LoopPattern(1.0), 1.0)]
        )
        bind(generator, num_sets=4)
        addresses, _ = generator.address_block(8)
        assert addresses[:4] == addresses[4:]
