"""Tests for the fifteen benchmark profiles."""

import pytest

from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import (
    BENCHMARKS,
    REPRESENTATIVES,
    BenchmarkProfile,
    ComponentSpec,
    get_benchmark,
)


class TestCatalogue:
    def test_fifteen_benchmarks(self):
        # The paper evaluates fifteen SPEC2006 C/C++ benchmarks.
        assert len(BENCHMARKS) == 15

    def test_paper_names_present(self):
        expected = {
            "gcc", "bzip2", "perl", "gobmk", "mcf", "hmmer", "sjeng",
            "libquantum", "h264ref", "milc", "astar", "namd", "soplex",
            "povray", "sphinx",
        }
        assert set(BENCHMARKS) == expected

    def test_five_per_group(self):
        for group in (1, 2, 3):
            members = [p for p in BENCHMARKS.values() if p.group == group]
            assert len(members) == 5, f"group {group}"

    def test_representatives_match_paper(self):
        assert REPRESENTATIVES == {1: "bzip2", 2: "hmmer", 3: "gobmk"}
        for group, name in REPRESENTATIVES.items():
            assert BENCHMARKS[name].group == group

    def test_get_benchmark_unknown(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("soplex2")


class TestTable1Parameters:
    def test_bzip2_mpi_near_table1(self):
        # Table 1: bzip2 MPI 0.0055 at a 20% miss rate -> h2 = 0.0275.
        assert BENCHMARKS["bzip2"].l2_accesses_per_instruction == pytest.approx(
            0.0275
        )

    def test_hmmer_h2(self):
        # Table 1: hmmer MPI 0.001 at 17% -> h2 ~ 0.0059.
        assert BENCHMARKS["hmmer"].l2_accesses_per_instruction == pytest.approx(
            0.0059
        )

    def test_gobmk_h2(self):
        # Table 1: gobmk MPI 0.004 at 24% -> h2 ~ 0.0167.
        assert BENCHMARKS["gobmk"].l2_accesses_per_instruction == pytest.approx(
            0.0167
        )


class TestProfileMechanics:
    def test_generator_is_fresh_per_call(self):
        profile = BENCHMARKS["bzip2"]
        assert profile.make_generator() is not profile.make_generator()

    def test_generators_reproduce_with_same_seed(self):
        profile = BENCHMARKS["hmmer"]
        streams = []
        for _ in range(2):
            generator = profile.make_generator()
            generator.bind(
                num_sets=16, block_bytes=64, rng=DeterministicRng(5, "t")
            )
            streams.append(generator.address_block(300))
        assert streams[0] == streams[1]

    def test_cpi_model_uses_machine_latencies(self):
        model = BENCHMARKS["bzip2"].cpi_model(
            l2_latency=10.0, memory_latency=300.0
        )
        assert model.l2_access_penalty == 10.0
        assert model.l2_miss_penalty == 300.0

    def test_instruction_access_round_trip(self):
        profile = BENCHMARKS["bzip2"]
        accesses = profile.accesses_for_instructions(2_000_000)
        assert profile.instructions_for_accesses(accesses) == pytest.approx(
            2_000_000, rel=0.01
        )

    def test_hot_footprint_excludes_streams(self):
        profile = BENCHMARKS["bzip2"]
        total = sum(c.footprint_ways for c in profile.components)
        assert profile.hot_footprint_ways < total
        assert profile.hot_footprint_ways == pytest.approx(
            sum(
                c.footprint_ways
                for c in profile.components
                if c.kind != "stream"
            )
        )

    def test_component_spec_builds_each_kind(self):
        assert ComponentSpec("loop", 1.0, 1.0).build()
        assert ComponentSpec("zipf", 1.0, 1.0).build()
        assert ComponentSpec("stream", 1.0, 1.0).build()
        with pytest.raises(ValueError):
            ComponentSpec("gauss", 1.0, 1.0).build()

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="group"):
            BenchmarkProfile(
                name="x",
                group=4,
                components=(ComponentSpec("loop", 1.0, 1.0),),
                l2_accesses_per_instruction=0.01,
                cpi_l1_inf=1.0,
            )
        with pytest.raises(ValueError, match="components"):
            BenchmarkProfile(
                name="x",
                group=1,
                components=(),
                l2_accesses_per_instruction=0.01,
                cpi_l1_inf=1.0,
            )
