"""Machine-model and simulation configuration (Section 6 of the paper).

Every experiment shares one :class:`MachineConfig` describing the
4-core CMP, and a :class:`SimulationConfig` holding the workload-side
knobs (instruction counts, arrival process, measurement size).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry
from repro.mem.bandwidth import BandwidthModel
from repro.mem.dram import DramModel
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MachineConfig:
    """The Section 6 machine: 4 in-order cores, shared 2 MB L2."""

    num_cores: int = 4
    clock_hz: float = 2.0e9
    l1_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=32 * 1024, associativity=4, block_bytes=64
        )
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=2 * 1024 * 1024, associativity=16, block_bytes=64
        )
    )
    l1_latency: float = 2.0
    l2_latency: float = 10.0
    memory_latency: float = 300.0
    memory_size_bytes: int = 4 * 1024**3
    peak_bandwidth_bytes_per_second: float = 6.4e9
    shadow_sample_period: int = 8
    repartition_interval_instructions: int = 2_000_000
    # OS scheduler timeslice (used by the EqualPart baseline's
    # timesharing model; Linux-like ~10 ms).
    timeslice_seconds: float = 0.01

    def __post_init__(self) -> None:
        check_positive("num_cores", self.num_cores)
        check_positive("clock_hz", self.clock_hz)
        check_positive("l1_latency", self.l1_latency)
        check_positive("l2_latency", self.l2_latency)
        check_positive("memory_latency", self.memory_latency)
        check_positive(
            "repartition_interval_instructions",
            self.repartition_interval_instructions,
        )
        check_positive("timeslice_seconds", self.timeslice_seconds)

    @property
    def l2_ways(self) -> int:
        """Associativity of the shared L2 (the partitionable unit)."""
        return self.l2_geometry.associativity

    def make_dram(self) -> DramModel:
        """Fresh DRAM model with this machine's parameters."""
        return DramModel(
            latency_cycles=self.memory_latency,
            size_bytes=self.memory_size_bytes,
        )

    def make_bandwidth_model(self) -> BandwidthModel:
        """Fresh bus bandwidth model with this machine's parameters."""
        return BandwidthModel(
            peak_bytes_per_second=self.peak_bandwidth_bytes_per_second,
            clock_hz=self.clock_hz,
            block_bytes=self.l2_geometry.block_bytes,
        )

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert wall-clock seconds to machine cycles."""
        return seconds * self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert machine cycles to wall-clock seconds."""
        return cycles / self.clock_hz


@dataclass(frozen=True)
class SimulationConfig:
    """Workload-side knobs shared by the experiment harness.

    The paper simulates 200 M instructions per job; execution time is
    linear in instruction count under the curve-based timing model, so
    normalised results are invariant to ``instructions_per_job`` (kept
    at the paper's value by default, reducible for fast tests).

    ``probe_interarrival_fraction`` positions the Poisson probe rate:
    the paper assumes a 128-CMP server at full utilisation, giving
    4 × 128 arrivals per job wall-clock time, i.e. a mean inter-arrival
    of ``tw / 512``.
    """

    instructions_per_job: int = 200_000_000
    accepted_jobs_target: int = 10
    probe_interarrival_fraction: float = 1.0 / 512.0
    seed: int = 42
    profile_num_sets: int = 64
    profile_accesses: int = 40_000
    # Admission queue discipline: the paper's plain FCFS, or EASY
    # backfilling (later jobs may be admitted when they cannot delay
    # the blocked head's earliest start).
    queue_policy: str = "fcfs"

    def __post_init__(self) -> None:
        check_positive("instructions_per_job", self.instructions_per_job)
        check_positive("accepted_jobs_target", self.accepted_jobs_target)
        check_positive(
            "probe_interarrival_fraction", self.probe_interarrival_fraction
        )
        check_positive("profile_num_sets", self.profile_num_sets)
        check_positive("profile_accesses", self.profile_accesses)
        if self.queue_policy not in ("fcfs", "backfill"):
            raise ValueError(
                f"queue_policy must be 'fcfs' or 'backfill', got "
                f"{self.queue_policy!r}"
            )
