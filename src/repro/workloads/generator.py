"""Trace generation from weighted pattern mixtures.

A benchmark's L2 access stream is modelled as a weighted interleaving
of pattern primitives (loops, Zipf pools, streams).  Each component gets
a private, non-overlapping address region; per access, one component is
drawn by weight and asked for its next address.  Traces come out as two
flat lists (:meth:`TraceGenerator.address_block`), which the profiler
draws once per curve and replays into a cache at every way count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.util.rng import DeterministicRng
from repro.util.validation import check_fraction, check_positive
from repro.workloads.patterns import AccessPattern


@dataclass(frozen=True)
class MixtureComponent:
    """One weighted component of a benchmark's access mixture."""

    pattern: AccessPattern
    weight: float

    def __post_init__(self) -> None:
        check_positive("weight", self.weight)


class TraceGenerator:
    """Generates a benchmark's L2 access trace for one job instance.

    Parameters
    ----------
    components:
        Weighted pattern mixture.  Patterns are bound lazily to the
        geometry passed to :meth:`bind`.
    write_fraction:
        Probability that an access is a write (creates dirty blocks and
        hence write-back traffic).
    """

    # Regions are spaced on large power-of-two boundaries so different
    # jobs' and components' addresses can never collide.
    REGION_ALIGNMENT = 1 << 26  # 64 MB

    def __init__(
        self,
        components: Sequence[MixtureComponent],
        *,
        write_fraction: float = 0.2,
    ) -> None:
        if not components:
            raise ValueError("a trace needs at least one mixture component")
        check_fraction("write_fraction", write_fraction)
        self.components: List[MixtureComponent] = list(components)
        self.write_fraction = write_fraction
        self._bound = False

    def bind(
        self,
        *,
        num_sets: int,
        block_bytes: int,
        rng: DeterministicRng,
        base_address: int = 0,
    ) -> None:
        """Bind all components to a geometry and private regions.

        ``base_address`` offsets the whole job's address space, letting
        multiple jobs share one cache without address collisions.
        """
        self._rng = rng
        region = base_address
        for index, component in enumerate(self.components):
            component.pattern.bind(
                num_sets=num_sets,
                block_bytes=block_bytes,
                region_base=region,
                rng=rng.stream(f"component-{index}"),
            )
            needed = component.pattern.region_bytes()
            slots = (needed + self.REGION_ALIGNMENT - 1) // self.REGION_ALIGNMENT
            region += max(1, slots) * self.REGION_ALIGNMENT
        self._weights = [component.weight for component in self.components]
        self._pick_rng = rng.stream("component-pick")
        self._write_rng = rng.stream("write-pick")
        self._bound = True

    @property
    def footprint_ways(self) -> float:
        """Total footprint of all components, in ways-worth of blocks."""
        return sum(component.pattern.footprint_ways for component in self.components)

    def address_block(self, count: int) -> Tuple[List[int], List[bool]]:
        """Draw the next ``count`` accesses as ``(addresses, writes)``.

        Two flat lists, the shape ``access_block`` takes, rather than an
        object or tuple per access.  Successive calls continue the same
        stream, so a trace drawn in several blocks is the same trace.
        """
        if not self._bound:
            raise RuntimeError("bind() must be called before generating")
        check_positive("count", count)
        addresses: List[int] = []
        writes: List[bool] = []
        write_rng, write_fraction = self._write_rng, self.write_fraction
        components = self.components
        if len(components) == 1:
            only = components[0].pattern
            for _ in range(count):
                addresses.append(only.next_address())
                writes.append(write_rng.uniform() < write_fraction)
            return addresses, writes
        for _ in range(count):
            component = self._pick_rng.weighted_choice(components, self._weights)
            addresses.append(component.pattern.next_address())
            writes.append(write_rng.uniform() < write_fraction)
        return addresses, writes
