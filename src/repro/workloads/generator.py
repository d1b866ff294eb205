"""Trace generation from weighted pattern mixtures.

A benchmark's L2 access stream is modelled as a weighted interleaving
of pattern primitives (loops, Zipf pools, streams).  Each component gets
a private, non-overlapping address region; per access, one component is
drawn by weight and asked for its next address.  Traces come out as
flat lists: :meth:`TraceGenerator.address_block` draws addresses and
write flags, :meth:`TraceGenerator.addresses` the addresses alone,
which the profiler draws once per curve and measures at every way count
in one pass.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
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
        # What ``random.choices`` would derive on every pick, derived
        # once: a pick is its own ``bisect(cum, random() * total, 0, hi)``
        # on the pick stream's raw draw, so it picks the same component.
        self._cum_weights = list(accumulate(c.weight for c in self.components))
        self._total_weight = self._cum_weights[-1] + 0.0
        self._last_component = len(self.components) - 1
        self._next_addresses = [c.pattern.next_address for c in self.components]
        self._pick_rng = rng.stream("component-pick")
        self._write_rng = rng.stream("write-pick")
        self._bound = True

    @property
    def footprint_ways(self) -> float:
        """Total footprint of all components, in ways-worth of blocks."""
        return sum(component.pattern.footprint_ways for component in self.components)

    def addresses(self, count: int) -> List[int]:
        """Draw the next ``count`` addresses, without write flags.

        One component pick and one ``next_address`` per access, in the
        order :meth:`address_block` draws them.  The write flags come
        from a stream of their own, so leaving them out changes no
        address: the LRU stack pass, which reads no flag, draws only
        these.
        """
        if not self._bound:
            raise RuntimeError("bind() must be called before generating")
        check_positive("count", count)
        next_addresses = self._next_addresses
        if len(next_addresses) == 1:
            only = next_addresses[0]
            return [only() for _ in range(count)]
        pick = self._pick_rng.random
        cum, total, hi = self._cum_weights, self._total_weight, self._last_component
        return [
            next_addresses[bisect(cum, pick() * total, 0, hi)]()
            for _ in range(count)
        ]

    def address_block(self, count: int) -> Tuple[List[int], List[bool]]:
        """Draw the next ``count`` accesses as ``(addresses, writes)``.

        Two flat lists, the shape ``access_block`` takes, rather than an
        object or tuple per access: :meth:`addresses`, then one
        write-flag draw per access (``random() < write_fraction``).
        Successive calls continue the same streams, so a trace drawn in
        several blocks is the same trace.
        """
        addresses = self.addresses(count)
        draw, write_fraction = self._write_rng.random, self.write_fraction
        return addresses, [draw() < write_fraction for _ in range(count)]
