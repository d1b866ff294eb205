"""Microarchitectural integration test of resource stealing.

Everything real, nothing curve-based: a donor and a recipient run
interleaved traces through a genuinely partitioned L2 with duplicate
tag arrays; the stealing controller moves ways between them through
the partition ledger.  Asserts the Section 4 contract end to end:

- the donor's cumulative L2 miss increase (as measured by the shadow
  tags) stays below the Elastic slack;
- an insensitive donor gives up most of its partition;
- the recipient's miss rate genuinely improves versus no stealing;
- cancellation returns every stolen way at once.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.core.stealing import ResourceStealingController, StealingAction
from repro.cpu.core import MemoryAccess
from repro.sim.cmp import CmpNode
from repro.sim.config import MachineConfig
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark

DONOR, RECIPIENT = 0, 1
DONOR_WAYS = 7
INTERVAL = 4_000
INTERVALS = 12


def small_machine():
    return MachineConfig(
        num_cores=2,
        l1_geometry=CacheGeometry.from_sets(16, 2, 64),
        l2_geometry=CacheGeometry.from_sets(64, 16, 64),
        shadow_sample_period=8,
    )


def endless(benchmark, base, seed):
    generator = get_benchmark(benchmark).make_generator()
    generator.bind(
        num_sets=64,
        block_bytes=64,
        rng=DeterministicRng(seed, benchmark),
        base_address=base,
    )

    def stream():
        while True:
            yield from map(MemoryAccess, *generator.address_block(1024))

    return stream()


def run_scenario(donor_benchmark, slack, *, steal=True):
    """Returns (node, shadow, controller, cancels, max_stolen)."""
    node = CmpNode(small_machine())
    node.assign_partition(DONOR, DONOR_WAYS, PartitionClass.RESERVED)
    node.assign_partition(RECIPIENT, 0, PartitionClass.BEST_EFFORT)
    node.redistribute_spare()
    shadow = node.attach_shadow(DONOR, baseline_ways=DONOR_WAYS)
    controller = ResourceStealingController(
        slack=slack, baseline_ways=DONOR_WAYS, min_ways=1
    )
    donor_trace = endless(donor_benchmark, base=0, seed=11)
    recipient_trace = endless("bzip2", base=1 << 30, seed=13)

    cancels = 0
    stolen_outstanding = 0
    max_stolen = 0
    for _ in range(INTERVALS):
        node.run_interleaved(
            {DONOR: donor_trace, RECIPIENT: recipient_trace},
            accesses_per_core=INTERVAL,
        )
        if not steal:
            continue
        decision = controller.on_interval(shadow)
        if decision.action is StealingAction.STEAL_ONE:
            node.partitions.transfer(DONOR, RECIPIENT, 1)
            stolen_outstanding += 1
            max_stolen = max(max_stolen, stolen_outstanding)
        elif decision.action is StealingAction.CANCEL:
            cancels += 1
            if stolen_outstanding:
                # Return exactly the stolen ways — the recipient keeps
                # its original spare-capacity grant.
                node.partitions.restore(
                    to_core=DONOR,
                    from_core=RECIPIENT,
                    ways=stolen_outstanding,
                )
                stolen_outstanding = 0
        node.partitions.apply_to_cache(node.l2)
    return node, shadow, controller, cancels, max_stolen


class TestInsensitiveDonor:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_scenario("gobmk", slack=0.05)

    def test_donor_slowdown_within_slack(self, scenario):
        # The controller checks cumulative misses once per interval, so
        # the measured increase can overshoot the slack by at most one
        # interval of lag before cancellation snaps the ways back
        # (Section 4.3's check-then-cancel loop).
        _, shadow, _, _, _ = scenario
        assert shadow.miss_increase_fraction() <= 0.05 + 0.03

    def test_insensitive_donor_gives_up_most_ways(self, scenario):
        _, _, _, _, max_stolen = scenario
        assert max_stolen >= 4

    def test_recipient_improves_over_no_stealing(self):
        with_stealing = run_scenario("gobmk", slack=0.05)[0]
        without = run_scenario("gobmk", slack=0.05, steal=False)[0]
        improved = with_stealing.l2.stats.core(RECIPIENT).miss_rate
        baseline = without.l2.stats.core(RECIPIENT).miss_rate
        assert improved < baseline

    def test_ledger_and_cache_stay_consistent(self, scenario):
        node, _, controller, _, _ = scenario
        assert (
            node.partitions.reserved_allocation(DONOR)
            == controller.current_ways
        )
        assert node.l2.target_of(DONOR) == controller.current_ways
        total = sum(node.partitions.allocation(c) for c in range(2))
        assert total <= 16


class TestSensitiveDonor:
    def test_sensitive_donor_triggers_cancellation(self):
        # A cache-hungry donor (mcf) cannot give much away before the
        # shadow tags catch the miss surge: stealing cancels and the
        # ways snap back.
        node, shadow, controller, cancels, _ = run_scenario(
            "mcf", slack=0.02
        )
        assert cancels >= 1
        # After a cancel, all stolen ways were returned at that moment;
        # the controller may have re-armed since, but never exceeds the
        # cumulative budget by much (one interval of lag at most).
        assert shadow.miss_increase_fraction() < 0.10

    def test_sensitive_donor_keeps_more_than_insensitive(self):
        hungry = run_scenario("mcf", slack=0.02)[4]
        generous = run_scenario("gobmk", slack=0.02)[4]
        # The cache-hungry donor never sustains as deep a donation.
        assert hungry <= generous
