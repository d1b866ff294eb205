"""Resource stealing on the real microarchitecture (Section 4).

Runs an Elastic(5%) cache-insensitive job (gobmk) next to an
Opportunistic cache-hungry job (bzip2) on a trace-driven CMP node with
a genuinely partitioned L2 and duplicate (shadow) tag arrays.  The
stealing controller takes one way per repartitioning interval from the
Elastic donor and hands it to the Opportunistic recipient, watching the
shadow tags; if the donor's cumulative L2 misses ever exceed the
no-stealing baseline by more than 5%, everything is returned at once.

This is the Mix-1 scenario of Table 3 at cache granularity: the flat
donor gives up almost its whole partition while staying inside its
slack, and the recipient's miss rate falls.

Run with:  python examples/resource_stealing_demo.py
"""

from repro import CmpNode, MachineConfig, CacheGeometry, PartitionClass
from repro.core.stealing import ResourceStealingController, StealingAction
from repro.cpu.core import MemoryAccess
from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import get_benchmark

DONOR_CORE, RECIPIENT_CORE = 0, 1
DONOR_WAYS = 7
SLACK = 0.05
INTERVAL_ACCESSES = 4_000  # repartitioning interval, in L2 accesses
INTERVALS = 14


def endless_trace(benchmark, base, seed):
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


def main():
    # A scaled-down node (64-set L2) keeps the demo fast; the mechanism
    # is identical at full scale.
    machine = MachineConfig(
        num_cores=2,
        l1_geometry=CacheGeometry.from_sets(16, 2, 64),
        l2_geometry=CacheGeometry.from_sets(64, 16, 64),
        shadow_sample_period=8,
    )
    node = CmpNode(machine)
    node.assign_partition(DONOR_CORE, DONOR_WAYS, PartitionClass.RESERVED)
    node.assign_partition(RECIPIENT_CORE, 0, PartitionClass.BEST_EFFORT)
    node.redistribute_spare()

    shadow = node.attach_shadow(DONOR_CORE, baseline_ways=DONOR_WAYS)
    # Floor the donor at 2 ways: gobmk's tiny hot set lives in its last
    # way or two, so stopping above the cliff lets the donation be
    # sustained instead of oscillating through cancel-and-return.
    controller = ResourceStealingController(
        slack=SLACK, baseline_ways=DONOR_WAYS, min_ways=2
    )

    donor_trace = endless_trace("gobmk", base=0, seed=11)
    recipient_trace = endless_trace("bzip2", base=1 << 30, seed=13)

    print(
        f"donor: gobmk Elastic({SLACK:.0%}) with {DONOR_WAYS} ways | "
        f"recipient: bzip2 Opportunistic\n"
    )
    print(
        f"{'interval':>8} | {'donor ways':>10} | {'miss incr':>9} | "
        f"{'action':>9} | {'recipient miss rate':>19}"
    )

    stolen_outstanding = 0
    for interval in range(1, INTERVALS + 1):
        node.run_interleaved(
            {
                DONOR_CORE: donor_trace,
                RECIPIENT_CORE: recipient_trace,
            },
            accesses_per_core=INTERVAL_ACCESSES,
        )
        decision = controller.on_interval(shadow)
        # Apply the decision to the real partition ledger.
        if decision.action is StealingAction.STEAL_ONE:
            node.partitions.transfer(DONOR_CORE, RECIPIENT_CORE, 1)
            stolen_outstanding += 1
        elif decision.action is StealingAction.CANCEL:
            if stolen_outstanding:
                # Return exactly the stolen ways; the recipient keeps
                # its original spare-capacity grant.
                node.partitions.restore(
                    to_core=DONOR_CORE, from_core=RECIPIENT_CORE,
                    ways=stolen_outstanding,
                )
                stolen_outstanding = 0
        node.partitions.apply_to_cache(node.l2)

        recipient = node.l2.stats.core(RECIPIENT_CORE)
        print(
            f"{interval:>8} | {decision.elastic_ways:>10} | "
            f"{decision.miss_increase:>8.1%} | "
            f"{decision.action.value:>9} | {recipient.miss_rate:>19.1%}"
        )

    print(
        f"\nfinal: donor kept {controller.current_ways} way(s), donated "
        f"{controller.stolen_ways}; cumulative donor miss increase "
        f"{shadow.miss_increase_fraction():.1%} (slack {SLACK:.0%}); "
        f"shadow-tag storage overhead "
        f"{shadow.storage_overhead_fraction():.1%} of the main tags"
    )


if __name__ == "__main__":
    main()
