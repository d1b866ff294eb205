"""Reservation-level cluster simulation (the Figure 2 server).

The paper's working environment is a server of CMP nodes fronted by a
Global Admission Controller; its evaluation stays within one node.
This module scales the admission machinery up: a Poisson stream of
QoS jobs arrives at the GAC, which probes every node's LAC and places
or rejects.  Fidelity is *reservation-level* — each accepted job simply
occupies its reservation for its maximum wall-clock time (the Strict
contract) — which is exactly the granularity capacity-planning
questions need: how many nodes does a given arrival rate and SLA mix
require before the rejection rate exceeds the budget?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.admission import LocalAdmissionController
from repro.core.gac import GlobalAdmissionController
from repro.core.job import Job
from repro.core.modes import ExecutionMode
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest
from repro.util.rng import DeterministicRng
from repro.util.stats import RunningStats
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ClusterJobProfile:
    """Distribution of one job class in the arriving mix."""

    name: str
    weight: float
    resources: ResourceVector
    mean_wall_clock: float
    deadline_multiplier: float = 2.0

    def __post_init__(self) -> None:
        check_positive("weight", self.weight)
        check_positive("mean_wall_clock", self.mean_wall_clock)
        if self.deadline_multiplier < 1.0:
            raise ValueError(
                f"deadline_multiplier must be >= 1, got "
                f"{self.deadline_multiplier}"
            )


@dataclass
class ClusterReport:
    """What one cluster run measured."""

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    placements_per_node: Dict[int, int] = field(default_factory=dict)
    acceptance_by_class: Dict[str, Tuple[int, int]] = field(
        default_factory=dict
    )  # name -> (accepted, submitted)
    load_samples: RunningStats = field(default_factory=RunningStats)
    counter_offers: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Accepted / submitted (1.0 when nothing was submitted)."""
        return self.accepted / self.submitted if self.submitted else 1.0

    @property
    def mean_load(self) -> float:
        """Average fraction of cluster cores reserved."""
        return self.load_samples.mean

    def class_acceptance_rate(self, name: str) -> float:
        """Acceptance rate for one job class."""
        accepted, submitted = self.acceptance_by_class.get(name, (0, 0))
        return accepted / submitted if submitted else 1.0


class ClusterSimulator:
    """Drive a Poisson job stream through a GAC over N CMP nodes."""

    def __init__(
        self,
        *,
        num_nodes: int,
        node_capacity: Optional[ResourceVector] = None,
        profiles: Sequence[ClusterJobProfile],
        mean_interarrival: float,
        seed: int = 42,
        placement_policy: str = "first_fit",
    ) -> None:
        check_positive("num_nodes", num_nodes)
        check_positive("mean_interarrival", mean_interarrival)
        if not profiles:
            raise ValueError("at least one job profile is required")
        self.num_nodes = num_nodes
        self.node_capacity = (
            node_capacity
            if node_capacity is not None
            else ResourceVector(cores=4, cache_ways=16)
        )
        self.profiles = list(profiles)
        self.mean_interarrival = mean_interarrival
        self.placement_policy = placement_policy
        self.rng = DeterministicRng(seed, "cluster")

    def run(self, *, horizon: float) -> ClusterReport:
        """Simulate arrivals in ``[0, horizon)`` and report.

        The load is sampled at every arrival instant, giving a
        job-averaged utilisation (PASTA: Poisson arrivals see time
        averages).
        """
        check_positive("horizon", horizon)
        nodes = [
            LocalAdmissionController(self.node_capacity)
            for _ in range(self.num_nodes)
        ]
        gac = GlobalAdmissionController(
            nodes, placement_policy=self.placement_policy
        )
        report = ClusterReport()

        arrival_rng = self.rng.stream("arrivals")
        pick_rng = self.rng.stream("class-pick")
        wall_rng = self.rng.stream("wall-clock")
        weights = [p.weight for p in self.profiles]

        now = arrival_rng.exponential(self.mean_interarrival)
        job_id = 0
        while now < horizon:
            job_id += 1
            profile = pick_rng.weighted_choice(self.profiles, weights)
            # Wall-clock times jitter around the class mean (±25%).
            tw = profile.mean_wall_clock * wall_rng.uniform(0.75, 1.25)
            job = Job(
                job_id=job_id,
                benchmark=profile.name,
                target=QoSTarget(
                    resources=profile.resources,
                    timeslot=TimeslotRequest(
                        max_wall_clock=tw,
                        deadline=now + profile.deadline_multiplier * tw,
                    ),
                    mode=ExecutionMode.strict(),
                ),
                arrival_time=now,
                instructions=1,
            )
            report.submitted += 1
            accepted, submitted = report.acceptance_by_class.get(
                profile.name, (0, 0)
            )

            report.load_samples.add(gac.load_at(now))
            placement = gac.place(job, now=now)
            if placement.accepted:
                report.accepted += 1
                report.placements_per_node[placement.node_index] = (
                    report.placements_per_node.get(placement.node_index, 0)
                    + 1
                )
                report.acceptance_by_class[profile.name] = (
                    accepted + 1,
                    submitted + 1,
                )
            else:
                report.rejected += 1
                report.acceptance_by_class[profile.name] = (
                    accepted,
                    submitted + 1,
                )
                if placement.counter_offer_deadline is not None:
                    report.counter_offers += 1
            now += arrival_rng.exponential(self.mean_interarrival)
        return report


def size_cluster(
    *,
    profiles: Sequence[ClusterJobProfile],
    mean_interarrival: float,
    target_acceptance: float = 0.95,
    horizon: float = 50.0,
    max_nodes: int = 64,
    seed: int = 42,
) -> int:
    """Smallest node count meeting a target acceptance rate.

    The capacity-planning loop a GAC operator would run: grow the
    cluster until the SLA mix is admitted at the target rate.

    The search doubles the node count until the target is met (or
    ``max_nodes`` is reached), then bisects between the last size that
    missed and the first that met it: at most
    ``2·⌈log2(max_nodes)⌉ + 1`` simulations, with the answer a scan of
    every size would give.  That holds because, under the ``first_fit``
    placement used here, the acceptance count cannot fall as nodes are
    added.  The arrival, class and wall-clock draws come from their own
    streams, so every size sees the same jobs, and a rejected LAC test
    changes only counters.  So in an (N+1)-node cluster, nodes 0…N−1
    see exactly the probes of the N-node cluster, and node N gets only
    the jobs that every other node rejected.
    """
    if not 0 < target_acceptance <= 1:
        raise ValueError(
            f"target_acceptance must be in (0, 1], got {target_acceptance}"
        )

    def meets_target(num_nodes: int) -> bool:
        report = ClusterSimulator(
            num_nodes=num_nodes,
            profiles=profiles,
            mean_interarrival=mean_interarrival,
            seed=seed,
        ).run(horizon=horizon)
        return report.acceptance_rate >= target_acceptance

    missed = 0  # the largest size known to miss the target
    size = min(1, max_nodes)
    while size > missed and not meets_target(size):
        missed, size = size, min(2 * size, max_nodes)
    if size <= missed:
        raise ValueError(
            f"even {max_nodes} nodes cannot reach {target_acceptance:.0%} "
            "acceptance for this mix"
        )
    while size - missed > 1:
        middle = (missed + size) // 2
        if meets_target(middle):
            size = middle
        else:
            missed = middle
    return size
