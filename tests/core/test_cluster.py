"""Tests for the reservation-level cluster simulator."""

import math

import pytest

from repro.core.cluster import (
    ClusterJobProfile,
    ClusterSimulator,
    size_cluster,
)
from repro.core.spec import PRESET_TARGETS, ResourceVector


def medium_profile(weight=1.0, tw=1.0, mult=2.0):
    return ClusterJobProfile(
        name="medium",
        weight=weight,
        resources=ResourceVector(cores=1, cache_ways=7),
        mean_wall_clock=tw,
        deadline_multiplier=mult,
    )


def small_profile():
    return ClusterJobProfile(
        name="small",
        weight=1.0,
        resources=ResourceVector(cores=1, cache_ways=3),
        mean_wall_clock=0.5,
    )


class TestSimulation:
    def test_light_load_all_accepted(self):
        simulator = ClusterSimulator(
            num_nodes=4,
            profiles=[medium_profile()],
            mean_interarrival=2.0,  # arrivals far apart vs tw=1
        )
        report = simulator.run(horizon=40.0)
        assert report.submitted > 10
        assert report.acceptance_rate > 0.95

    def test_heavy_load_rejects(self):
        simulator = ClusterSimulator(
            num_nodes=1,
            profiles=[medium_profile(mult=1.1)],
            mean_interarrival=0.05,  # 20 jobs per tw on a 2-slot node
        )
        report = simulator.run(horizon=20.0)
        assert report.rejected > 0
        assert report.acceptance_rate < 0.5
        assert report.counter_offers > 0

    def test_acceptance_grows_with_nodes(self):
        rates = []
        for nodes in (1, 2, 4):
            report = ClusterSimulator(
                num_nodes=nodes,
                profiles=[medium_profile(mult=1.1)],
                mean_interarrival=0.2,
            ).run(horizon=30.0)
            rates.append(report.acceptance_rate)
        assert rates[0] < rates[1] <= rates[2]

    def test_placements_spread_over_nodes(self):
        report = ClusterSimulator(
            num_nodes=3,
            profiles=[medium_profile(mult=1.1)],
            mean_interarrival=0.1,
        ).run(horizon=30.0)
        # First-fit fills node 0 first, but overflow must reach others.
        assert len(report.placements_per_node) >= 2

    def test_per_class_rates(self):
        report = ClusterSimulator(
            num_nodes=1,
            profiles=[medium_profile(mult=1.1), small_profile()],
            mean_interarrival=0.05,
        ).run(horizon=20.0)
        # Small jobs fit in leftover capacity more often.
        assert report.class_acceptance_rate(
            "small"
        ) >= report.class_acceptance_rate("medium")

    def test_deterministic(self):
        def run():
            return ClusterSimulator(
                num_nodes=2,
                profiles=[medium_profile()],
                mean_interarrival=0.3,
                seed=7,
            ).run(horizon=20.0)

        a, b = run(), run()
        assert a.accepted == b.accepted
        assert a.rejected == b.rejected
        assert a.mean_load == b.mean_load

    def test_load_sampled(self):
        report = ClusterSimulator(
            num_nodes=2,
            profiles=[medium_profile()],
            mean_interarrival=0.3,
        ).run(horizon=20.0)
        assert 0.0 <= report.mean_load <= 1.0
        assert report.load_samples.count == report.submitted


class TestPlacementPolicy:
    def test_least_loaded_never_worse_under_bursts(self):
        def rate(policy):
            return ClusterSimulator(
                num_nodes=3,
                profiles=[medium_profile(mult=1.1)],
                mean_interarrival=0.1,
                placement_policy=policy,
            ).run(horizon=25.0).acceptance_rate

        assert rate("least_loaded") >= rate("first_fit") - 0.02


class TestSizing:
    def test_size_cluster_finds_minimum(self):
        profiles = [medium_profile(mult=1.1)]
        nodes = size_cluster(
            profiles=profiles,
            mean_interarrival=0.25,
            target_acceptance=0.9,
            horizon=25.0,
        )
        assert nodes >= 1
        # Minimality: one node fewer misses the target.
        if nodes > 1:
            smaller = ClusterSimulator(
                num_nodes=nodes - 1,
                profiles=profiles,
                mean_interarrival=0.25,
            ).run(horizon=25.0)
            assert smaller.acceptance_rate < 0.9

    def test_impossible_target_raises(self):
        with pytest.raises(ValueError, match="cannot reach"):
            size_cluster(
                profiles=[medium_profile(mult=1.0)],
                mean_interarrival=0.0001,
                target_acceptance=1.0,
                horizon=5.0,
                max_nodes=2,
            )

    def test_target_validated(self):
        with pytest.raises(ValueError):
            size_cluster(
                profiles=[medium_profile()],
                mean_interarrival=1.0,
                target_acceptance=1.5,
            )


def server_mix():
    """The gold/silver mix ``repro cluster`` plans for."""
    return [
        ClusterJobProfile(
            name="gold",
            weight=0.3,
            resources=PRESET_TARGETS["large"],
            mean_wall_clock=1.0,
            deadline_multiplier=1.2,
        ),
        ClusterJobProfile(
            name="silver",
            weight=0.7,
            resources=PRESET_TARGETS["medium"],
            mean_wall_clock=0.6,
            deadline_multiplier=2.0,
        ),
    ]


def linear_scan_size(interarrival, target, *, horizon, max_nodes):
    """The smallest node count meeting the target, trying each in turn."""
    for nodes in range(1, max_nodes + 1):
        report = ClusterSimulator(
            num_nodes=nodes,
            profiles=server_mix(),
            mean_interarrival=interarrival,
        ).run(horizon=horizon)
        if report.acceptance_rate >= target:
            return nodes
    return None


class TestBisectedSizing:
    """Doubling then bisecting answers exactly as the linear scan."""

    @pytest.mark.parametrize("target", [0.5, 0.8, 0.95, 1.0])
    @pytest.mark.parametrize("interarrival", [0.05, 0.1, 0.3])
    def test_matches_linear_scan(self, interarrival, target):
        nodes = size_cluster(
            profiles=server_mix(),
            mean_interarrival=interarrival,
            target_acceptance=target,
            horizon=5.0,
            max_nodes=16,
        )
        assert nodes == linear_scan_size(
            interarrival, target, horizon=5.0, max_nodes=16
        )

    @pytest.mark.parametrize(
        "interarrival, target, max_nodes",
        [(0.01, 1.0, 16), (0.01, 1.0, 64), (0.05, 0.95, 16), (0.02, 0.9, 24)],
    )
    def test_simulation_count_is_logarithmic(
        self, monkeypatch, interarrival, target, max_nodes
    ):
        calls = []
        run = ClusterSimulator.run

        def counted(simulator, *, horizon):
            calls.append(simulator.num_nodes)
            return run(simulator, horizon=horizon)

        monkeypatch.setattr(ClusterSimulator, "run", counted)
        try:
            size_cluster(
                profiles=server_mix(),
                mean_interarrival=interarrival,
                target_acceptance=target,
                horizon=2.0,
                max_nodes=max_nodes,
            )
        except ValueError:
            pass
        assert len(calls) <= 2 * math.ceil(math.log2(max_nodes)) + 1


class TestValidation:
    def test_needs_profiles(self):
        with pytest.raises(ValueError):
            ClusterSimulator(
                num_nodes=1, profiles=[], mean_interarrival=1.0
            )

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ClusterJobProfile(
                name="x",
                weight=0.0,
                resources=ResourceVector(1, 1),
                mean_wall_clock=1.0,
            )
        with pytest.raises(ValueError):
            ClusterJobProfile(
                name="x",
                weight=1.0,
                resources=ResourceVector(1, 1),
                mean_wall_clock=1.0,
                deadline_multiplier=0.9,
            )
