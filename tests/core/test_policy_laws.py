"""Policy conformance: the laws suite plus convergence properties.

The three policy laws (throughput floor, capacity conservation,
actuation idempotence) run over *every* registered policy through
``repro verify laws --policy all``; this module pins that suite green
and adds the properties the laws cannot express pointwise:

- **No oscillation** — :class:`GrowShrinkWaysPolicy` burns a floor on
  every grow, so a job that grew can never shrink again.  On any
  stationary synthetic workload the per-job ways trajectory is
  "shrinks, then grows, then quiet" — never a shrink after a grow.
- **Grant stability** — :class:`BandwidthStealPolicy` under steady low
  utilisation grants once and holds (no grant/release flapping); under
  steady contention it never grants at all.

Both properties run on :class:`~repro.verify.laws.SyntheticPolicyWorld`
— the same closed-loop sandbox the idempotence law uses — under
Hypothesis across three seeds and drawn stationary utilisations.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.policy import (
    BandwidthStealPolicy,
    GrowShrinkWaysPolicy,
    SetBusGrant,
    SetWays,
    make_policy,
    policy_names,
)
from repro.verify.laws import (
    POLICY_LAWS,
    SyntheticPolicyWorld,
    run_laws,
    run_policy_laws,
)

pytestmark = pytest.mark.policy


class TestRegistry:
    def test_registry_is_the_two_adaptive_policies(self):
        assert policy_names() == ("grow-shrink", "bandwidth-steal")

    def test_make_policy_returns_fresh_instances(self):
        a = make_policy("grow-shrink")
        b = make_policy("grow-shrink")
        assert a is not b
        assert a.name == "grow-shrink"

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("thermostat")

    def test_static_modes_and_disabled_instances_are_not_registered(self):
        # Static modes are per-job targets, not policies, and disabled
        # instances are built by the differential pair itself.
        for name in ("strict", "grow-shrink-off"):
            with pytest.raises(ValueError, match="unknown policy"):
                make_policy(name)


class TestConformanceSuite:
    def test_every_policy_passes_every_law(self):
        report = run_laws(0, policy="all")
        assert report.passed
        assert len(report.reports) == len(POLICY_LAWS) * len(policy_names())

    def test_single_policy_selection(self):
        report = run_policy_laws(0, policy="grow-shrink")
        assert report.passed
        assert len(report.reports) == len(POLICY_LAWS)
        assert all(
            "policy=grow-shrink" in pair.subject for pair in report.reports
        )

    def test_law_name_selection(self):
        report = run_policy_laws(
            0,
            policy="bandwidth-steal",
            names=["policy-actuation-idempotence"],
        )
        assert len(report.reports) == 1
        assert report.reports[0].kind == "policy-actuation-idempotence"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_policy_laws(0, policy="thermostat")

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="unknown policy law"):
            run_policy_laws(0, policy="all", names=["policy-entropy"])

    def test_plain_laws_unaffected_by_policy_keyword(self):
        report = run_laws(0, names=["fair-queue-conservation"])
        assert report.passed
        assert report.reports[0].kind == "fair-queue-conservation"


def _drive(world, policy, *, max_epochs):
    """Run the closed loop; returns the effective actions per epoch."""
    policy.reset()
    history = []
    for _ in range(max_epochs):
        if world.finished():
            break
        snapshot = world.snapshot()
        effective = [
            action
            for action in policy.decide(snapshot)
            if world.apply(action)
        ]
        history.append(effective)
        world.advance()
    return history


class TestGrowShrinkConvergence:
    @given(
        seed=st.sampled_from([0, 1, 2]),
        utilisation=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_no_shrink_after_grow_on_stationary_workload(
        self, seed, utilisation
    ):
        world = SyntheticPolicyWorld(
            seed,
            jobs=4,
            epoch=0.0002,
            utilisation=lambda now: utilisation,
        )
        history = _drive(world, GrowShrinkWaysPolicy(), max_epochs=400)
        grew = set()
        deltas = {}
        for effective in history:
            for action in effective:
                assert isinstance(action, SetWays)
                previous = deltas.get(action.job_id)
                if previous is not None:
                    if action.ways > previous:
                        grew.add(action.job_id)
                    else:
                        # A shrink is only legal before the job's first
                        # grow: the burned floor forbids oscillation.
                        assert action.job_id not in grew, (
                            f"job {action.job_id} shrank to {action.ways} "
                            f"after growing"
                        )
                elif action.ways > world.state.caps[action.job_id] - 1:
                    pass  # first action may be either direction
                deltas[action.job_id] = action.ways

    @given(seed=st.sampled_from([0, 1, 2]))
    def test_ways_stay_within_bounds(self, seed):
        world = SyntheticPolicyWorld(seed, jobs=4, epoch=0.0002)
        policy = GrowShrinkWaysPolicy()
        for effective in _drive(world, policy, max_epochs=400):
            for action in effective:
                cap = world.state.caps[action.job_id]
                assert policy.MIN_WAYS <= action.ways <= cap

    @given(seed=st.sampled_from([0, 1, 2]))
    def test_decision_stream_goes_quiet(self, seed):
        """Convergence: effective decisions stop strictly before the
        workload completes — the policy settles, it does not thrash
        until the very last epoch."""
        world = SyntheticPolicyWorld(seed, jobs=4, epoch=0.0002)
        history = _drive(world, GrowShrinkWaysPolicy(), max_epochs=400)
        active = [i for i, effective in enumerate(history) if effective]
        if active:
            assert active[-1] < len(history) - 1


class TestBandwidthStealStability:
    @given(
        seed=st.sampled_from([0, 1, 2]),
        utilisation=st.floats(min_value=0.05, max_value=0.45),
    )
    def test_steady_idle_grants_once_and_holds(self, seed, utilisation):
        world = SyntheticPolicyWorld(
            seed,
            jobs=3,
            epoch=0.0002,
            utilisation=lambda now: utilisation,
        )
        transitions = []
        for effective in _drive(
            world, BandwidthStealPolicy(), max_epochs=400
        ):
            for action in effective:
                assert isinstance(action, SetBusGrant)
                transitions.append(action.granted)
        # Below the low watermark the grant fires once and never
        # releases: a stationary input must not produce flapping.
        assert transitions in ([], [True])
        if transitions:
            assert world.state.bus_granted

    @given(
        seed=st.sampled_from([0, 1, 2]),
        utilisation=st.floats(min_value=0.86, max_value=0.99),
    )
    def test_steady_contention_never_grants(self, seed, utilisation):
        world = SyntheticPolicyWorld(
            seed,
            jobs=3,
            epoch=0.0002,
            utilisation=lambda now: utilisation,
        )
        history = _drive(world, BandwidthStealPolicy(), max_epochs=400)
        assert all(not effective for effective in history)
        assert not world.state.bus_granted


class TestSyntheticWorldSanity:
    def test_world_is_deterministic(self):
        a = SyntheticPolicyWorld(7)
        b = SyntheticPolicyWorld(7)
        history_a = _drive(a, GrowShrinkWaysPolicy(), max_epochs=50)
        history_b = _drive(b, GrowShrinkWaysPolicy(), max_epochs=50)
        assert [
            [action.describe() for action in step] for step in history_a
        ] == [[action.describe() for action in step] for step in history_b]

    def test_capacity_never_oversubscribed_in_world(self):
        world = SyntheticPolicyWorld(3, jobs=5)
        _drive(world, GrowShrinkWaysPolicy(), max_epochs=100)
        assert world.state.reserved_total() <= world.state.total_ways
        assert world.state.spare() >= 0

    def test_snapshot_slack_is_finite_for_bounded_jobs(self):
        world = SyntheticPolicyWorld(0)
        snapshot = world.snapshot()
        assert snapshot.jobs
        for sensor in snapshot.jobs:
            assert math.isfinite(sensor.limit())
            assert math.isfinite(sensor.slack_fraction(snapshot.now))
