"""Checkpoint/resume of runs under an adaptive policy.

A checkpoint records the policy's registry name and resume rebuilds it
from the registry, then replays the recorded events; the policy's own
state (grow-shrink floors and streaks, bandwidth-steal backoff) is
rebuilt by that replay.  These tests hold the resumed run to the
uninterrupted run's fingerprint under seeded faults, and hold
``checkpoint_simulator`` to refusing a policy the registry cannot
rebuild — such as the differential pair's disabled instances, whose
names are deliberately unregistered.
"""

import pytest

from repro.core.config import ALL_STRICT_AUTODOWN
from repro.core.policy import make_policy, policy_names
from repro.faults import (
    FaultConfig,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.sim.engine import RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.verify.differential import disabled_policy
from repro.workloads.composer import mixed_workload

pytestmark = pytest.mark.policy

#: Core failures, bandwidth brown-outs and ECC upsets at the end-to-end
#: benchmark's rates (per simulated second).
FAULTS = FaultConfig(
    seed=0,
    core_failure_rate=8.0,
    bandwidth_degradation_rate=4.0,
    ecc_error_rate=4.0,
)


def make_simulator(fake_curves, policy):
    workload = mixed_workload("Mix-1", ALL_STRICT_AUTODOWN, seed=0)
    return QoSSystemSimulator(
        workload, curves=fake_curves, fault_config=FAULTS, policy=policy
    )


@pytest.mark.parametrize("name", policy_names())
def test_resumed_run_matches_uninterrupted_run(fake_curves, tmp_path, name):
    reference = make_simulator(fake_curves, make_policy(name)).run()
    assert reference.policy_decisions > 0
    assert reference.resilience.faults_injected > 0

    simulator = make_simulator(fake_curves, make_policy(name))
    partial = simulator.run(budget=RunBudget(max_events=300))
    assert partial.partial
    path = save_checkpoint(
        checkpoint_simulator(simulator), tmp_path / "run.ckpt"
    )
    checkpoint = load_checkpoint(path)
    assert checkpoint.policy == name

    final = resume_simulator(checkpoint, curves=fake_curves).run()
    assert not final.partial
    assert final.fingerprint() == reference.fingerprint()


@pytest.mark.parametrize("name", policy_names())
def test_disabled_instance_is_refused(fake_curves, name):
    simulator = make_simulator(fake_curves, disabled_policy(name))
    simulator.run(budget=RunBudget(max_events=50))
    with pytest.raises(ValueError, match="not in the registry"):
        checkpoint_simulator(simulator)
