"""Checkpoint versioning and compatibility with retired fields.

Version-2 checkpoints used to carry the cache backend the run resolved
(``SimulationCheckpoint.cache_backend`` and
``MachineConfig.cache_backend``) and three ``SimulationConfig`` knobs
that no caller ever changed.  All of them are gone, but the version
stays 2: a file written before their removal must still load and
resume byte-identically.  Version-1 files stay refused.
"""

import dataclasses
import pickle

import pytest

from repro.core.config import ALL_STRICT
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    SimulationCheckpoint,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.workloads.composer import single_benchmark_workload

from tests.faults.test_system_faults import signature

SIM = SimulationConfig()

#: ``SimulationConfig`` fields a version-2 checkpoint may still carry.
RETIRED_SIM_FIELDS = {
    "enable_bandwidth_model": True,
    "stealing_min_ways": 1,
    "enforce_wall_clock": True,
}


def make_simulator(fake_curves):
    workload = single_benchmark_workload("bzip2", ALL_STRICT)
    return QoSSystemSimulator(workload, curves=fake_curves, sim_config=SIM)


def with_retired_fields(checkpoint):
    """``checkpoint`` carrying the retired fields, as older builds wrote.

    Pickle stores a dataclass as its class path plus its ``__dict__``,
    so extra entries there reproduce such a file exactly.
    """
    machine = dataclasses.replace(checkpoint.machine)
    object.__setattr__(machine, "cache_backend", None)
    sim_config = dataclasses.replace(checkpoint.sim_config)
    for name, value in RETIRED_SIM_FIELDS.items():
        object.__setattr__(sim_config, name, value)
    old = dataclasses.replace(
        checkpoint, machine=machine, sim_config=sim_config
    )
    object.__setattr__(old, "cache_backend", "reference")
    return old


class TestRetiredFields:
    def test_checkpoint_with_retired_fields_resumes_identically(
        self, fake_curves, tmp_path
    ):
        uninterrupted = make_simulator(fake_curves).run()
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=80))
        path = save_checkpoint(
            with_retired_fields(checkpoint_simulator(simulator)),
            tmp_path / "old.ckpt",
        )

        loaded = load_checkpoint(path)
        assert loaded.cache_backend == "reference"
        assert loaded.machine.cache_backend is None
        assert loaded.machine == MachineConfig()
        assert loaded.sim_config == SIM
        resumed = resume_simulator(loaded, curves=fake_curves)
        assert signature(resumed.run()) == signature(uninterrupted)

    def test_new_checkpoints_carry_no_backend(self, fake_curves):
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=40))
        checkpoint = checkpoint_simulator(simulator)
        assert not hasattr(checkpoint, "cache_backend")
        assert not hasattr(checkpoint.machine, "cache_backend")


class TestVersionGate:
    def test_pre_backend_checkpoints_are_rejected(self, fake_curves, tmp_path):
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=40))
        stale = dataclasses.replace(
            checkpoint_simulator(simulator), version=1
        )
        path = tmp_path / "stale.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(stale, handle)
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(path)

    def test_current_version_is_two(self):
        assert CHECKPOINT_VERSION == 2
        assert "cache_backend" not in (
            SimulationCheckpoint.__dataclass_fields__
        )
