"""Checkpoint/resume for long simulations.

The event heap holds closures, so snapshotting the live object graph
would be both fragile and Python-version-sensitive.  The simulator is
instead *fully deterministic* — same inputs, same event sequence — so a
checkpoint records the inputs plus the number of events already fired,
and resume rebuilds the simulator and replays deterministically up to
that point (the deterministic-replay checkpointing used by
checkpointed architecture simulators; see the gem5 reproducibility work
in PAPERS.md).  Replay costs compute but zero fidelity: the resumed
run's remaining trajectory is byte-identical to an uninterrupted one,
which the test suite pins.

Checkpoints are pickle files with a version field; loading rejects
unknown versions instead of resuming a subtly-incompatible state.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, TYPE_CHECKING, Union

from repro.faults.model import FaultConfig
from repro.sim.config import MachineConfig, SimulationConfig
from repro.workloads.composer import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import QoSSystemSimulator
    from repro.workloads.profiler import MissRatioCurve

PathLike = Union[str, Path]

# v2 added a cache_backend field (and MachineConfig.cache_backend); both
# were retired once every run built the fast kernel, as were the
# SimulationConfig knobs enable_bandwidth_model, stealing_min_ways and
# enforce_wall_clock.  Version-2 files that carry them still load:
# unpickling restores the retired values as attributes nothing reads.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class SimulationCheckpoint:
    """Everything needed to reconstruct a mid-run simulation."""

    version: int
    events_fired: int
    sim_time: float
    workload: WorkloadSpec
    machine: MachineConfig
    sim_config: SimulationConfig
    fault_config: Optional[FaultConfig]
    record_trace: bool
    # Registry name of the adaptive policy driving the run (None: no
    # policy).  Policies are deterministic functions of the trajectory,
    # so the name is all replay needs; the class-level default keeps
    # pre-policy pickles loadable.
    policy: Optional[str] = None

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (
            f"checkpoint v{self.version}: {self.workload.name} at "
            f"{self.events_fired} events (t={self.sim_time * 1e3:.3f} ms)"
        )


def checkpoint_simulator(
    simulator: "QoSSystemSimulator",
) -> SimulationCheckpoint:
    """Capture a resumable checkpoint of ``simulator`` right now.

    Valid at any point between events — typically after a
    budget-limited :meth:`~repro.sim.system.QoSSystemSimulator.run`
    returned a partial result.
    """
    policy_name: Optional[str] = None
    if simulator.policy is not None:
        from repro.core.policy import policy_names

        policy_name = simulator.policy.name
        if policy_name not in policy_names():
            raise ValueError(
                f"policy {policy_name!r} is not in the registry; replay "
                "could not reconstruct it, so the run cannot be "
                "checkpointed"
            )
    return SimulationCheckpoint(
        version=CHECKPOINT_VERSION,
        events_fired=simulator.events.events_fired,
        sim_time=simulator.events.now,
        workload=simulator.workload,
        machine=simulator.machine,
        sim_config=simulator.sim_config,
        fault_config=simulator.fault_config,
        record_trace=simulator.record_trace,
        policy=policy_name,
    )


def save_checkpoint(
    checkpoint: SimulationCheckpoint, path: PathLike
) -> Path:
    """Write ``checkpoint`` to ``path``; returns the path written.

    Atomic + fsync'd (:mod:`repro.util.atomicio`): a checkpoint is the
    recovery artefact of last resort, so a crash *while writing it*
    must never destroy the previous good checkpoint at the same path.
    """
    from repro.util.atomicio import write_atomic_bytes

    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    return write_atomic_bytes(Path(path), payload)


def load_checkpoint(path: PathLike) -> SimulationCheckpoint:
    """Read a checkpoint, validating its version."""
    path = Path(path)
    with open(path, "rb") as handle:
        checkpoint = handle.read()
    try:
        loaded = pickle.loads(checkpoint)
    except (pickle.UnpicklingError, EOFError):
        raise ValueError(f"{path} is not a simulation checkpoint") from None
    if not isinstance(loaded, SimulationCheckpoint):
        raise ValueError(f"{path} is not a simulation checkpoint")
    if loaded.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path} is checkpoint version {loaded.version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    return loaded


def resume_simulator(
    checkpoint: SimulationCheckpoint,
    *,
    curves: Optional[Dict[str, "MissRatioCurve"]] = None,
) -> "QoSSystemSimulator":
    """Reconstruct a simulator positioned exactly at ``checkpoint``.

    The returned simulator has replayed ``checkpoint.events_fired``
    events; call :meth:`~repro.sim.system.QoSSystemSimulator.run` on it
    to continue to completion.  ``curves`` may supply pre-profiled
    miss-ratio curves to skip re-profiling; profiling is deterministic,
    so omitting them changes nothing but startup time.
    """
    from repro.core.policy import make_policy
    from repro.sim.engine import RUN_EVENT_BUDGET, RunBudget
    from repro.sim.system import QoSSystemSimulator

    simulator = QoSSystemSimulator(
        checkpoint.workload,
        machine=checkpoint.machine,
        sim_config=checkpoint.sim_config,
        curves=curves,
        record_trace=checkpoint.record_trace,
        fault_config=checkpoint.fault_config,
        policy=(
            make_policy(checkpoint.policy)
            if checkpoint.policy is not None
            else None
        ),
    )
    simulator.start()
    outcome = simulator.events.run(
        stop_when=lambda: simulator.finished,
        budget=RunBudget(max_events=checkpoint.events_fired),
    )
    if outcome != RUN_EVENT_BUDGET and not simulator.finished:
        raise RuntimeError(
            f"replay stopped early ({outcome}) after "
            f"{simulator.events.events_fired} of "
            f"{checkpoint.events_fired} events; the checkpoint does not "
            "match this workload/configuration"
        )
    return simulator
