"""repro — reproduction of "A Framework for Providing Quality of Service
in Chip Multi-Processors" (Guo, Solihin, Zhao, Iyer — MICRO 2007).

The public API re-exports the pieces a downstream user composes:

- QoS specification and modes: :class:`ResourceVector`,
  :class:`TimeslotRequest`, :class:`QoSTarget`, :class:`ExecutionMode`.
- Admission control: :class:`LocalAdmissionController`,
  :class:`GlobalAdmissionController`, :class:`Job`.
- Resource stealing: :class:`ResourceStealingController`,
  :class:`ShadowTagArray`.
- The machine substrate: :class:`CacheGeometry`,
  :class:`WayPartitionedCache`, :class:`CpiModel`, :class:`CmpNode`.
- Workloads and simulation: :data:`BENCHMARKS`,
  :func:`single_benchmark_workload`, :func:`mixed_workload`,
  :class:`QoSSystemSimulator`, :class:`EqualPartSimulator`,
  :func:`run_all_configurations`.
- Fault injection & resilience: :class:`FaultConfig`,
  :class:`FaultSchedule`, :class:`RetryPolicy`,
  :class:`InvariantChecker`, :func:`checkpoint_simulator`,
  :func:`resume_simulator`, :class:`ResilienceReport`.

See ``examples/quickstart.py`` for the canonical end-to-end usage.
"""

from repro.analysis.runner import (
    normalised_throughputs,
    run_all_configurations,
    run_configuration,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.cache.shadow import ShadowTagArray
from repro.core.admission import AdmissionDecision, LocalAdmissionController
from repro.core.config import (
    ALL_STRICT,
    ALL_STRICT_AUTODOWN,
    CONFIGURATIONS,
    EQUAL_PART,
    HYBRID_1,
    HYBRID_2,
    ModeMixConfig,
)
from repro.core.cluster import ClusterJobProfile, ClusterSimulator, size_cluster
from repro.core.gac import GlobalAdmissionController
from repro.core.job import Job, JobState
from repro.core.metrics import (
    DeadlineReport,
    DowngradeRecord,
    ResilienceReport,
    ThroughputReport,
)
from repro.core.modes import ExecutionMode, ModeKind
from repro.core.partition_manager import PartitionManager
from repro.core.spec import (
    PRESET_TARGETS,
    QoSTarget,
    ResourceVector,
    TimeslotRequest,
)
from repro.core.stealing import ResourceStealingController
from repro.cpu.cpi import CpiModel
from repro.faults import (
    FaultConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    InvariantChecker,
    InvariantViolation,
    RetryPolicy,
    SimulationCheckpoint,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.sim.cmp import CmpNode
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import RunBudget
from repro.sim.equalpart import EqualPartSimulator
from repro.sim.system import QoSSystemSimulator, SystemResult
from repro.workloads.benchmarks import BENCHMARKS, REPRESENTATIVES, get_benchmark
from repro.workloads.composer import (
    JobSpec,
    WorkloadSpec,
    mixed_workload,
    single_benchmark_workload,
)
from repro.workloads.profiler import MissRatioCurve, get_curve, profile_benchmark

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # spec & modes
    "ResourceVector",
    "TimeslotRequest",
    "QoSTarget",
    "PRESET_TARGETS",
    "ExecutionMode",
    "ModeKind",
    # admission
    "Job",
    "JobState",
    "LocalAdmissionController",
    "AdmissionDecision",
    "GlobalAdmissionController",
    "ClusterSimulator",
    "ClusterJobProfile",
    "size_cluster",
    # stealing & partitioning
    "ResourceStealingController",
    "ShadowTagArray",
    "PartitionManager",
    "PartitionClass",
    "WayPartitionedCache",
    "CacheGeometry",
    # machine & simulation
    "CpiModel",
    "CmpNode",
    "MachineConfig",
    "SimulationConfig",
    "QoSSystemSimulator",
    "EqualPartSimulator",
    "SystemResult",
    # configurations
    "ModeMixConfig",
    "ALL_STRICT",
    "HYBRID_1",
    "HYBRID_2",
    "ALL_STRICT_AUTODOWN",
    "EQUAL_PART",
    "CONFIGURATIONS",
    # workloads
    "BENCHMARKS",
    "REPRESENTATIVES",
    "get_benchmark",
    "JobSpec",
    "WorkloadSpec",
    "single_benchmark_workload",
    "mixed_workload",
    "MissRatioCurve",
    "profile_benchmark",
    "get_curve",
    # runners & metrics
    "run_configuration",
    "run_all_configurations",
    "normalised_throughputs",
    "DeadlineReport",
    "ThroughputReport",
    # faults & resilience
    "FaultConfig",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "RetryPolicy",
    "InvariantChecker",
    "InvariantViolation",
    "SimulationCheckpoint",
    "checkpoint_simulator",
    "save_checkpoint",
    "load_checkpoint",
    "resume_simulator",
    "RunBudget",
    "ResilienceReport",
    "DowngradeRecord",
]
