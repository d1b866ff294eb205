"""The paper's contribution: the CMP QoS framework.

Modules map one-to-one onto the paper's sections:

- :mod:`repro.core.spec` — QoS target specification (Section 3.2):
  Resource Usage Metrics (RUM) vectors, the convertibility property,
  and preset targets.
- :mod:`repro.core.modes` — Strict / Elastic(X) / Opportunistic
  execution modes, interchangeability, and manual/automatic mode
  downgrade (Sections 3.3–3.4).
- :mod:`repro.core.job` — the unit of admission: a job with a QoS
  target, deadline bookkeeping, and lifecycle state.
- :mod:`repro.core.admission` — the Local Admission Controller
  (Section 5): FCFS admission with resource-timeline reservation.
- :mod:`repro.core.gac` — the Global Admission Controller probing
  multiple CMP nodes (Section 3.1).
- :mod:`repro.core.cluster` — reservation-level multi-node server
  simulation and capacity sizing (the Figure 2 architecture at scale).
- :mod:`repro.core.stealing` — the resource-stealing controller
  (Section 4), driven by shadow-tag (or curve-predicted) miss
  feedback.
- :mod:`repro.core.config` — the Table 2 evaluation configurations.
- :mod:`repro.core.metrics` — deadline hit rate, throughput, and
  wall-clock summaries (Section 7).
"""

from repro.core.admission import (
    AdmissionDecision,
    LocalAdmissionController,
    Reservation,
)
from repro.core.config import (
    ALL_STRICT,
    ALL_STRICT_AUTODOWN,
    CONFIGURATIONS,
    EQUAL_PART,
    HYBRID_1,
    HYBRID_2,
    ModeMixConfig,
)
from repro.core.cluster import (
    ClusterJobProfile,
    ClusterReport,
    ClusterSimulator,
    size_cluster,
)
from repro.core.gac import GlobalAdmissionController, NodeProbeResult
from repro.core.job import Job, JobState
from repro.core.metrics import (
    DeadlineReport,
    LacOccupancyTracker,
    ThroughputReport,
    WallClockSummary,
)
from repro.core.modes import ExecutionMode, ModeKind
from repro.core.partitioners import (
    PartitionedJob,
    equal_partition,
    evaluate_partition,
    fair_slowdown_partition,
    min_miss_partition,
)
from repro.core.spec import (
    PRESET_TARGETS,
    QoSTarget,
    ResourceVector,
    TimeslotRequest,
)
from repro.core.stealing import ResourceStealingController, StealingState

__all__ = [
    "ResourceVector",
    "TimeslotRequest",
    "QoSTarget",
    "PRESET_TARGETS",
    "ExecutionMode",
    "ModeKind",
    "Job",
    "JobState",
    "LocalAdmissionController",
    "AdmissionDecision",
    "Reservation",
    "GlobalAdmissionController",
    "NodeProbeResult",
    "ClusterSimulator",
    "ClusterJobProfile",
    "ClusterReport",
    "size_cluster",
    "PartitionedJob",
    "equal_partition",
    "min_miss_partition",
    "fair_slowdown_partition",
    "evaluate_partition",
    "ResourceStealingController",
    "StealingState",
    "ModeMixConfig",
    "ALL_STRICT",
    "HYBRID_1",
    "HYBRID_2",
    "ALL_STRICT_AUTODOWN",
    "EQUAL_PART",
    "CONFIGURATIONS",
    "DeadlineReport",
    "ThroughputReport",
    "WallClockSummary",
    "LacOccupancyTracker",
]
