"""Experiment analysis layer.

- :mod:`repro.analysis.sensitivity` — the Figure 4 cache-sensitivity
  classification.
- :mod:`repro.analysis.runner` — shared experiment drivers: run one
  workload under one or all Table 2 configurations and collect the
  paper's metrics.
- :mod:`repro.analysis.report` — paper-style table rendering of the
  results.
- :mod:`repro.analysis.gantt` — ASCII Gantt rendering of execution
  traces (the Figure 7 view).
- :mod:`repro.analysis.sweeps` — one-line parameter sweeps (Elastic
  slack, cache capacity, offered load).
"""

from repro.analysis.gantt import render_gantt

from repro.analysis.runner import (
    run_all_configurations,
    run_configuration,
    normalised_throughputs,
)
from repro.analysis.sweeps import (
    sweep_arrival_rate,
    sweep_cache_size,
    sweep_elastic_slack,
)
from repro.analysis.sensitivity import (
    SensitivityPoint,
    classify_benchmarks,
    sensitivity_points,
)

__all__ = [
    "render_gantt",
    "run_configuration",
    "run_all_configurations",
    "normalised_throughputs",
    "SensitivityPoint",
    "sensitivity_points",
    "classify_benchmarks",
    "sweep_elastic_slack",
    "sweep_cache_size",
    "sweep_arrival_rate",
]
