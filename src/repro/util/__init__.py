"""Shared low-level utilities for the QoS-CMP reproduction.

This package deliberately contains only dependency-free helpers:

- :mod:`repro.util.rng` — deterministic, independently seedable random
  streams so that every simulation is reproducible run-to-run.
- :mod:`repro.util.validation` — argument-checking helpers that raise
  uniform, descriptive errors.
- :mod:`repro.util.stats` — running statistics accumulators (mean, min,
  max, variance) used by cache statistics and the metrics layer.
- :mod:`repro.util.tables` — plain-text table rendering used by the
  benchmark harness to print paper-style tables.
"""

from repro.util.rng import DeterministicRng, derive_seed
from repro.util.stats import RunningStats
from repro.util.tables import format_table
from repro.util.validation import (
    check_finite,
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "DeterministicRng",
    "derive_seed",
    "RunningStats",
    "format_table",
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_probability",
    "check_in_range",
    "check_power_of_two",
]
