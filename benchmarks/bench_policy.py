#!/usr/bin/env python
"""Adaptive-policy scoring bench: closed-loop vs no policy.

One bursty multi-tenant scenario — the Mix-1 heterogeneous tenant mix
under the Hybrid-2 configuration, ten jobs, seeded — is run once per
registered policy family and scored on the two axes the QoS framework
trades off:

- **violation fraction** — mean share of each monitored job's lifetime
  spent projected past its deadline (the
  :class:`~repro.obs.slo.SloMonitor` steady-state health number);
- **total throughput** — accepted jobs per second of makespan.

The policy-free run (``none``) is the yardstick: the paper's static
modes, fixed per job by the configuration.  The adaptive policies must
*earn* their epochs:

- ``bandwidth-steal`` is gated on strict dominance: a lower violation
  fraction than the policy-free run at equal-or-better throughput.
- ``grow-shrink`` is gated on the conformance floor: no lost
  deadlines, makespan within 5% of the policy-free run.

Writes ``BENCH_policy.json`` and exits non-zero when a gate fails, so
CI runs it as a regression check.

Usage::

    PYTHONPATH=src python benchmarks/bench_policy.py
"""

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import CONFIGURATIONS
from repro.core.policy import make_policy
from repro.obs import Observer, observed
from repro.sim.config import SimulationConfig
from repro.sim.system import QoSSystemSimulator
from repro.workloads.composer import mixed_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The bursty multi-tenant scenario: a heterogeneous tenant mix with
#: reserved, elastic, and opportunistic classes contending for the bus.
SCENARIO = dict(
    workload="Mix-1",
    configuration="Hybrid-2",
    count=10,
    seed=5,
    instructions_per_job=2_000_000,
)

#: Makespan slack the grow-shrink floor gate tolerates (matches the
#: policy-throughput-floor law).
FLOOR_MAKESPAN_SLACK = 1.05


def run_policy(policy_name):
    """One observed simulation of the scenario under ``policy_name``."""
    sim_config = SimulationConfig(
        instructions_per_job=SCENARIO["instructions_per_job"],
        seed=SCENARIO["seed"],
        profile_num_sets=16,
        profile_accesses=4_000,
    )
    workload = mixed_workload(
        SCENARIO["workload"],
        CONFIGURATIONS[SCENARIO["configuration"]],
        count=SCENARIO["count"],
        seed=SCENARIO["seed"],
    )
    telemetry = Observer()
    with observed(telemetry):
        simulator = QoSSystemSimulator(
            workload,
            sim_config=sim_config,
            record_trace=False,
            policy=(
                make_policy(policy_name)
                if policy_name is not None
                else None
            ),
        )
        result = simulator.run()
    return result


def score(result):
    """The two scored axes plus supporting detail for one run."""
    slo = result.slo
    fractions = [job.violation_fraction for job in slo.jobs] if slo else []
    violation_fraction = (
        sum(fractions) / len(fractions) if fractions else 0.0
    )
    return {
        "violation_fraction": round(violation_fraction, 6),
        "jobs_per_second": round(result.throughput.jobs_per_time, 2),
        "makespan_seconds": round(result.makespan_seconds, 9),
        "deadlines_met": result.deadline_report.met,
        "deadlines_considered": result.deadline_report.considered,
        "slo_violation_episodes": slo.total_violations if slo else 0,
        "policy_decisions": result.policy_decisions,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_policy.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    scores = {}
    for name in (None, "grow-shrink", "bandwidth-steal"):
        label = name if name is not None else "none"
        scores[label] = score(run_policy(name))
        print(
            f"{label:<16} vf={scores[label]['violation_fraction']:.4f}  "
            f"jobs/s={scores[label]['jobs_per_second']:.1f}  "
            f"decisions={scores[label]['policy_decisions']}"
        )

    failures = []
    baseline = scores["none"]

    # bandwidth-steal: strict dominance over the policy-free run.
    steal = scores["bandwidth-steal"]
    if not (
        steal["violation_fraction"] < baseline["violation_fraction"]
        and steal["jobs_per_second"] >= baseline["jobs_per_second"]
    ):
        failures.append(
            "bandwidth-steal does not dominate the policy-free run: "
            f"vf {steal['violation_fraction']} vs "
            f"{baseline['violation_fraction']}, jobs/s "
            f"{steal['jobs_per_second']} vs {baseline['jobs_per_second']}"
        )

    # grow-shrink: the conformance floor (never worse than no policy).
    grow = scores["grow-shrink"]
    if grow["deadlines_met"] < baseline["deadlines_met"]:
        failures.append(
            f"grow-shrink lost deadlines: {grow['deadlines_met']} < "
            f"{baseline['deadlines_met']}"
        )
    ceiling = baseline["makespan_seconds"] * FLOOR_MAKESPAN_SLACK
    if grow["makespan_seconds"] > ceiling:
        failures.append(
            f"grow-shrink makespan {grow['makespan_seconds']} exceeds "
            f"the floor ceiling {ceiling}"
        )

    payload = {
        "bench": "policy",
        "scenario": SCENARIO,
        "policies": scores,
        "gates": {
            "bandwidth_steal_dominates_static": not any(
                "dominate" in failure for failure in failures
            ),
            "grow_shrink_meets_floor": not any(
                "grow-shrink" in failure for failure in failures
            ),
        },
    }
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
