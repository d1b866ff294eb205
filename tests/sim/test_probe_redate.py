"""A probe's re-date must equal a full derivation.

A probe that admits nothing changes no allocation, so
``QoSSystemSimulator._recompute`` only re-dates the running jobs'
history entries and completion and steal events (DESIGN.md §7.5).  The
oracle below is a test-only subclass that sends every re-date to a full
derivation, as every call was before; each scenario runs under both and
must give the same ``fingerprint()``, and one run with the observer on
must write the same metrics, events and trace JSONL.
"""

import pytest

from repro.core.config import CONFIGURATIONS, ModeMixConfig
from repro.core.modes import ExecutionMode
from repro.core.policy import make_policy
from repro.faults import FaultConfig
from repro.obs import Observer, observed
from repro.sim.config import SimulationConfig
from repro.sim.system import QoSSystemSimulator
from repro.workloads.arrival import DeadlineClass
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import JobSpec, WorkloadSpec, mixed_workload
from repro.workloads.profiler import get_curve


class AlwaysDerive(QoSSystemSimulator):
    """The oracle: every call derives, re-date or not."""

    def _recompute(self, now, *, redate=False):
        super()._recompute(now)


class Shipped(QoSSystemSimulator):
    """The simulator as shipped, counting what its re-date calls did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.redates = 0  # re-date calls that kept the derivation
        self.forced = 0  # re-date calls a completion sent to a derivation

    def _recompute(self, now, *, redate=False):
        if redate:
            if self._derive_next:
                self.forced += 1
            else:
                self.redates += 1
        super()._recompute(now, redate=redate)


#: perfbench's adaptive-faults rates, plus core stalls.
FAULT_RATES = dict(
    core_failure_rate=8.0,
    bandwidth_degradation_rate=4.0,
    ecc_error_rate=4.0,
    core_stall_rate=4.0,
)
MIXES = ("Mix-1", "Mix-2")
QOS_CONFIGURATIONS = (
    "All-Strict",
    "Hybrid-1",
    "Hybrid-2",
    "All-Strict+AutoDown",
)
#: A half fraction of faults x policy x queue discipline: every pair of
#: the three factors meets in all four of its combinations.
VARIANTS = (
    (False, None, "fcfs"),
    (False, "grow-shrink", "backfill"),
    (True, None, "backfill"),
    (True, "grow-shrink", "fcfs"),
)


def _scenarios():
    for m, mix in enumerate(MIXES):
        for c, configuration in enumerate(QOS_CONFIGURATIONS):
            for v, (faults, policy, queue) in enumerate(VARIANTS):
                yield mix, configuration, (m + c + v) % 3, faults, policy, queue
    # Hybrid-2 runs finish two opportunistic jobs that share a core at
    # one instant, the second inside a derivation; keep these four.
    for faults in (False, True):
        for policy in (None, "grow-shrink"):
            yield "Mix-2", "Hybrid-2", 0, faults, policy, "fcfs"


SCENARIOS = list(dict.fromkeys(_scenarios()))


def _scenario_id(scenario):
    mix, configuration, seed, faults, policy, queue = scenario
    return "-".join(
        (
            mix,
            configuration,
            f"s{seed}",
            "faults" if faults else "nofaults",
            policy or "nopolicy",
            queue,
        )
    )


@pytest.fixture(scope="module")
def mix_curves():
    config = SimulationConfig()
    return {
        name: get_curve(
            get_benchmark(name),
            num_sets=config.profile_num_sets,
            accesses=config.profile_accesses,
        )
        for name in ("hmmer", "gobmk", "bzip2")
    }


def _run(cls, scenario, curves):
    mix, configuration, seed, faults, policy, queue = scenario
    simulator = cls(
        mixed_workload(mix, CONFIGURATIONS[configuration], seed=seed),
        sim_config=SimulationConfig(queue_policy=queue),
        curves=curves,
        fault_config=FaultConfig(seed=seed, **FAULT_RATES) if faults else None,
        policy=make_policy(policy) if policy else None,
    )
    return simulator, simulator.run()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_redate_matches_full_derivation(scenario, mix_curves):
    shipped, result = _run(Shipped, scenario, mix_curves)
    _, oracle = _run(AlwaysDerive, scenario, mix_curves)
    assert shipped.redates > 0, "no probe was re-dated: nothing compared"
    assert result.fingerprint() == oracle.fingerprint()


def test_observed_run_writes_identical_artifacts(mix_curves):
    """Brown-outs derate the bus to a quarter here, so it saturates and
    re-dated probes must count saturated intervals as derivations do."""
    workload = mixed_workload(
        "Mix-1", CONFIGURATIONS["All-Strict+AutoDown"], seed=0
    )
    faults = FaultConfig(seed=0, bandwidth_derate_factor=0.25, **FAULT_RATES)
    artifacts = []
    for cls in (Shipped, AlwaysDerive):
        telemetry = Observer()
        with observed(telemetry):
            result = cls(
                workload,
                curves=mix_curves,
                fault_config=faults,
                policy=make_policy("grow-shrink"),
            ).run()
        artifacts.append(
            (
                result.fingerprint(),
                list(telemetry.metrics.to_jsonl_lines()),
                list(telemetry.events.to_jsonl_lines()),
                list(telemetry.trace.to_jsonl_lines()),
            )
        )
        assert result.policy_decisions > 0
        assert result.slo is not None and result.slo.total_violations > 0
        assert telemetry.metrics.counter("mem.bus.saturated_intervals").value
    shipped, oracle = artifacts
    assert shipped == oracle


def test_twin_finish_forces_the_next_call_to_derive(fake_curves):
    """Two jobs end at one instant; the next probe is rejected.

    One hmmer and three bzip2 Strict jobs fill the four cores and all
    sixteen ways, so two Opportunistic hmmer jobs wait at rate zero.
    When the hmmer Strict job ends they share its core and finish
    together: the second completes inside the derivation the first's
    completion event runs.  The head of the queue, a Strict job asking
    for the whole cache with a tight deadline, is still rejected at the
    probe after that, whose call must derive because a job finished.
    """
    strict = ExecutionMode.strict()
    opportunistic = ExecutionMode.opportunistic()
    relaxed = DeadlineClass.RELAXED
    jobs = (
        JobSpec("hmmer", strict, relaxed, requested_ways=4),
        *(JobSpec("bzip2", strict, relaxed, requested_ways=4),) * 3,
        *(JobSpec("hmmer", opportunistic, relaxed, requested_ways=4),) * 2,
        JobSpec("bzip2", strict, DeadlineClass.TIGHT, requested_ways=16),
    )
    workload = WorkloadSpec(
        name="twin-finish",
        jobs=jobs,
        configuration=ModeMixConfig(name="twin", strict_fraction=1.0),
    )
    shipped = Shipped(workload, curves=fake_curves)
    result = shipped.run()
    oracle = AlwaysDerive(workload, curves=fake_curves).run()
    twins = [job.completion_time for job in result.jobs[4:6]]
    assert twins[0] == twins[1]
    assert shipped.forced > 0
    assert result.fingerprint() == oracle.fingerprint()
