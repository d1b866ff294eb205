"""A probe's re-date must equal a full derivation.

A probe that admits nothing changes no allocation, so
``QoSSystemSimulator._recompute`` only re-dates the running jobs'
history entries and completion and steal times, and keeps those times
out of the event queue; the next probe of such a train fires in place
when the queue would pop it next (DESIGN.md §7.5).  The oracle below is
a test-only subclass that sends every re-date to a full derivation, so
it never defers an event and every probe passes through the queue, as
every call did before.  Each scenario runs under both and must give the
same ``fingerprint()``; observed runs, and runs a budget stops inside a
train, must write the same metrics, events and trace JSONL.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.config import CONFIGURATIONS, ModeMixConfig
from repro.core.modes import ExecutionMode
from repro.core.policy import make_policy
from repro.faults import FaultConfig
from repro.faults.checkpoint import (
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.obs import Observer, observed
from repro.sim.config import SimulationConfig
from repro.sim.engine import RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.workloads.arrival import DeadlineClass
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.composer import JobSpec, WorkloadSpec, mixed_workload
from repro.workloads.profiler import get_curve


class AlwaysDerive(QoSSystemSimulator):
    """The oracle: every call derives, re-date or not, so nothing is
    deferred and every probe is scheduled."""

    def _recompute(self, now, *, redate=False):
        return super()._recompute(now)


class Shipped(QoSSystemSimulator):
    """The simulator as shipped, counting what its re-date calls did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.redates = 0  # re-date calls that kept the derivation
        self.forced = 0  # re-date calls a completion sent to a derivation
        self.inline = 0  # probes fired in place instead of scheduled
        fire_inline = self.events.fire_inline

        def counted(time):
            fired = fire_inline(time)
            self.inline += fired
            return fired

        self.events.fire_inline = counted

    def _recompute(self, now, *, redate=False):
        if redate:
            if self._derive_next:
                self.forced += 1
            else:
                self.redates += 1
        return super()._recompute(now, redate=redate)


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
    assert shipped.inline > 0, "no probe fired in place: nothing compared"
    assert result.fingerprint() == oracle.fingerprint()


def _without_compactions(metrics_lines):
    """The metrics lines less ``engine.compactions``, and its value.

    Compactions count heap rebuilds, and a train leaves no cancelled
    entries behind, so the shipped simulator may compact less often.
    """
    kept, compactions = [], 0
    for line in metrics_lines:
        if json.loads(line)["name"] == "engine.compactions":
            compactions = json.loads(line)["value"]
        else:
            kept.append(line)
    return kept, compactions


def test_observed_run_writes_identical_artifacts(mix_curves):
    """Brown-outs derate the bus to a quarter here, so it saturates and
    re-dated probes must count saturated intervals as derivations do."""
    workload = mixed_workload(
        "Mix-1", CONFIGURATIONS["All-Strict+AutoDown"], seed=0
    )
    faults = FaultConfig(seed=0, bandwidth_derate_factor=0.25, **FAULT_RATES)
    artifacts = []
    compaction_counts = []
    for cls in (Shipped, AlwaysDerive):
        telemetry = Observer()
        with observed(telemetry):
            result = cls(
                workload,
                curves=mix_curves,
                fault_config=faults,
                policy=make_policy("grow-shrink"),
            ).run()
        metrics, compactions = _without_compactions(
            telemetry.metrics.to_jsonl_lines()
        )
        artifacts.append(
            (
                result.fingerprint(),
                metrics,
                list(telemetry.events.to_jsonl_lines()),
                list(telemetry.trace.to_jsonl_lines()),
            )
        )
        compaction_counts.append(compactions)
        assert result.policy_decisions > 0
        assert result.slo is not None and result.slo.total_violations > 0
        assert telemetry.metrics.counter("mem.bus.saturated_intervals").value
    shipped, oracle = artifacts
    assert shipped == oracle
    assert compaction_counts[0] <= compaction_counts[1]


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


#: Event budgets that stop the run after the first few events, and
#: later, inside trains of rejected probes.
BUDGET_STOPS = (1, 2, 3, 7, 50, 333, 1000)


@pytest.mark.parametrize("configuration", ("Hybrid-2", "All-Strict+AutoDown"))
def test_budget_stop_inside_a_train_matches_full_derivation(
    configuration, mix_curves
):
    """A budget stops the loop where the oracle's queue would stop.

    A stop inside a train must leave the clock, the fired count and the
    pending events exactly as the oracle leaves them, and the resumed
    run must go on as the oracle's does.
    """
    workload = mixed_workload("Mix-1", CONFIGURATIONS[configuration], seed=0)
    uninterrupted = Shipped(workload, curves=mix_curves)
    uninterrupted.run()
    trains_cut = 0
    for budget in BUDGET_STOPS:
        outcomes = []
        for cls in (Shipped, AlwaysDerive):
            telemetry = Observer()
            with observed(telemetry):
                simulator = cls(workload, curves=mix_curves)
                partial = simulator.run(budget=RunBudget(max_events=budget))
                stopped = (
                    simulator.events.events_fired,
                    simulator.events.now,
                    len(simulator.events),
                    partial.fingerprint(),
                )
                resumed = simulator.run().fingerprint()
            outcomes.append(
                (stopped, resumed, list(telemetry.events.to_jsonl_lines()))
            )
            if cls is Shipped:
                # The probe after a stop inside a train is popped from
                # the queue, not fired in place.
                cut = uninterrupted.inline - simulator.inline
                assert cut in (0, 1)
                trains_cut += cut
        assert outcomes[0] == outcomes[1], f"budget {budget}"
    assert trains_cut > 0, "no budget stopped a train: nothing compared"


def test_checkpoint_inside_a_train_resumes_to_the_uninterrupted_run(
    mix_curves, tmp_path
):
    workload = mixed_workload("Mix-1", CONFIGURATIONS["Hybrid-2"], seed=0)
    uninterrupted = Shipped(workload, curves=mix_curves)
    expected = uninterrupted.run().fingerprint()
    stopped = Shipped(workload, curves=mix_curves)
    stopped.run(budget=RunBudget(max_events=50))
    path = save_checkpoint(
        checkpoint_simulator(stopped), tmp_path / "train.ckpt"
    )
    resumed = resume_simulator(load_checkpoint(path), curves=mix_curves)
    assert resumed.events.events_fired == 50
    assert resumed.run().fingerprint() == expected
    stopped.run()
    assert stopped.inline == uninterrupted.inline - 1, "no train was cut"


class TiedProbes:
    """Moves the next probe exactly onto the earliest completion or
    steal time the current probe re-dated, when it would land later.

    The gap is a function of the run's state, so the shipped simulator
    and the oracle draw the same ones.  On such a tie the queue pops
    the event first, as its schedule call came first; a probe fired in
    place instead would test the LAC before the completion frees it.
    """

    def start(self):
        if self._started:
            return
        super().start()
        self.ties = 0
        self._redated = []  # times the last _recompute call re-dated
        draws = self._probe_rng
        self._probe_rng = SimpleNamespace(
            exponential=lambda mean: self._tie_gap(draws.exponential(mean))
        )

    def _tie_gap(self, gap):
        now = self.events.now
        later = [when for when in self._redated if when > now]
        if not later or min(later) - now >= gap:
            return gap
        tie = min(later) - now
        if now + tie != min(later):
            return gap
        self.ties += 1
        return tie

    def _recompute(self, now, *, redate=False):
        self._redated = []
        return super()._recompute(now, redate=redate)

    def _redate_completion(self, state, now):
        when = super()._redate_completion(state, now)
        if when is not None:
            self._redated.append(when)
        return when

    def _redate_steal(self, state, now):
        when = super()._redate_steal(state, now)
        if when is not None:
            self._redated.append(when)
        return when


class TiedShipped(TiedProbes, Shipped):
    pass


class TiedOracle(TiedProbes, AlwaysDerive):
    pass


@pytest.mark.parametrize("configuration", ("Hybrid-2", "All-Strict+AutoDown"))
def test_deferred_event_wins_a_tie_with_the_next_probe(
    configuration, mix_curves
):
    workload = mixed_workload("Mix-1", CONFIGURATIONS[configuration], seed=0)
    shipped = TiedShipped(workload, curves=mix_curves)
    result = shipped.run()
    oracle = TiedOracle(workload, curves=mix_curves)
    assert result.fingerprint() == oracle.run().fingerprint()
    assert shipped.ties == oracle.ties > 0, "no probe tied: nothing compared"
    assert shipped.inline > 0
