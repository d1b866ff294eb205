"""A probe's re-date, and an epoch fired inside a train, must equal the
queue they stand in for.

A probe that admits nothing changes no allocation, so
``QoSSystemSimulator._redate`` only re-dates the running jobs' history
entries and completion and steal times, and keeps those times out of
the event queue; the next probe of such a train fires in place when the
queue would pop it next, and so does a policy epoch, the train going on
while the epoch decides nothing.  A train runs as one loop in
``_on_probe`` over records of the running jobs built at its first
re-date (DESIGN.md §7.5).  The oracle below is a test-only subclass
whose ``_redate`` derives instead, so it never defers an event, forms
no train and builds no records, every probe and every epoch passes
through the queue, and every advance walks every admitted job.  Each
scenario runs under both and must give the same ``fingerprint()``, run
its probes, epochs, completions and steal intervals in the same order,
and leave the same live heap entries, in the same schedule order,
whenever the run loop takes control; observed runs must write the
same metrics and events JSONL and record the same execution-trace
segments, and runs a budget stops inside a train the same events.  A
second oracle keeps the epoch that built a sensor for every
running job and an actuator view at every epoch.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro.core.config import CONFIGURATIONS, ModeMixConfig
from repro.core.job import JobState
from repro.core.modes import ExecutionMode
from repro.core.policy import (
    JobSensor,
    SensorSnapshot,
    apply_action,
    make_policy,
)
from repro.faults import FaultConfig
import repro.faults.model as fault_model
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


def _live_heap(queue):
    """The queue's live entries in schedule order: (time, callback)."""
    return tuple(
        (time, handle.callback.__name__)
        for time, _, handle in sorted(queue._heap, key=lambda item: item[1])
        if not handle.cancelled
    )


class Watched:
    """Records what the run loop would see and the order things ran.

    ``heaps`` maps the events fired so far to the live heap each time
    the run loop takes control (only at the counts in ``watch``, when
    set); ``order`` lists each probe, epoch decision, completion and
    steal interval as it runs.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heaps = {}
        self.order = []
        self.watch = None
        peek_time = self.events.peek_time

        def watched():
            fired = self.events.events_fired
            if self.watch is None or fired in self.watch:
                self.heaps[fired] = _live_heap(self.events)
            return peek_time()

        self.events.peek_time = watched

    def _try_admit(self, request, now):
        self.order.append(("probe", now))
        return super()._try_admit(request, now)

    def _policy_decide(self, now):
        self.order.append(("epoch", now))
        return super()._policy_decide(now)

    def _make_completion(self, job_id):
        callback = super()._make_completion(job_id)

        def complete(now):
            self.order.append(("complete", job_id, now))
            callback(now)

        return complete

    def _make_steal_interval(self, job_id):
        callback = super()._make_steal_interval(job_id)

        def interval(now):
            self.order.append(("steal", job_id, now))
            callback(now)

        return interval


class AlwaysDerive(Watched, QoSSystemSimulator):
    """The oracle: a probe that admitted nothing derives too, so nothing
    is deferred, no train forms, and every probe and every epoch is
    scheduled and popped by the run loop; every advance walks every
    admitted job."""

    def _train_records(self):
        return None, None

    def _redate(self, now, records):
        self._recompute(now)
        return None

    def _advance_all(self, now):
        delta = now - self._last_advance
        if delta <= 0:
            self._last_advance = now
            return
        for state in self._states.values():
            if not state.running or state.rate <= 0.0:
                continue
            instructions = state.rate * delta
            state.progress += instructions
            state.actual_misses += instructions * state.mpi
            if state.steal is not None:
                state.baseline_misses += instructions * state.baseline_mpi
        self._last_advance = now


class Shipped(Watched, QoSSystemSimulator):
    """The simulator as shipped, counting what its re-date calls did and
    what it fired in place."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.redates = 0  # probes that admitted nothing and re-dated
        self.forced = 0  # such probes a completion sent to a derivation
        self.probes = self.queued_probes = 0  # all, and popped by the loop
        self.epochs = self.queued_epochs = 0
        # How the event running now fired: "queue", or in place by
        # "pop" (pop_inline) or "fire" (fire_inline).
        self.fired_by = "queue"
        for name in ("pop", "fire"):
            self._count_inline(name)

    def _count_inline(self, name):
        method = getattr(self.events, f"{name}_inline")

        def counted(*args):
            fired = method(*args)
            if fired:
                self.fired_by = name
            return fired

        setattr(self.events, f"{name}_inline", counted)

    @property
    def inline(self):
        """Probes fired in place."""
        return self.probes - self.queued_probes

    @property
    def inline_epochs(self):
        """Epochs fired in place."""
        return self.epochs - self.queued_epochs

    def _on_probe(self, now):
        self.queued_probes += 1
        self.fired_by = "queue"
        super()._on_probe(now)

    def _try_admit(self, request, now):
        self.probes += 1
        admitted = super()._try_admit(request, now)
        if not admitted and self._derive_next:
            self.forced += 1
        return admitted

    def _on_policy_epoch(self, now):
        before = self.epochs
        self.fired_by = "queue"
        super()._on_policy_epoch(now)
        self.queued_epochs += self.epochs - before

    def _policy_decide(self, now):
        self.epochs += 1
        return super()._policy_decide(now)

    def _redate(self, now, records):
        self.redates += 1
        return super()._redate(now, records)


class FullEpoch(QoSSystemSimulator):
    """The second oracle: the epoch as first written, with a sensor for
    every running job and an actuator view built at every epoch, which
    the audit record is taken from."""

    def _policy_sensors(self, now):
        elapsed = max(0.0, now - self._last_advance)
        jobs = []
        reserved_ways_total = 0
        for job_id in sorted(self._states):
            state = self._states[job_id]
            if not state.running or state.job.state is not JobState.RUNNING:
                continue
            if state.reserved_running:
                reserved_ways_total += state.ways
            progress = state.progress
            if state.rate > 0.0 and elapsed > 0.0:
                progress = min(
                    progress + state.rate * elapsed,
                    float(state.job.instructions),
                )
            remaining = state.job.instructions - progress
            if remaining <= 1e-3:
                projected = now
            elif state.rate > 0.0:
                projected = now + remaining / state.rate
            else:
                projected = math.inf
            rates_by_ways = ()
            if state.reserved_running and state.steal is None:
                if not state.rates_by_ways:
                    state.rates_by_ways = tuple(
                        0.0
                        if ways == 0
                        else self.machine.clock_hz
                        / state.cpi_model.cpi(state.curve.mpi(ways))
                        for ways in range(self.machine.l2_ways + 1)
                    )
                rates_by_ways = state.rates_by_ways
            reservation_end = None
            if (
                state.reservation is not None
                and state.reservation.end != math.inf
            ):
                reservation_end = state.reservation.end
            jobs.append(
                JobSensor(
                    job_id=job_id,
                    mode=state.job.current_mode.kind.value,
                    reserved=state.reserved_running,
                    elastic=state.steal is not None,
                    ways=state.ways,
                    requested_ways=state.spec.requested_ways,
                    progress=progress,
                    instructions=state.job.instructions,
                    deadline=state.job.deadline,
                    reservation_end=reservation_end,
                    projected_finish=projected,
                    rates_by_ways=rates_by_ways,
                )
            )
        return SensorSnapshot(
            now=now,
            epoch_index=self._policy_epoch_index,
            l2_ways=self.machine.l2_ways,
            reserved_ways=reserved_ways_total,
            spare_ways=self.machine.l2_ways - reserved_ways_total,
            bus_utilisation=self._last_bus_utilisation,
            bus_saturated=self._bus_saturated,
            bus_granted=self._policy_bus_grant,
            jobs=tuple(jobs),
        )

    def _policy_decide(self, now):
        snapshot = self._policy_sensors(now)
        actions = self.policy.decide(snapshot)
        view = self._policy_actuator_view()
        effective = [a for a in actions if apply_action(view, a)]
        self._policy_epoch_index += 1
        self._policy_audit.append((now, view.reserved_total(), view.spare()))
        return effective


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
POLICIES = ("grow-shrink", "bandwidth-steal")
#: Faults x policy x queue discipline: a half fraction over no policy
#: and grow-shrink (every pair of the three factors meets in all four of
#: its combinations), and bandwidth-steal under both fault settings and
#: both disciplines.
VARIANTS = (
    (False, None, "fcfs"),
    (False, "grow-shrink", "backfill"),
    (True, None, "backfill"),
    (True, "grow-shrink", "fcfs"),
    (False, "bandwidth-steal", "fcfs"),
    (True, "bandwidth-steal", "backfill"),
)


def _scenarios():
    for m, mix in enumerate(MIXES):
        for c, configuration in enumerate(QOS_CONFIGURATIONS):
            for v, (faults, policy, queue) in enumerate(VARIANTS):
                yield mix, configuration, (m + c + v) % 3, faults, policy, queue
    # Hybrid-2 runs finish two opportunistic jobs that share a core at
    # one instant, the second inside a derivation; keep these six.
    for faults in (False, True):
        for policy in (None,) + POLICIES:
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


def _run(cls, scenario, curves, watch=None):
    mix, configuration, seed, faults, policy, queue = scenario
    simulator = cls(
        mixed_workload(mix, CONFIGURATIONS[configuration], seed=seed),
        sim_config=SimulationConfig(queue_policy=queue),
        curves=curves,
        fault_config=FaultConfig(seed=seed, **FAULT_RATES) if faults else None,
        policy=make_policy(policy) if policy else None,
    )
    if watch is not None:
        simulator.watch = set(watch)
    return simulator, simulator.run()


def _assert_same_queue(shipped, oracle):
    """Same order of work, and the oracle's live heap wherever the
    shipped run loop took control."""
    assert shipped.order == oracle.order
    assert shipped.heaps.keys() <= oracle.heaps.keys()
    for fired, heap in shipped.heaps.items():
        assert heap == oracle.heaps[fired], f"after {fired} events"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_redate_matches_full_derivation(scenario, mix_curves):
    shipped, result = _run(Shipped, scenario, mix_curves)
    oracle, oracle_result = _run(
        AlwaysDerive, scenario, mix_curves, watch=shipped.heaps
    )
    assert shipped.redates > 0, "no probe was re-dated: nothing compared"
    assert shipped.inline > 0, "no probe fired in place: nothing compared"
    assert result.fingerprint() == oracle_result.fingerprint()
    _assert_same_queue(shipped, oracle)
    if scenario[4] is None:
        return
    assert shipped.inline_epochs > 0, "no epoch fired in place"
    full, full_result = _run(FullEpoch, scenario, mix_curves)
    assert shipped.policy_audit == full.policy_audit
    assert result.policy_decisions == full_result.policy_decisions
    assert result.fingerprint() == full_result.fingerprint()


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


def test_observed_run_writes_identical_artifacts(mix_curves, monkeypatch):
    """Brown-outs derate the bus to a quarter here, so it saturates and
    re-dated probes must count saturated intervals as derivations do."""
    workload = mixed_workload(
        "Mix-1", CONFIGURATIONS["All-Strict+AutoDown"], seed=0
    )
    monkeypatch.setattr(fault_model, "BANDWIDTH_DERATE_FACTOR", 0.25)
    faults = FaultConfig(seed=0, **FAULT_RATES)
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
                result.trace.segments,
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
#: later, inside trains of rejected probes and on epochs fired in them.
BUDGET_STOPS = (1, 2, 3, 7, 50, 333, 1000)
#: (configuration, policy); the policy-free cases keep their ids.
BUDGET_CASES = [
    pytest.param(
        configuration,
        policy,
        id=configuration if policy is None else f"{configuration}-{policy}",
    )
    for policy in (None,) + POLICIES
    for configuration in ("Hybrid-2", "All-Strict+AutoDown")
]


@pytest.mark.parametrize("configuration, policy", BUDGET_CASES)
def test_budget_stop_inside_a_train_matches_full_derivation(
    configuration, policy, mix_curves
):
    """A budget stops the loop where the oracle's queue would stop.

    A stop inside a train must leave the clock, the fired count and the
    pending events exactly as the oracle leaves them, and the resumed
    run must go on as the oracle's does.  Under a policy, at least one
    stop must land on an epoch the uninterrupted run fired in place.
    """
    workload = mixed_workload("Mix-1", CONFIGURATIONS[configuration], seed=0)

    def build(cls):
        return cls(
            workload,
            curves=mix_curves,
            policy=make_policy(policy) if policy else None,
        )

    uninterrupted = build(Shipped)
    uninterrupted.run()
    trains_cut = epochs_cut = 0
    for budget in BUDGET_STOPS:
        outcomes = []
        for cls in (Shipped, AlwaysDerive):
            telemetry = Observer()
            with observed(telemetry):
                simulator = build(cls)
                partial = simulator.run(budget=RunBudget(max_events=budget))
                stopped = (
                    simulator.events.events_fired,
                    simulator.events.now,
                    _live_heap(simulator.events),
                    partial.fingerprint(),
                    simulator.policy_audit,
                )
                resumed = simulator.run().fingerprint()
            outcomes.append(
                (stopped, resumed, list(telemetry.events.to_jsonl_lines()))
            )
            if cls is Shipped:
                # The probe or epoch after a stop inside a train is
                # popped from the queue, not fired in place.
                cut = uninterrupted.inline - simulator.inline
                cut_epoch = (
                    uninterrupted.inline_epochs - simulator.inline_epochs
                )
                assert cut in (0, 1) and cut_epoch in (0, 1)
                trains_cut += cut or cut_epoch
                epochs_cut += cut_epoch
        assert outcomes[0] == outcomes[1], f"budget {budget}"
    assert trains_cut > 0, "no budget stopped a train: nothing compared"
    if policy is not None:
        assert epochs_cut > 0, "no budget stopped on an epoch fired in place"


def test_checkpoint_inside_a_train_resumes_to_the_uninterrupted_run(
    mix_curves, tmp_path
):
    workload = mixed_workload("Mix-1", CONFIGURATIONS["Hybrid-2"], seed=0)
    for policy in (None,) + POLICIES:
        uninterrupted, stopped = (
            Shipped(
                workload,
                curves=mix_curves,
                policy=make_policy(policy) if policy else None,
            )
            for _ in range(2)
        )
        expected = uninterrupted.run().fingerprint()
        stopped.run(budget=RunBudget(max_events=50))
        path = save_checkpoint(
            checkpoint_simulator(stopped), tmp_path / f"{policy}.ckpt"
        )
        resumed = resume_simulator(load_checkpoint(path), curves=mix_curves)
        assert resumed.events.events_fired == 50
        assert resumed.run().fingerprint() == expected, policy
        stopped.run()
        cut = (
            uninterrupted.inline - stopped.inline,
            uninterrupted.inline_epochs - stopped.inline_epochs,
        )
        assert cut in ((1, 0), (0, 1), (1, 1)), f"no train was cut ({policy})"


class Redated:
    """Keeps in ``_redated`` the completion and steal times the last
    re-date or derivation computed, as ``_redated_at`` returns them.

    Both leave their ``(job, completion, steal)`` entries in
    ``_deferred``: a derivation schedules them at once, a re-date hands
    them to its train unless a job completed.  Each fresh list passes
    through ``_redated_at`` once, before anything reads or schedules it.
    """

    def __init__(self, *args, **kwargs):
        self._redated = []
        self._kept = None  # the last list passed through _redated_at
        super().__init__(*args, **kwargs)

    def _schedule_deferred(self):
        self._keep(self.events.now)
        super()._schedule_deferred()

    def _redate(self, now, records):
        until = super()._redate(now, records)
        self._keep(now)
        return None if until is None else min(self._redated, default=math.inf)

    def _keep(self, now):
        if self._deferred is self._kept:
            return
        self._deferred = self._kept = [
            (state, self._redated_at(completion, now), self._redated_at(steal, now))
            for state, completion, steal in self._deferred
        ]
        self._redated = [
            when
            for _, completion, steal in self._kept
            for when in (completion, steal)
            if when is not None
        ]

    def _redated_at(self, when, now):
        return when


class TiedProbes(Redated):
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


class TiedEpochs(Redated):
    """Steers one kind of tie between a decision epoch and a probe or a
    deferred event, named by ``tie``:

    - ``heap-probe``: the next probe moves onto the epoch in the heap,
      when it would land later;
    - ``heap-deferred``: each epoch moves onto the earliest time the last
      re-date or derivation computed, when it would land later, and a
      re-dated time within a few ulps of the epoch in the heap snaps
      onto it (a few ulps of time retire far fewer instructions than a
      completion's tolerance);
    - ``follow-probe``: each epoch moves onto the pending probe;
    - ``follow-deferred``: as ``heap-deferred``, without the snap.

    Every steer is a function of the run's state, so the shipped
    simulator and the oracle steer alike; ``ties`` counts the steers.
    ``hits`` counts, in a shipped run, the ties met inside a train: an
    epoch popped in place at the pending probe's time (``heap-probe``)
    or at a deferred time (``heap-deferred``), the epoch following one
    fired in place moved onto the pending probe (``follow-probe``), or
    a train ending with its following epoch at its earliest deferred
    time (``follow-deferred``).
    """

    tie = None

    def __init__(self, *args, **kwargs):
        self.ties = self.hits = 0
        self.epoch_at = None  # the epoch last scheduled or pending
        self.probe_at = None  # the probe last drawn
        super().__init__(*args, **kwargs)

    def start(self):
        if self._started:
            return
        super().start()
        draws = self._probe_rng
        self._probe_rng = SimpleNamespace(
            exponential=lambda mean: self._tie_gap(draws.exponential(mean))
        )

    def _in_place(self):
        return getattr(self, "fired_by", "queue") != "queue"

    def _tie_gap(self, gap):
        now = self.events.now
        epoch = self.epoch_at
        if (
            self.tie == "heap-probe"
            and epoch is not None
            and now < epoch < now + gap
            and now + (epoch - now) == epoch
        ):
            gap = epoch - now
            self.ties += 1
        self.probe_at = now + gap
        return gap

    def _next_epoch_time(self, now):
        when = super()._next_epoch_time(now)
        target = None
        if self.tie == "follow-probe":
            target = self.probe_at
        elif self.tie in ("heap-deferred", "follow-deferred") and self._redated:
            target = min(self._redated)
        if target is not None and now < target < when:
            when = target
            self.ties += 1
            if self.tie == "follow-probe" and self._in_place():
                self.hits += 1
        self.epoch_at = when
        return when

    def _policy_decide(self, now):
        if getattr(self, "fired_by", None) == "pop" and (
            (self.tie == "heap-probe" and now == self.probe_at)
            or (self.tie == "heap-deferred" and now in self._redated)
        ):
            self.hits += 1
        return super()._policy_decide(now)

    def _end_train(self, next_probe, follow):
        times = [
            when
            for _, completion, steal in self._deferred
            for when in (completion, steal)
            if when is not None
        ]
        if (
            self.tie == "follow-deferred"
            and follow is not None
            and times
            and follow == min(times)
        ):
            self.hits += 1
        super()._end_train(next_probe, follow)

    def _redated_at(self, when, now):
        epoch = self.epoch_at
        if (
            self.tie == "heap-deferred"
            and when is not None
            and epoch is not None
            and now <= epoch
            and abs(when - epoch) <= 4 * math.ulp(epoch)
        ):
            when = epoch
        return super()._redated_at(when, now)


class EpochTiedShipped(TiedEpochs, Shipped):
    pass


class EpochTiedOracle(TiedEpochs, AlwaysDerive):
    pass


#: tie -> (configuration, policy) whose run meets that tie in trains.
EPOCH_TIES = {
    "heap-probe": ("Hybrid-2", "grow-shrink"),
    "heap-deferred": ("Hybrid-2", "grow-shrink"),
    "follow-probe": ("Hybrid-2", "bandwidth-steal"),
    "follow-deferred": ("Hybrid-2", "bandwidth-steal"),
}


@pytest.mark.parametrize("tie", sorted(EPOCH_TIES))
def test_epoch_ties_resolve_as_the_queue_would(tie, mix_curves):
    """The epoch in the heap wins ties with the deferred events and the
    next probe; the epoch following one fired in place loses them."""
    configuration, policy = EPOCH_TIES[tie]
    scenario = ("Mix-1", configuration, 0, True, policy, "fcfs")
    shipped_cls = type("Tied", (EpochTiedShipped,), {"tie": tie})
    oracle_cls = type("Tied", (EpochTiedOracle,), {"tie": tie})
    shipped, result = _run(shipped_cls, scenario, mix_curves)
    oracle, oracle_result = _run(
        oracle_cls, scenario, mix_curves, watch=shipped.heaps
    )
    assert shipped.ties == oracle.ties > 0, "nothing was steered"
    assert shipped.hits > 0, "no tie met a train: nothing compared"
    assert result.fingerprint() == oracle_result.fingerprint()
    assert shipped.policy_audit == oracle.policy_audit
    _assert_same_queue(shipped, oracle)
