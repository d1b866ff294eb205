"""Workload process of the end-to-end benchmark.

``run.py`` starts this file in a fresh interpreter, so its own start-up
(the ``repro`` import plus loading the warm curves) is the set-up time
being measured.  Two modes:

``--setup-only``
    Import, load the warm curves, print the time set-up finished.  The
    first such run in a checkout profiles the Mix-1/Mix-2 curves into
    the warm store (untimed, like a build step).
default
    Set up, then run the workload's batch in a closed loop for
    ``--seconds`` and print one JSON object.  With ``--trace 1`` each
    untraced batch is followed by a traced one, and the per-layer split
    comes from the traced batches.

The program only ever sees the inputs generated from ``--seed``; the
batch it runs is a fixed function of the workload name and the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

import hostspeed
from spans import SpanRecorder

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: Output digests written by ``record_reference.py``.
REFERENCE: dict = (
    json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
)

#: Benchmarks of the Table 3 mixes (both mixes use the same three).
MIX_BENCHMARKS = ("hmmer", "gobmk", "bzip2")
MIXES = ("Mix-1", "Mix-2")
FAULT_CONFIGS = ("All-Strict+AutoDown", "Hybrid-2")
FAULT_POLICIES = ("grow-shrink", "bandwidth-steal")
#: Core failures, bandwidth brown-outs and ECC upsets per simulated
#: second.  Core stalls stay at 0 (see README.md).
FAULT_RATES = dict(
    core_failure_rate=8.0,
    bandwidth_degradation_rate=4.0,
    ecc_error_rate=4.0,
)
#: Deadline seed of ``repro fig5`` itself, which the cold run reproduces.
COLD_SEED = 42
#: Deadline seeds of the warm Fig. 5 sweep.  The cold run adds Mix-1 at
#: these seeds to ``repro fig5 Mix-1`` so that it has 25 simulation
#: latency samples per batch rather than 5.
FIG5_SEEDS = (0, 1, 2, 3)
#: Fault seeds of the adaptive-faults workload.
FAULT_SEEDS = (0, 1, 2)
WORKLOADS = ("fig5-cold", "fig5-warm", "adaptive-faults")
#: Host-speed readings inside an untraced operation come this often; a
#: reading takes about 10 ms, so this adds about 4% to a run's length.
METER_EVERY_S = 0.25


def shuffled(items, seed: int) -> list:
    """``items`` in the order benchmark seed ``seed`` gives them.

    Every batch of a workload runs its whole seed pool, so each run does
    the same work and reports the same counts and simulated outcomes;
    the benchmark seed fixes the order of the operations.
    """
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def canonical_digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig5_key(mix: str, seed: int, config: str) -> str:
    return f"fig5/{mix}/{seed}/{config}"


def faults_key(mix: str, config: str, policy: str, seed: int) -> str:
    return f"faults/{mix}/{config}/{policy}/{seed}"


# -- the program's public surface ---------------------------------------------


class Program:
    """The ``repro`` entry points the benchmark calls, imported once."""

    def __init__(self) -> None:
        import repro.cli  # noqa: F401  (the CLI's import graph is set-up)
        from repro.analysis import gantt, misscache, report
        from repro.analysis.runner import (
            normalised_throughputs,
            run_all_configurations,
        )
        from repro.core.config import CONFIGURATIONS
        from repro.core.policy import make_policy
        from repro.faults import FaultConfig
        from repro.obs import Observer, observed
        from repro.sim.config import SimulationConfig
        from repro.sim.system import QoSSystemSimulator
        from repro.workloads.benchmarks import get_benchmark
        from repro.workloads.composer import mixed_workload
        from repro.workloads.profiler import (
            clear_curve_cache,
            curve_to_dict,
            get_curve,
        )

        self.gantt, self.misscache, self.report = gantt, misscache, report
        self.normalised_throughputs = normalised_throughputs
        self.run_all_configurations = run_all_configurations
        self.configurations = tuple(CONFIGURATIONS)
        self.CONFIGURATIONS = CONFIGURATIONS
        self.make_policy = make_policy
        self.FaultConfig = FaultConfig
        self.Observer, self.observed = Observer, observed
        self.QoSSystemSimulator = QoSSystemSimulator
        self.get_benchmark = get_benchmark
        self.mixed_workload = mixed_workload
        self.clear_curve_cache = clear_curve_cache
        self.curve_to_dict = curve_to_dict
        self._get_curve = get_curve
        self.sim_config = SimulationConfig()

    def curve(self, name: str):
        """The curve the simulators will look up for ``name``."""
        return self._get_curve(
            self.get_benchmark(name),
            num_sets=self.sim_config.profile_num_sets,
            accesses=self.sim_config.profile_accesses,
        )

    def fault_sim(self, mix: str, config: str, policy: str, seed: int):
        """One observed simulation under seeded fault injection."""
        workload = self.mixed_workload(
            mix, self.CONFIGURATIONS[config], seed=seed
        )
        faults = self.FaultConfig(seed=seed, **FAULT_RATES)
        with self.observed(self.Observer()):
            return self.QoSSystemSimulator(
                workload,
                fault_config=faults,
                policy=self.make_policy(policy),
            ).run()

    def render_fig5(self, results, mix: str) -> str:
        report = self.report
        return (
            report.deadline_table(results, title=f"Figure 5a — {mix}")
            + report.throughput_table(results, title=f"Figure 5b — {mix}")
        )

    def render_faults(self, result) -> str:
        report = self.report
        return (
            report.resilience_table(result, title="Fault injection")
            + self.gantt.render_gantt(result.jobs, result.trace)
            + report.trace_table(result, title="job details")
            + report.slo_table(result, title="SLO monitor")
        )


# -- one batch ------------------------------------------------------------------


class Batch:
    """One iteration of a workload's operation list, and what it showed.

    ``wall`` is host time; ``ref_wall`` and ``sim_ms`` are in reference
    seconds, as ``meter`` (a ``hostspeed.Meter``) times each operation.
    Without a meter, operations run untimed.
    """

    def __init__(self, meter: Optional[hostspeed.Meter] = None) -> None:
        self.meter = meter
        self.wall = 0.0
        self.ref_wall = 0.0
        self.sim_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.met = 0
        self.considered = 0
        self.ratios: List[float] = []
        self.slo_fractions: List[float] = []
        #: Deterministic totals read off the results.
        self.totals: Dict[str, int] = {}

    def op(self, fn: Callable, *args, sim: bool = False, **kwargs):
        """Time one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            if self.meter is None:
                return fn(*args, **kwargs)
            result, host_s, ref_s = self.meter.call(fn, *args, **kwargs)
        except Exception as exc:  # a failed operation is data, not a crash
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        self.wall += host_s
        self.ref_wall += ref_s
        if sim:
            self.sim_ms.append(ref_s * 1e3)
        return result

    def check(self, key: str, digest: str) -> bool:
        """Compare an output digest with the recorded reference."""
        if REFERENCE["digests"].get(key) == digest:
            return True
        self.failed += 1
        self.problems.append(f"{key}: digest {digest[:12]} != reference")
        return False

    def expect(self, what: str, ok: bool) -> None:
        """Record a run where the mechanism under test did not act."""
        if not ok:
            self.problems.append(f"mechanism check failed: {what}")

    def add(self, key: str, value: int) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def account(self, result) -> None:
        report = result.deadline_report
        self.met += report.met
        self.considered += report.considered
        self.add("lac.admission_tests", result.lac_admission_tests)
        self.add("lac.candidate_windows", result.lac_candidate_windows)
        self.add("policy.decisions", result.policy_decisions)
        if result.resilience is not None:
            res = result.resilience
            self.add("faults.injected", res.faults_injected)
            self.add("faults.displacements", res.displacements)
            self.add("faults.readmissions", res.readmissions)
            self.add("faults.readmission_attempts", res.readmission_attempts)
        if result.slo is not None:
            self.slo_fractions.extend(
                job.violation_fraction for job in result.slo.jobs
            )


def _stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _fig5(program: Program, batch: Batch, mix: str, seed: int) -> None:
    """All five Table 2 configurations on one mix, then the tables."""
    results = {}
    for config in program.configurations:
        out = batch.op(
            program.run_all_configurations,
            mix,
            configurations=[config],
            seed=seed,
            jobs=1,
            sim=True,
        )
        if out is None:
            continue
        result = out[config]
        if batch.check(fig5_key(mix, seed, config), result.fingerprint()):
            results[config] = result
            batch.account(result)
    if len(results) != len(program.configurations):
        return
    batch.op(program.render_fig5, results, mix)
    batch.ratios.extend(
        ratio
        for name, ratio in program.normalised_throughputs(results).items()
        if name != "All-Strict"
    )


def run_fig5_cold(program: Program, batch: Batch, seed: int, build: Path) -> None:
    store = Path(tempfile.mkdtemp(prefix="cold-store-", dir=build))
    misscache = program.misscache
    warm_store = misscache.cache_dir()
    misscache.set_cache_dir(store)
    program.clear_curve_cache()
    before = misscache.stats()
    try:
        for name in shuffled(MIX_BENCHMARKS, seed):
            curve = batch.op(program.curve, name)
            if curve is not None:
                batch.check(
                    f"curve/{name}",
                    canonical_digest(program.curve_to_dict(curve)),
                )
        for fig5_seed in shuffled((COLD_SEED, *FIG5_SEEDS), seed):
            _fig5(program, batch, "Mix-1", fig5_seed)
    finally:
        delta = _stats_delta(before, misscache.stats())
        misscache.set_cache_dir(warm_store)
        program.clear_curve_cache()
        shutil.rmtree(store, ignore_errors=True)
    batch.expect(
        f"cold store: 3 misses, 3 stores, 0 hits (saw {delta})",
        (delta["misses"], delta["stores"], delta["hits"]) == (3, 3, 0),
    )


def run_fig5_warm(program: Program, batch: Batch, seed: int, build: Path) -> None:
    before = program.misscache.stats()
    points = [(mix, fig5_seed) for mix in MIXES for fig5_seed in FIG5_SEEDS]
    for mix, fig5_seed in shuffled(points, seed):
        _fig5(program, batch, mix, fig5_seed)
    delta = _stats_delta(before, program.misscache.stats())
    batch.expect(
        f"warm batch profiles nothing (store activity {delta})",
        delta["misses"] == 0 and delta["stores"] == 0,
    )


def run_adaptive_faults(
    program: Program, batch: Batch, seed: int, build: Path
) -> None:
    points = [
        (fault_seed, mix, policy)
        for fault_seed in FAULT_SEEDS
        for mix in MIXES
        for policy in FAULT_POLICIES
    ]
    for fault_seed, mix, policy in shuffled(points, seed):
        results = {}
        for config in FAULT_CONFIGS:
            result = batch.op(
                program.fault_sim, mix, config, policy, fault_seed, sim=True
            )
            if result is None:
                continue
            key = faults_key(mix, config, policy, fault_seed)
            if batch.check(key, result.fingerprint()):
                results[config] = result
                batch.account(result)
                batch.op(program.render_faults, result)
        if len(results) == len(FAULT_CONFIGS):
            ratios = program.normalised_throughputs(
                results, baseline=FAULT_CONFIGS[0]
            )
            batch.ratios.append(ratios[FAULT_CONFIGS[1]])
    totals = batch.totals
    for key in ("policy.decisions", "faults.injected", "faults.displacements"):
        batch.expect(f"{key} > 0", totals.get(key, 0) > 0)


RUNNERS = {
    "fig5-cold": run_fig5_cold,
    "fig5-warm": run_fig5_warm,
    "adaptive-faults": run_adaptive_faults,
}


# -- tracing ---------------------------------------------------------------------


def _count(key: str, test: Optional[Callable] = None):
    """An ``on_result`` hook counting calls (and calls passing ``test``)."""

    def hook(counters, result, args) -> None:
        counters[key] += 1
        if test is not None and test(result):
            counters[key + ".yes"] += 1

    return hook


def _count_access_block(counters, result, args) -> None:
    counters["cache.accesses"] += result.accesses
    counters["cache.misses"] += result.misses


def _count_events(counters, result, args) -> None:
    counters["engine.events"] += args[0].events.events_fired


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points with span recorders."""
    from repro.analysis import gantt, misscache, report
    from repro.cache.basic import SetAssociativeCache
    from repro.cache.fastsim import FastSetAssociativeCache
    from repro.core import policy as policy_mod
    from repro.core.admission import LocalAdmissionController
    from repro.core.stealing import ResourceStealingController, StealingAction
    from repro.cpu.cpi import CpiModel
    from repro.mem.bandwidth import BandwidthModel
    from repro.obs.events import EventLog
    from repro.obs.slo import SloMonitor
    from repro.sim.engine import EventQueue
    from repro.sim.equalpart import EqualPartSimulator
    from repro.sim.system import QoSSystemSimulator
    from repro.workloads import profiler
    from repro.workloads.profiler import MissRatioCurve

    wrap = recorder.wrap
    wrap(profiler, "measure_miss_rates", "workloads.measure_miss_rates")
    for cache_cls in (FastSetAssociativeCache, SetAssociativeCache):
        wrap(cache_cls, "access_block", "cache.access_block",
             _count_access_block)
    wrap(misscache, "load_curve", "misscache.load_curve",
         _count("misscache.loads", lambda curve: curve is not None))
    wrap(misscache, "store_curve", "misscache.store_curve",
         _count("misscache.stores"))
    wrap(MissRatioCurve, "miss_rate", "curves.miss_rate")
    wrap(MissRatioCurve, "mpi", "curves.mpi")
    wrap(LocalAdmissionController, "admit", "lac.admit",
         _count("lac.admits", lambda decision: decision.accepted))
    for attr in ("reserve_window", "earliest_fit", "release"):
        wrap(LocalAdmissionController, attr, f"lac.{attr}")
    wrap(ResourceStealingController, "on_interval", "stealing.on_interval",
         _count("stealing.intervals",
                lambda d: d.action is StealingAction.STEAL_ONE))
    wrap(ResourceStealingController, "on_ecc_error", "stealing.on_ecc_error")
    deciders = set()
    for name in policy_mod.policy_names():
        for cls in type(policy_mod.make_policy(name)).__mro__:
            if "decide" in vars(cls):
                deciders.add(cls)
                break
    for cls in sorted(deciders, key=lambda c: c.__name__):
        wrap(cls, "decide", "policy.decide",
             _count("policy.epochs", lambda actions: len(actions) > 0))
    for attr in ("fail_core", "stall_core", "degrade_bandwidth",
                 "inject_ecc_error"):
        wrap(QoSSystemSimulator, attr, f"faults.{attr}")
    wrap(EventLog, "emit", "obs.emit", _count("obs.events_emitted"))
    wrap(SloMonitor, "observe", "obs.slo_observe")
    for attr in ("cpi", "ipc"):
        wrap(CpiModel, attr, f"cpi.{attr}")
    for attr in ("breakdown", "penalty_multiplier", "apply_derate",
                 "remove_derate", "utilisation", "utilisation_from_jobs",
                 "is_saturated", "queueing_delay_cycles"):
        wrap(BandwidthModel, attr, f"bandwidth.{attr}")
    for attr in ("schedule", "schedule_after"):
        wrap(EventQueue, attr, f"engine.{attr}")
    wrap(QoSSystemSimulator, "__init__", "system.init")
    wrap(QoSSystemSimulator, "run", "system.run", _count_events)
    wrap(EqualPartSimulator, "__init__", "equalpart.init")
    wrap(EqualPartSimulator, "run", "equalpart.run", _count_events)
    for attr in ("deadline_table", "throughput_table", "trace_table",
                 "slo_table", "resilience_table"):
        wrap(report, attr, f"report.{attr}")
    wrap(gantt, "render_gantt", "report.render_gantt")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    setup_end: int,
    first: int,
    last: int,
    counters: Dict[str, int],
    batch: Batch,
    span_cost: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced batch (plus the set-up spans).

    Self times exclude the tracer's own cost (``span_cost`` per child
    span), and the unattributed share is taken of the batch's wall time
    less that cost.
    """
    setup = recorder.summarise(0, setup_end, span_cost)
    run = recorder.summarise(first, last, span_cost)
    self_s = dict(run["self_s"])
    span_s = dict(run["span_self_s"])
    for name, value in setup["span_self_s"].items():
        span_s[name] = span_s.get(name, 0.0) + value
    entries = run["entries"]
    totals = batch.totals
    accesses = counters["cache.accesses"]
    sim_s = run["entry_s"].get("system.run", 0.0) + run["entry_s"].get(
        "equalpart.run", 0.0
    )
    return {
        "cli.import_s": span_s.get("cli.import", 0.0),
        "workloads.gen_s": self_s.get("workloads", 0.0),
        "workloads.accesses": accesses,
        "workloads.gen_ns_per_access": _ratio(
            self_s.get("workloads", 0.0) * 1e9, accesses
        ),
        "cache.kernel_s": self_s.get("cache", 0.0),
        "cache.accesses": accesses,
        "cache.miss_ratio": _ratio(counters["cache.misses"], accesses),
        "cache.ns_per_access": _ratio(self_s.get("cache", 0.0) * 1e9, accesses),
        "misscache.load_s": span_s.get("misscache.load_curve", 0.0),
        "misscache.store_s": span_s.get("misscache.store_curve", 0.0),
        "misscache.hits": counters["misscache.loads.yes"],
        "misscache.misses": counters["misscache.loads"]
        - counters["misscache.loads.yes"],
        "misscache.stores": counters["misscache.stores"],
        "curves.queries": entries.get("curves", 0),
        "curves.query_s": self_s.get("curves", 0.0),
        "lac.calls": entries.get("lac", 0),
        "lac.s": self_s.get("lac", 0.0),
        "lac.admit_frac": _ratio(
            counters["lac.admits.yes"], counters["lac.admits"]
        ),
        "lac.admission_tests": totals.get("lac.admission_tests", 0),
        "lac.candidate_windows": totals.get("lac.candidate_windows", 0),
        "stealing.intervals": counters["stealing.intervals"],
        "stealing.s": self_s.get("stealing", 0.0),
        "stealing.transfer_frac": _ratio(
            counters["stealing.intervals.yes"], counters["stealing.intervals"]
        ),
        "policy.epochs": counters["policy.epochs"],
        "policy.decisions": totals.get("policy.decisions", 0),
        "policy.act_frac": _ratio(
            counters["policy.epochs.yes"], counters["policy.epochs"]
        ),
        "policy.s": self_s.get("policy", 0.0),
        "faults.injected": totals.get("faults.injected", 0),
        "faults.displacements": totals.get("faults.displacements", 0),
        "faults.readmit_frac": _ratio(
            totals.get("faults.readmissions", 0),
            totals.get("faults.readmission_attempts", 0),
        ),
        "faults.s": self_s.get("faults", 0.0),
        "obs.events_emitted": counters["obs.events_emitted"],
        "obs.emit_s": span_s.get("obs.emit", 0.0),
        "obs.slo_observe_s": span_s.get("obs.slo_observe", 0.0),
        "cpi.calls": entries.get("cpi", 0),
        "cpi.s": self_s.get("cpi", 0.0),
        "bandwidth.calls": entries.get("bandwidth", 0),
        "bandwidth.s": self_s.get("bandwidth", 0.0),
        "engine.events": counters["engine.events"],
        "engine.schedule_calls": entries.get("engine", 0),
        "engine.schedule_s": self_s.get("engine", 0.0),
        "engine.events_per_s": _ratio(counters["engine.events"], sim_s),
        "system.self_s": self_s.get("system", 0.0),
        "equalpart.s": self_s.get("equalpart", 0.0),
        "report.s": self_s.get("report", 0.0),
        "trace.spans": last - first,
        "trace.span_cost_ns": span_cost * 1e9,
        "trace.unattributed_frac": 1.0
        - _ratio(run["covered"], batch.wall - run["tracer_s"]),
    }


#: Per-layer metrics that are counts or simulated outcomes: identical on
#: every traced batch, and checked to be.
COUNT_METRICS = (
    "workloads.accesses", "cache.accesses", "cache.miss_ratio",
    "misscache.hits", "misscache.misses", "misscache.stores",
    "curves.queries", "lac.calls", "lac.admit_frac", "lac.admission_tests",
    "lac.candidate_windows", "stealing.intervals", "stealing.transfer_frac",
    "policy.epochs", "policy.decisions", "policy.act_frac",
    "faults.injected", "faults.displacements", "faults.readmit_frac",
    "obs.events_emitted", "cpi.calls", "bandwidth.calls", "engine.events",
    "engine.schedule_calls", "trace.spans",
)


# -- the process ---------------------------------------------------------------


def _percentile(values: List[float], fraction: float) -> float:
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A weighted mean of all order statistics, the weight of the ``i``-th
    of ``n`` being the Beta((n+1)p, (n+1)(1-p)) mass over ((i-1)/n, i/n]
    (midpoint rule, 64 points per interval).  A batch holds a few
    simulation shapes a few per cent apart, so the single middle value of
    a nearest-rank quantile jumps between neighbours on host noise; this
    estimate moves only as far as the values do.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(
                log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            )
        weights.append(mass)
    return math.fsum(w * v for w, v in zip(weights, ordered)) / math.fsum(weights)


def _mean(values: List[float]) -> float:
    """Mean that does not depend on the order of ``values``."""
    return math.fsum(values) / len(values) if values else 0.0


def sim_metrics(batch: Batch) -> Dict[str, float]:
    """Simulated outcomes of one batch (identical on every repeat)."""
    return {
        "deadline_met_frac": _ratio(batch.met, batch.considered),
        "norm_throughput": math.exp(_mean([math.log(r) for r in batch.ratios])),
        "slo_violation_frac": _mean(batch.slo_fractions),
    }


def timed_loop(seconds: float, body: Callable[[], None]) -> None:
    """Closed loop: run ``body`` as many times as fit ``seconds``.

    Another run starts while more than half of it still fits, so a run
    lasts ``seconds`` give or take half a ``body``; at least one run
    always happens.
    """
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Host speed as set-up starts, read on this process's own CPU; the
    # reading's own time is reported so that set-up time can leave it out.
    sampling_start = time.perf_counter()
    speed_before = hostspeed.sample()
    sampling_s = time.perf_counter() - sampling_start
    import_start = time.perf_counter()
    program = Program()
    import_end = time.perf_counter()
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.add("cli.import", import_start, import_end)
        install_tracing(recorder)

    setup = Batch()
    if args.workload != "fig5-cold":
        before = program.misscache.stats()
        for name in MIX_BENCHMARKS:
            curve = setup.op(program.curve, name)
            if curve is not None:
                setup.check(
                    f"curve/{name}",
                    canonical_digest(program.curve_to_dict(curve)),
                )
        delta = _stats_delta(before, program.misscache.stats())
        setup.expect(
            f"warm set-up: 3 store hits only (saw {delta})",
            (delta["hits"], delta["misses"]) == (3, 0),
        )
    ready = time.time()
    if args.setup_only:
        # Problems here are reported by the workload run itself.
        speed = hostspeed.scale(speed_before, hostspeed.sample())
        print(json.dumps(
            {"ready": ready, "sampling_s": sampling_s, "speed": speed}
        ))
        return 0

    runner = RUNNERS[args.workload]
    plain: List[Batch] = []
    traced: List[Batch] = []
    layers: List[Dict[str, float]] = []
    if recorder is not None:
        recorder.remove()
        setup_end = len(recorder)
        setup_counters = Counter(recorder.counters)

    # Readings inside a traced call would land in its spans, so traced
    # batches are scaled by the readings around each operation only.
    plain_meter = hostspeed.Meter(every=METER_EVERY_S)
    traced_meter = hostspeed.Meter()

    def one_batch(traced_run: bool) -> Batch:
        batch = Batch(traced_meter if traced_run else plain_meter)
        runner(program, batch, args.seed, args.build)
        (traced if traced_run else plain).append(batch)
        return batch

    def untraced_body() -> None:
        one_batch(False)

    def traced_body() -> None:
        one_batch(False)
        span_cost = recorder.calibrate()
        first = len(recorder)
        before = Counter(recorder.counters)
        install_tracing(recorder)
        try:
            batch = one_batch(True)
        finally:
            recorder.remove()
        counters = setup_counters + (Counter(recorder.counters) - before)
        layers.append(
            layer_metrics(
                recorder, setup_end, first, len(recorder), counters, batch,
                span_cost,
            )
        )

    timed_loop(args.seconds, traced_body if recorder else untraced_body)

    batches = plain + traced
    problems = setup.problems + [p for b in batches for p in b.problems]
    outcomes = [sim_metrics(b) for b in batches]
    if any(o != outcomes[0] for o in outcomes):
        problems.append("simulated outcomes differ between batches")
    walls = [b.ref_wall for b in plain]
    sim_ms = [ms for b in plain for ms in b.sim_ms]
    sims = sum(len(b.sim_ms) for b in plain)
    result = {
        "ready": ready,
        "attempted": setup.attempted + sum(b.attempted for b in batches),
        "failed": setup.failed + sum(b.failed for b in batches),
        "problems": problems,
        "batches": len(plain),
        "sim": outcomes[0],
        "e2e": {
            "wall_s": statistics.median(walls),
            "sims_per_s": _ratio(sims, sum(walls)),
            "op_ms_p50": _percentile(sim_ms, 0.5),
            "op_ms_p90": _percentile(sim_ms, 0.9),
            "op_samples": len(sim_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
    }
    if recorder is not None:
        first_layers = layers[0]
        for name in COUNT_METRICS:
            if any(layer[name] != first_layers[name] for layer in layers):
                problems.append(f"per-layer count {name} differs between batches")
        per_layer = {
            name: statistics.median(layer[name] for layer in layers)
            for name in first_layers
        }
        # Reference seconds on both sides, so that a change of host speed
        # between a plain and a traced batch is not read as overhead.
        traced_wall = statistics.median(b.ref_wall for b in traced)
        per_layer["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
        per_layer["accesses_per_s"] = _ratio(
            per_layer["workloads.accesses"], statistics.median(walls)
        )
        result["layers"] = per_layer
        if args.spans_out is not None:
            recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
