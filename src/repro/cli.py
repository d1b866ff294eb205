"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig5 bzip2          # Figure 5 panels for a workload
    python -m repro fig5 Mix-1          # or a Table 3 mix
    python -m repro fig7                # All-Strict vs AutoDown traces
    python -m repro fig1                # the motivation series
    python -m repro curves bzip2 hmmer  # print miss-ratio curves
    python -m repro fig4                # the sensitivity scatter
    python -m repro cluster --size      # capacity-plan a server

The heavier figures profile their benchmarks on first use (a few
seconds each); curves are memoised for the life of the process.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional, TypeVar

from repro.analysis import misscache
from repro.analysis.gantt import render_gantt
from repro.analysis.parallel import parallel_map
from repro.analysis.report import (
    deadline_table,
    downgrade_ladder_lines,
    miss_cache_lines,
    observability_lines,
    resilience_table,
    sensitivity_table,
    slo_table,
    throughput_table,
    trace_table,
    wall_clock_table,
)
from repro.analysis.runner import run_all_configurations
from repro.analysis.sensitivity import sensitivity_points
from repro.core.config import CONFIGURATIONS
from repro.faults import (
    FaultConfig,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.obs import Observer, reset_observer, set_observer
from repro.sim.engine import RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.util.tables import format_table
from repro.workloads.benchmarks import BENCHMARKS, get_benchmark
from repro.workloads.composer import mixed_workload, single_benchmark_workload
from repro.core.cluster import ClusterJobProfile, ClusterSimulator, size_cluster
from repro.core.spec import PRESET_TARGETS
from repro.workloads.profiler import get_curve, load_curves, save_curves

WORKLOAD_CHOICES = sorted(BENCHMARKS) + ["Mix-1", "Mix-2"]

T = TypeVar("T")


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(sorted(BENCHMARKS)))
    print("mixes: Mix-1, Mix-2")
    print("commands:", ", ".join(args.command_names))
    return 0


def _cmd_fig1(_: argparse.Namespace) -> int:
    profile = get_benchmark("bzip2")
    curve = get_curve(profile)
    model = profile.cpi_model()
    solo = model.ipc(curve.mpi(16))
    target = solo * 2 / 3
    rows = []
    for instances in (1, 2, 3, 4):
        ipc = model.ipc(curve.mpi(16 / instances))
        rows.append(
            [instances, ipc, "met" if ipc >= target else "MISSED"]
        )
    print(
        format_table(
            ["instances", "per-instance IPC", f"target {target:.3f}"],
            rows,
            title="Figure 1 — bzip2 under equal partitioning",
        )
    )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    print("profiling all fifteen benchmarks …", file=sys.stderr)
    points = sensitivity_points(jobs=args.jobs)
    print(sensitivity_table(points, title="Figure 4 — sensitivity"))
    for line in miss_cache_lines():
        print(line)
    return 0


def _policy_of(args: argparse.Namespace):
    """The ``--policy`` instance, or ``None`` for a policy-free run."""
    from repro.core.policy import make_policy

    return make_policy(args.policy) if args.policy is not None else None


def _cmd_fig5(args: argparse.Namespace) -> int:
    curves = None
    if args.curves:
        try:
            curves = load_curves(args.curves)
        except (OSError, ValueError) as error:
            print(f"fig5: {error}", file=sys.stderr)
            return 2
    results = run_all_configurations(
        args.workload, curves=curves, jobs=args.jobs, policy=_policy_of(args)
    )
    print(deadline_table(results, title=f"Figure 5a — {args.workload}"))
    print()
    print(throughput_table(results, title=f"Figure 5b — {args.workload}"))
    for line in miss_cache_lines():
        print(line)
    if args.json:
        import json as _json

        from repro.util.atomicio import write_atomic_text

        artifacts = {
            name: result.to_artifact().to_dict()
            for name, result in results.items()
        }
        path = write_atomic_text(
            args.json, _json.dumps(artifacts, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {path}")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    results = run_all_configurations(
        args.workload, jobs=args.jobs, policy=_policy_of(args)
    )
    for config, result in results.items():
        print(wall_clock_table(result, title=f"Figure 6 — {config}"))
        print()
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    results = run_all_configurations(
        args.workload,
        configurations=["All-Strict", "All-Strict+AutoDown"],
        record_trace=True,
        jobs=args.jobs,
        policy=_policy_of(args),
    )
    for config, result in results.items():
        print(f"Figure 7 — {config}")
        print(render_gantt(result.jobs, result.trace))
        print()
        print(trace_table(result, title=f"{config} — job details"))
        if result.slo is not None:
            print()
            print(slo_table(result, title=f"{config} — SLO monitor"))
        print(
            f"makespan: {result.makespan_cycles / 1e6:.0f} Mcycles\n"
        )
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    for name in args.benchmarks:
        curve = get_curve(get_benchmark(name))
        rows = [
            [ways, curve.points[ways], curve.mpi(ways)]
            for ways in sorted(curve.points)
            if ways > 0
        ]
        print(
            format_table(
                ["ways", "miss rate", "misses/instruction"],
                rows,
                title=f"miss-ratio curve — {name}",
                float_format=".4f",
            )
        )
        print()
    return 0


def _profile_worker(name: str):
    """Profile one benchmark (module-level so ``--jobs`` can pickle it)."""
    return name, get_curve(get_benchmark(name))


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile miss-ratio curves and save them for later runs."""
    names = args.benchmarks if args.benchmarks else sorted(BENCHMARKS)
    unknown = sorted(set(names) - set(BENCHMARKS))
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    print(f"profiling {len(names)} benchmark(s) …", file=sys.stderr)
    curves = dict(parallel_map(_profile_worker, names, jobs=args.jobs))
    path = save_curves(curves, args.out)
    print(f"wrote {len(curves)} curve(s) to {path}")
    for line in miss_cache_lines():
        print(line)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run a workload under fault injection and print the resilience report."""
    if args.resume:
        try:
            checkpoint = load_checkpoint(args.resume)
        except (OSError, ValueError) as error:
            print(f"faults: {error}", file=sys.stderr)
            return 2
        print(f"resumed: {checkpoint.describe()}", file=sys.stderr)
        simulator = resume_simulator(checkpoint)
    else:
        configuration = CONFIGURATIONS[args.config]
        if configuration.equal_partition:
            print(
                "fault injection requires the QoS simulator; pick a "
                "non-EqualPart --config",
                file=sys.stderr,
            )
            return 2
        if args.workload in ("Mix-1", "Mix-2"):
            workload = mixed_workload(args.workload, configuration)
        else:
            workload = single_benchmark_workload(args.workload, configuration)
        fault_config = FaultConfig(
            seed=args.fault_seed,
            core_failure_rate=args.core_rate,
            core_stall_rate=args.stall_rate,
            bandwidth_degradation_rate=args.bandwidth_rate,
            ecc_error_rate=args.ecc_rate,
        )
        simulator = QoSSystemSimulator(workload, fault_config=fault_config)

    budget = None
    if args.max_events is not None or args.max_seconds is not None:
        budget = RunBudget(
            max_events=args.max_events, max_wall_seconds=args.max_seconds
        )
    result = simulator.run(budget=budget)

    if result.partial:
        print(
            f"run aborted early ({result.abort_reason}); partial report",
            file=sys.stderr,
        )
        if args.checkpoint:
            path = save_checkpoint(
                checkpoint_simulator(simulator), args.checkpoint
            )
            print(f"checkpoint written to {path}", file=sys.stderr)
    name = args.config if not args.resume else "resumed run"
    if result.resilience is not None:
        print(resilience_table(result, title=f"Fault injection — {name}"))
        ladder = downgrade_ladder_lines(result)
        if ladder:
            print("\ndowngrade ladder:")
            for line in ladder:
                print(f"  {line}")
        if result.fault_timeline_digest:
            print(f"\nfault timeline digest: {result.fault_timeline_digest}")
    print()
    print(trace_table(result, title="job details"))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect and compare observability artifacts from past runs."""
    from repro.obs.diff import diff_snapshots
    from repro.obs.export import (
        load_events_jsonl,
        load_metrics_jsonl,
        summary_dict,
        write_summary_json,
    )

    try:
        if args.obs_command == "diff":
            baseline = load_metrics_jsonl(args.baseline)
            current = load_metrics_jsonl(args.current)
        else:
            records = load_metrics_jsonl(args.metrics)
        if args.obs_command == "summarize" and args.events:
            events = load_events_jsonl(args.events)
        else:
            events = None
    except (OSError, ValueError) as error:
        print(f"obs: {error}", file=sys.stderr)
        return 2

    if args.obs_command == "summarize":
        summary = summary_dict(records, events)
        rows = [
            ["metric series", summary["series"]],
            *[
                [
                    "  summaries" if kind == "summary" else f"  {kind}s",
                    count,
                ]
                for kind, count in sorted(
                    summary["series_by_type"].items()
                )
            ],
            ["counter total", summary["counter_total"]],
        ]
        if events is not None:
            rows.append(["events", summary["events"]])
            rows.append(["event kinds", len(summary["event_kinds"])])
        print(
            format_table(
                ["series", "value"], rows, title=f"obs — {args.metrics}"
            )
        )
        if args.summary_out:
            path = write_summary_json(
                records, args.summary_out, events
            )
            print(f"summary JSON written to {path}")
        return 0

    if args.obs_command == "top":
        counters = sorted(
            (
                record
                for record in records
                if record["type"] == "counter"
            ),
            key=lambda record: (-record["value"], record["name"]),
        )
        rows = [
            [record["name"], record["value"]]
            for record in counters[: args.count]
        ]
        print(
            format_table(
                ["counter", "value"],
                rows,
                title=f"top {args.count} counters — {args.metrics}",
            )
        )
        return 0

    if args.obs_command == "diff":
        report = diff_snapshots(
            baseline,
            current,
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
        )
        for line in report.lines():
            print(line)
        return 0 if report.clean else 1

    raise AssertionError(f"unknown obs command {args.obs_command!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Orchestrate scenario sweeps over the content-addressed store."""
    from repro.analysis.sweep import (
        diff_reports,
        load_report,
        load_sweep_file,
        run_sweep,
        sweep_status,
    )

    if args.sweep_command == "run":
        try:
            spec = load_sweep_file(args.spec)
        except (OSError, ValueError) as error:
            print(f"sweep: {error}", file=sys.stderr)
            return 2
        outcome = run_sweep(spec, store_dir=args.store_dir, jobs=args.jobs)
        rows = [
            [
                point["label"],
                point["figures_of_merit"]["deadline_hit_rate"],
                point["figures_of_merit"]["makespan_cycles"] / 1e6,
                int(point["figures_of_merit"]["steal_transfers"]),
                int(point["figures_of_merit"]["rejections"]),
            ]
            for point in outcome.report["points"]
        ]
        print(
            format_table(
                [
                    "point",
                    "deadline hit",
                    "makespan (Mcyc)",
                    "steals",
                    "rejections",
                ],
                rows,
                title=f"sweep {spec.name} — {len(spec.points)} point(s)",
            )
        )
        print(
            f"results store: {outcome.served_from_store} point(s) served "
            f"from store, {outcome.executed} executed "
            f"({outcome.store_dir})"
        )
        print(f"report written to {outcome.report_path}")
        for line in miss_cache_lines():
            print(line)
        if args.baseline:
            try:
                baseline = load_report(
                    args.baseline, store_dir=args.store_dir
                )
            except (OSError, ValueError) as error:
                print(f"sweep: {error}", file=sys.stderr)
                return 2
            report = diff_reports(
                baseline,
                outcome.report,
                rel_tol=args.rel_tol,
                abs_tol=args.abs_tol,
            )
            print(f"baseline: {args.baseline}")
            for line in report.lines():
                print(line)
            return 0 if report.clean else 1
        return 0

    if args.sweep_command == "status":
        try:
            spec = load_sweep_file(args.spec)
        except (OSError, ValueError) as error:
            print(f"sweep: {error}", file=sys.stderr)
            return 2
        status = sweep_status(spec, store_dir=args.store_dir)
        print(
            f"sweep {spec.name}: {len(status.done)}/"
            f"{len(spec.points)} point(s) in store, "
            f"{len(status.missing)} missing"
        )
        for label in status.missing:
            note = " (corrupt entry)" if label in status.corrupt else ""
            print(f"  missing: {label}{note}")
        return 0

    if args.sweep_command == "diff":
        try:
            baseline = load_report(
                args.baseline, store_dir=args.store_dir
            )
            current = load_report(
                args.current, store_dir=args.store_dir
            )
        except (OSError, ValueError) as error:
            print(f"sweep: {error}", file=sys.stderr)
            return 2
        report = diff_reports(
            baseline,
            current,
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
        )
        for line in report.lines():
            print(line)
        return 0 if report.clean else 1

    raise AssertionError(f"unknown sweep command {args.sweep_command!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    """Differential / metamorphic / fuzz verification (repro.verify)."""
    import json as _json

    from repro.verify import (
        LAWS,
        POLICY_LAWS,
        Scenario,
        load_case,
        parse_budget,
        replay_case,
        run_diff,
        run_fuzz,
        run_laws,
    )

    if args.verify_command == "diff":
        if args.fig:
            scenario = Scenario.for_figure(args.fig, seed=args.seed)
            if args.pair_policy != scenario.pair_policy:
                import dataclasses as _dataclasses

                scenario = _dataclasses.replace(
                    scenario, pair_policy=args.pair_policy
                )
        else:
            scenario = Scenario(
                workload=args.workload,
                configurations=tuple(args.configs)
                if args.configs
                else ("All-Strict", "All-Strict+AutoDown"),
                count=args.count,
                seed=args.seed,
                jobs=args.pair_jobs,
                pair_policy=args.pair_policy,
            )
        report = run_diff(scenario, pairs=tuple(args.pairs))
    elif args.verify_command == "laws":
        known = LAWS if args.policy is None else POLICY_LAWS
        unknown = sorted(set(args.laws or ()) - set(known))
        if unknown:
            print(
                f"verify: unknown law(s) {unknown}; expected among "
                f"{sorted(known)}",
                file=sys.stderr,
            )
            return 2
        report = run_laws(
            args.seed, names=args.laws or None, policy=args.policy
        )
    elif args.verify_command == "fuzz":
        try:
            budget_seconds = parse_budget(args.budget)
        except ValueError as error:
            print(f"verify: {error}", file=sys.stderr)
            return 2
        report = run_fuzz(
            args.seed,
            budget_seconds=budget_seconds,
            max_cases=args.max_cases,
            out=args.out,
            pairs=tuple(args.pairs) if args.pairs else None,
        )
    elif args.verify_command == "replay":
        try:
            case = load_case(args.case)
        except (OSError, ValueError) as error:
            print(f"verify: {error}", file=sys.stderr)
            return 2
        report = replay_case(case)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(
            f"unknown verify command {args.verify_command!r}"
        )

    for line in report.lines():
        print(line)
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {path}")
    return report.exit_code


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Capacity-plan a CMP server for a gold/silver mix (Figure 2)."""
    profiles = [
        ClusterJobProfile(
            name="gold",
            weight=0.3,
            resources=PRESET_TARGETS["large"],
            mean_wall_clock=1.0,
            deadline_multiplier=1.2,
        ),
        ClusterJobProfile(
            name="silver",
            weight=0.7,
            resources=PRESET_TARGETS["medium"],
            mean_wall_clock=0.6,
            deadline_multiplier=2.0,
        ),
    ]
    if args.size:
        nodes = size_cluster(
            profiles=profiles,
            mean_interarrival=args.interarrival,
            target_acceptance=args.target,
        )
        print(
            f"smallest cluster for {args.target:.0%} acceptance at mean "
            f"inter-arrival {args.interarrival}s: {nodes} node(s)"
        )
        return 0
    report = ClusterSimulator(
        num_nodes=args.nodes,
        profiles=profiles,
        mean_interarrival=args.interarrival,
    ).run(horizon=50.0)
    print(
        f"{args.nodes} node(s): accepted {report.accepted}/"
        f"{report.submitted} ({report.acceptance_rate:.0%}), mean core "
        f"load {report.mean_load:.0%}, counter-offers "
        f"{report.counter_offers}"
    )
    for name in ("gold", "silver"):
        print(
            f"  {name}: {report.class_acceptance_rate(name):.0%} accepted"
        )
    return 0


def _checked(
    convert: Callable[[str], T], valid: Callable[[T], bool], expected: str
) -> Callable[[str], T]:
    """An argparse ``type=`` that converts, then range-checks, a value.

    A bad value is a usage error (exit 2), reported where it comes in
    instead of as a traceback from inside the run.
    """

    def parse(text: str) -> T:
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")
_non_negative_int = _checked(
    int, lambda value: value >= 0, "a non-negative integer"
)
_pair_jobs = _checked(int, lambda value: value >= 2, "an integer >= 2")
_non_negative_float = _checked(
    float, lambda value: 0 <= value < math.inf, "a finite non-negative number"
)
_positive_float = _checked(
    float, lambda value: 0 < value < math.inf, "a positive number"
)
_acceptance = _checked(
    float, lambda value: 0 < value <= 1, "a fraction in (0, 1]"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the MICRO 2007 CMP QoS paper",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Performance knobs shared by every simulation command.
    perf = argparse.ArgumentParser(add_help=False)
    perf.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent simulation points across N processes "
        "(0 = all cores; default 1 = serial)",
    )
    perf.add_argument(
        "--no-miss-cache", action="store_true",
        help="disable the on-disk miss-curve store (always re-profile)",
    )
    perf.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable observability and write the metrics snapshot "
        "(JSONL, one series per line) here",
    )
    perf.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="enable observability and write the structured event "
        "stream (JSONL, schema v1) here",
    )

    # Closed-loop policy selection, shared by the commands that drive
    # the QoS simulator (repro.core.policy registry names).
    from repro.core.policy import policy_names

    policy_parent = argparse.ArgumentParser(add_help=False)
    policy_parent.add_argument(
        "--policy", choices=policy_names(), default=None,
        help="run under a closed-loop adaptive policy (default none)",
    )

    listing = commands.add_parser("list", help="list workloads and commands")

    commands.add_parser(
        "fig1", help="Figure 1 motivation series", parents=[perf]
    )
    commands.add_parser(
        "fig4", help="Figure 4 sensitivity scatter", parents=[perf]
    )

    fig5 = commands.add_parser(
        "fig5", help="Figure 5 panels", parents=[perf, policy_parent]
    )
    fig5.add_argument("workload", choices=WORKLOAD_CHOICES)
    fig5.add_argument(
        "--json",
        help="also write one versioned result artifact per configuration "
        "to this JSON file",
    )
    fig5.add_argument(
        "--curves", help="load pre-profiled curves from this JSON file"
    )

    fig6 = commands.add_parser(
        "fig6",
        help="Figure 6 wall-clock candles",
        parents=[perf, policy_parent],
    )
    fig6.add_argument("workload", choices=WORKLOAD_CHOICES)

    fig7 = commands.add_parser(
        "fig7",
        help="Figure 7 execution traces",
        parents=[perf, policy_parent],
    )
    fig7.add_argument(
        "workload", nargs="?", default="bzip2", choices=WORKLOAD_CHOICES
    )

    curves = commands.add_parser(
        "curves", help="print miss-ratio curves", parents=[perf]
    )
    curves.add_argument(
        "benchmarks", nargs="+", choices=sorted(BENCHMARKS)
    )

    profile = commands.add_parser(
        "profile",
        help="profile miss-ratio curves to a JSON file",
        parents=[perf],
    )
    profile.add_argument(
        "benchmarks", nargs="*",
        help="benchmarks to profile (default: all fifteen)",
    )
    profile.add_argument("--out", default="curves.json")

    faults = commands.add_parser(
        "faults",
        help="fault-injection run with a resilience report",
        parents=[perf],
    )
    faults.add_argument(
        "workload", nargs="?", default="bzip2", choices=WORKLOAD_CHOICES
    )
    faults.add_argument(
        "--config", default="All-Strict",
        choices=[
            name
            for name, config in CONFIGURATIONS.items()
            if not config.equal_partition
        ],
        help="Table 2 configuration to run under",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed for the deterministic fault schedule",
    )
    faults.add_argument(
        "--core-rate", type=_non_negative_float, default=4.0,
        help="core failures per simulated second",
    )
    faults.add_argument(
        "--stall-rate", type=_non_negative_float, default=0.0,
        help="transient core stalls per simulated second",
    )
    faults.add_argument(
        "--bandwidth-rate", type=_non_negative_float, default=0.0,
        help="bandwidth brown-outs per simulated second",
    )
    faults.add_argument(
        "--ecc-rate", type=_non_negative_float, default=0.0,
        help="duplicate-tag ECC errors per simulated second",
    )
    faults.add_argument(
        "--max-events", type=_non_negative_int, default=None,
        help="abort gracefully after this many events",
    )
    faults.add_argument(
        "--max-seconds", type=_non_negative_float, default=None,
        help="abort gracefully after this much wall-clock time",
    )
    faults.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint here if the run aborts early",
    )
    faults.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint written by --checkpoint",
    )

    obs = commands.add_parser(
        "obs", help="inspect and diff observability artifacts"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    obs_summarize = obs_commands.add_parser(
        "summarize", help="roll up one run's metrics/events artifacts"
    )
    obs_summarize.add_argument(
        "metrics", help="metrics snapshot (JSONL from --metrics-out)"
    )
    obs_summarize.add_argument(
        "--events", default=None,
        help="event stream (JSONL from --events-out) to include",
    )
    obs_summarize.add_argument(
        "--summary-out", default=None, metavar="PATH",
        help="also write the summary roll-up as canonical JSON here",
    )

    obs_top = obs_commands.add_parser(
        "top", help="largest counters in a metrics snapshot"
    )
    obs_top.add_argument("metrics")
    obs_top.add_argument(
        "-n", "--count", type=_positive_int, default=10,
        help="how many counters to show",
    )

    obs_diff = obs_commands.add_parser(
        "diff", help="regression-compare two metrics snapshots"
    )
    obs_diff.add_argument("baseline", help="baseline metrics snapshot")
    obs_diff.add_argument("current", help="current metrics snapshot")
    obs_diff.add_argument(
        "--rel-tol", type=_non_negative_float, default=0.0,
        help="relative tolerance per series (default: exact)",
    )
    obs_diff.add_argument(
        "--abs-tol", type=_non_negative_float, default=0.0,
        help="absolute tolerance per series (default: exact)",
    )

    sweep = commands.add_parser(
        "sweep",
        help="resumable scenario sweeps over the results store",
    )
    sweep_commands = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_store = argparse.ArgumentParser(add_help=False)
    sweep_store.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="results store directory (default: "
        "$REPRO_RESULT_STORE_DIR or ~/.cache/repro-qos/results)",
    )
    sweep_tol = argparse.ArgumentParser(add_help=False)
    sweep_tol.add_argument(
        "--rel-tol", type=_non_negative_float, default=0.0,
        help="relative tolerance per figure of merit (default: exact)",
    )
    sweep_tol.add_argument(
        "--abs-tol", type=_non_negative_float, default=0.0,
        help="absolute tolerance per figure of merit (default: exact)",
    )

    sweep_run = sweep_commands.add_parser(
        "run",
        help="run a sweep file; stored points are skipped (resume = rerun)",
        parents=[perf, sweep_store, sweep_tol],
    )
    sweep_run.add_argument("spec", help="versioned JSON sweep file")
    sweep_run.add_argument(
        "--baseline", default=None, metavar="SWEEP",
        help="after the run, regression-diff against this sweep "
        "(a report path or a sweep name in the store); dirty diff "
        "exits 1",
    )

    sweep_status_cmd = sweep_commands.add_parser(
        "status",
        help="which points of a sweep file are already in the store",
        parents=[sweep_store],
    )
    sweep_status_cmd.add_argument("spec", help="versioned JSON sweep file")

    sweep_diff = sweep_commands.add_parser(
        "diff",
        help="regression-compare two sweep reports",
        parents=[sweep_store, sweep_tol],
    )
    sweep_diff.add_argument(
        "baseline", help="baseline sweep (report path or name in store)"
    )
    sweep_diff.add_argument(
        "current", help="current sweep (report path or name in store)"
    )

    verify = commands.add_parser(
        "verify",
        help="differential, metamorphic, and fuzz verification",
    )
    verify_commands = verify.add_subparsers(
        dest="verify_command", required=True
    )

    # Shared by every verify subcommand; every comparison is exact.
    verify_json = argparse.ArgumentParser(add_help=False)
    verify_json.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report here",
    )

    verify_diff = verify_commands.add_parser(
        "diff",
        help="paired executions: backend / jobs / faults / policy "
        "agreement",
        parents=[verify_json],
    )
    verify_diff.add_argument(
        "--fig", choices=["fig5", "fig7"], default=None,
        help="verify the scenario behind a reproduced figure",
    )
    verify_diff.add_argument(
        "--workload", default="bzip2", choices=WORKLOAD_CHOICES,
        help="workload for a custom scenario (ignored with --fig)",
    )
    verify_diff.add_argument(
        "--configs", nargs="+", default=None,
        choices=sorted(CONFIGURATIONS), metavar="CONFIG",
        help="configuration subset for a custom scenario",
    )
    verify_diff.add_argument(
        "--count", type=_positive_int, default=10,
        help="jobs per workload in a custom scenario",
    )
    verify_diff.add_argument("--seed", type=int, default=0)
    verify_diff.add_argument(
        "--pairs", nargs="+", default=["backend", "jobs", "faults"],
        choices=["backend", "jobs", "faults", "policy"],
        help="differential pairs to run",
    )
    verify_diff.add_argument(
        "--pair-jobs", type=_pair_jobs, default=2, metavar="N",
        help="worker count for the parallel arm of the jobs pair",
    )
    verify_diff.add_argument(
        "--pair-policy", default="grow-shrink", choices=policy_names(),
        help="adaptive policy whose disabled instance the policy pair "
        "checks against running without a policy",
    )

    verify_laws = verify_commands.add_parser(
        "laws",
        help="metamorphic paper-level laws",
        parents=[verify_json],
    )
    verify_laws.add_argument("--seed", type=int, default=0)
    verify_laws.add_argument(
        "--laws", nargs="+", default=None, metavar="LAW",
        help="subset of laws to check (default: all)",
    )
    verify_laws.add_argument(
        "--policy", default=None, metavar="POLICY",
        choices=[*policy_names(), "all"],
        help="run the policy conformance laws instead, for one "
        "registered policy or 'all'",
    )

    verify_fuzz = verify_commands.add_parser(
        "fuzz",
        help="seeded scenario fuzzing with shrinking",
        parents=[verify_json],
    )
    verify_fuzz.add_argument("--seed", type=int, default=0)
    verify_fuzz.add_argument(
        "--budget", default="60s",
        help="time budget, e.g. 60s or 2m (default 60s)",
    )
    verify_fuzz.add_argument(
        "--max-cases", type=_positive_int, default=None,
        help="stop after this many cases even within budget",
    )
    verify_fuzz.add_argument(
        "--out", default="verify-case.json", metavar="PATH",
        help="where to write a shrunk failing case",
    )
    verify_fuzz.add_argument(
        "--pairs", nargs="+", default=None,
        choices=["backend", "jobs", "faults", "policy"],
        help="pin the differential pairs (default: random per case)",
    )

    verify_replay = verify_commands.add_parser(
        "replay",
        help="re-run a saved verify-case.json",
        parents=[verify_json],
    )
    verify_replay.add_argument(
        "case", help="path to a verify-case.json written by fuzz"
    )

    cluster = commands.add_parser(
        "cluster", help="capacity-plan a multi-node server (Figure 2)"
    )
    cluster.add_argument("--nodes", type=_positive_int, default=4)
    cluster.add_argument(
        "--interarrival", type=_positive_float, default=0.3,
        help="mean job inter-arrival time in seconds",
    )
    cluster.add_argument(
        "--size", action="store_true",
        help="find the smallest cluster meeting --target acceptance",
    )
    cluster.add_argument("--target", type=_acceptance, default=0.95)
    # Read off the parser so the listing cannot drift from it.
    listing.set_defaults(command_names=tuple(commands.choices))
    return parser


HANDLERS = {
    "list": _cmd_list,
    "fig1": _cmd_fig1,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "curves": _cmd_curves,
    "faults": _cmd_faults,
    "cluster": _cmd_cluster,
    "profile": _cmd_profile,
    "obs": _cmd_obs,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def _run_observed(args: argparse.Namespace) -> int:
    """Run the command with a live observer; write artifacts afterwards.

    The observer is installed for exactly one command invocation and
    restored in ``finally``, so repeated ``main()`` calls in one
    process (tests, notebooks) each start from empty registries —
    which is what makes the JSONL artifacts byte-identical across
    identically-seeded runs.
    """
    metrics_out = getattr(args, "metrics_out", None)
    events_out = getattr(args, "events_out", None)
    observer = Observer()
    set_observer(observer)
    try:
        code = HANDLERS[args.command](args)
        footer = observability_lines()
    finally:
        reset_observer()
    if metrics_out:
        path = observer.metrics.write_jsonl(metrics_out)
        print(f"metrics written to {path}")
    if events_out:
        path = observer.events.write_jsonl(events_out)
        print(f"events written to {path}")
    for line in footer:
        print(line)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # The miss-cache switch is session-wide: the setter mirrors into the
    # environment so --jobs workers inherit it.
    if getattr(args, "no_miss_cache", False):
        misscache.set_enabled(False)
    if getattr(args, "metrics_out", None) or getattr(args, "events_out", None):
        # --jobs N is fine here: parallel_map captures each worker's
        # telemetry and merges it deterministically, so the artifacts
        # match a serial run byte for byte.
        return _run_observed(args)
    return HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
