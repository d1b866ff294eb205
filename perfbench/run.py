"""End-to-end benchmark of the QoS simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-warm --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, measured by a separate run
that wraps each layer's entry points with span recorders.  Every metric
is printed by name and unit, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Each workload runs in a fresh interpreter (``bench.py``), one operation
at a time, in a closed batch loop.  Set-up time is measured from the
start of a fresh interpreter to the end of set-up (the ``repro`` import
plus loading the warm curves), on several interpreters started only for
that.  Host times are reported in reference seconds (``hostspeed.py``).
See ``README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5-cold", "fig5-warm", "adaptive-faults")
#: Fresh interpreters started only to measure set-up: ``setup_s`` is
#: the median over the groups of the fastest set-up in each group, each
#: scaled by the host-speed readings the set-up process takes on its own
#: CPU as it starts and once set-up is done.  Set-up is a fixed cost
#: that host noise only adds to, so the fastest of a few start-ups is
#: its steadiest sample.
SETUP_GROUPS = 5
SETUP_GROUP_SIZE = 3
#: Printed on every run.  They are per-layer metrics in BENCHMARK.json:
#: an end-to-end metric must never be 0, which the first two can be, and
#: the p90 of a few simulation shapes flips between them on host noise.
ALWAYS_SHOWN = {
    "failed_frac": "ratio",
    "slo_violation_frac": "ratio",
    "op_ms_p90": "ms",
    "op_samples": "count",
}
#: Limit of a set-up run; the first one in a checkout may profile the
#: warm curves.
SETUP_TIMEOUT_S = 800


def run_timeout(seconds: float) -> float:
    """Limit of a workload run of ``seconds``.

    A run overshoots ``seconds`` by up to half an iteration, and one
    traced iteration of ``fig5-cold`` (an untraced and a traced batch)
    takes about a minute on its own.
    """
    return 3 * seconds + 120


def _worker(args: List[str], env: dict, timeout: float) -> dict:
    """Run ``bench.py`` to completion; return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"bench.py {' '.join(args)} exited with {proc.returncode}: "
            f"{lines[-1] if lines else 'no output'}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_MISS_CACHE="1",
        REPRO_MISS_CACHE_DIR=str(build / "warm-store"),
        REPRO_RESULT_STORE_DIR=str(build / "results"),
    )
    common = ["--workload", args.workload, "--build", str(build)]
    try:
        if args.workload != "fig5-cold":
            # Fills the warm store on the first run in a checkout.
            _worker([*common, "--setup-only"], env, SETUP_TIMEOUT_S)
        groups = []
        for _ in range(0 if args.trace else SETUP_GROUPS):
            group = []
            for _ in range(SETUP_GROUP_SIZE):
                start = time.time()
                ready = _worker([*common, "--setup-only"], env, SETUP_TIMEOUT_S)
                host_s = ready["ready"] - start - ready["sampling_s"]
                group.append(host_s * ready["speed"])
            groups.append(min(group))
        run_args = [
            *common,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            run_args += [
                "--spans-out",
                str(build / f"spans-{args.workload}-{args.seed}.bin"),
            ]
        result = _worker(run_args, env, run_timeout(args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = dict(result["e2e"])
    values.update(result["sim"])
    values.update(result.get("layers", {}))
    if groups:
        values["setup_s"] = statistics.median(groups)
    values["failed_frac"] = result["failed"] / result["attempted"]
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {result['batches']} untraced "
        f"batch(es), {values['op_samples']} simulation latency samples, "
        f"{len(groups)} x {SETUP_GROUP_SIZE} set-up samples"
    )
    shown = {m["name"]: m["unit"] for m in wanted}
    for name, unit in {**shown, **ALWAYS_SHOWN}.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(
        json.dumps(
            {
                "correct": not result["problems"] and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
