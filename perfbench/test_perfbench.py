"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The slow tests drive ``bench.py`` end to end with a short ``--seconds``;
the rest check the span recorder on toy classes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import hostspeed  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class _Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        time.sleep(0.005)
        return n


class _ToyChild(_Toy):
    pass


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()
    recorder.wrap(_Toy, "outer", "a.outer")
    recorder.wrap(_Toy, "inner", "b.inner")
    try:
        assert _Toy().outer(2) == 4
    finally:
        recorder.remove()
    summary = recorder.summarise()
    assert summary["entries"] == {"a": 1, "b": 2}
    assert summary["self_s"]["b"] >= 0.01
    assert summary["self_s"]["a"] < summary["self_s"]["b"]
    root = recorder.ends[0] - recorder.starts[0]
    assert summary["covered"] == pytest.approx(root)


def test_nested_calls_within_a_layer_count_once():
    recorder = SpanRecorder()
    recorder.wrap(_Toy, "outer", "a.outer")
    recorder.wrap(_Toy, "inner", "a.inner")
    try:
        _Toy().outer(1)
    finally:
        recorder.remove()
    assert recorder.summarise()["entries"] == {"a": 1}
    assert len(recorder) == 3


def test_remove_restores_own_and_inherited_attributes():
    own = vars(_Toy)["inner"]
    recorder = SpanRecorder()
    recorder.wrap(_Toy, "inner", "a.inner")
    recorder.wrap(_ToyChild, "outer", "a.outer")
    assert vars(_Toy)["inner"] is not own
    recorder.remove()
    assert vars(_Toy)["inner"] is own
    assert "outer" not in vars(_ToyChild)


def test_install_tracing_is_removed_completely():
    from repro.cpu.cpi import CpiModel
    from repro.sim.engine import EventQueue
    from repro.workloads import profiler

    def current():
        return (
            profiler.measure_miss_rates,
            vars(CpiModel)["cpi"],
            vars(EventQueue)["schedule"],
        )

    before = current()
    recorder = SpanRecorder()
    bench.install_tracing(recorder)
    assert profiler.measure_miss_rates is not before[0]
    recorder.remove()
    assert current() == before


def test_calibrated_cost_comes_off_the_parent_only():
    recorder = SpanRecorder()
    cost = recorder.calibrate(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-4
    assert len(recorder) == 0
    recorder.wrap(_Toy, "outer", "a.outer")
    recorder.wrap(_Toy, "inner", "b.inner")
    try:
        _Toy().outer(1)
    finally:
        recorder.remove()
    plain = recorder.summarise()
    charged = recorder.summarise(child_cost=cost)
    assert charged["tracer_s"] == pytest.approx(2 * cost)
    assert charged["self_s"]["b"] == plain["self_s"]["b"]
    assert charged["self_s"]["a"] == pytest.approx(
        plain["self_s"]["a"] - 2 * cost
    )
    assert charged["covered"] == pytest.approx(
        plain["covered"] - charged["tracer_s"]
    )


def test_dump_round_trips(tmp_path):
    recorder = SpanRecorder()
    recorder.wrap(_Toy, "outer", "a.outer")
    recorder.wrap(_Toy, "inner", "b.inner")
    try:
        _Toy().outer(1)
    finally:
        recorder.remove()
    path = tmp_path / "spans.bin"
    assert recorder.dump(path) == 3
    loaded = SpanRecorder.load(path)
    assert loaded.names == recorder.names
    assert list(loaded.parents) == [-1, 0, 0]
    assert loaded.summarise() == recorder.summarise()


def test_host_speed_scales_to_reference_seconds():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(nominal, nominal) == pytest.approx(1.0)
    # A host running the kernel at half speed has half-length seconds.
    assert hostspeed.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert gc.isenabled()
    assert hostspeed.sample(repeats=1) > 0.0
    assert gc.isenabled()


def test_percentile_moves_smoothly_with_the_values():
    assert bench._percentile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3)
    assert bench._percentile([7.0] * 9, 0.9) == pytest.approx(7.0)
    # Nudging the middle value nudges the estimate, never by more.
    low = bench._percentile([1, 2, 3.0, 4, 5], 0.5)
    high = bench._percentile([1, 2, 3.2, 4, 5], 0.5)
    assert 0 < high - low < 0.2


def test_meter_leaves_its_readings_out_of_the_call():
    def work(n):
        return sum(i * i for i in range(n))

    meter = hostspeed.Meter(every=0.02)
    start = time.perf_counter()
    result, host_s, ref_s = meter.call(work, 2_000_000)
    outer = time.perf_counter() - start
    assert result == work(2_000_000)
    assert ref_s > 0.0
    # Two readings (~10 ms each) ran around the call and several more
    # inside it; none of them counts as the call's time.
    assert outer - host_s > 0.04
    with pytest.raises(ZeroDivisionError):
        meter.call(lambda: 1 / 0)
    # The interval timer is off again after a call, even a failed one.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_seed_fixes_the_order_and_nothing_else():
    items = list(range(20))
    assert bench.shuffled(items, 7) == bench.shuffled(items, 7)
    assert sorted(bench.shuffled(items, 7)) == items
    assert bench.shuffled(items, 7) != bench.shuffled(items, 8)


def _bench(workload: str, trace: int, seed: int = 5) -> dict:
    """One ``bench.py`` run with a one-second budget (one batch)."""
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_MISS_CACHE_DIR=str(build / "warm-store"),
        REPRO_RESULT_STORE_DIR=str(build / "results"),
    )
    command = [sys.executable, str(HERE / "bench.py"),
               "--workload", workload, "--build", str(build)]
    subprocess.run(
        [*command, "--setup-only"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=600,
    )
    proc = subprocess.run(
        [*command, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fig5-warm", "adaptive-faults"])
def test_traced_counts_repeat_and_match_untraced_outputs(workload):
    first = _bench(workload, trace=1, seed=5)
    second = _bench(workload, trace=1, seed=6)
    plain = _bench(workload, trace=0, seed=5)
    for result in (first, second, plain):
        assert result["problems"] == []
        assert result["failed"] == 0
    for name in bench.COUNT_METRICS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["sim"] == second["sim"] == plain["sim"]
    layers = first["layers"]
    assert layers["trace.unattributed_frac"] <= 0.05
    if workload == "fig5-warm":
        assert layers["workloads.accesses"] == 0
        assert layers["policy.epochs"] == layers["obs.events_emitted"] == 0
        assert layers["misscache.hits"] == 3
    else:
        assert layers["policy.decisions"] > 0
        assert layers["faults.displacements"] > 0
        assert layers["obs.events_emitted"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
