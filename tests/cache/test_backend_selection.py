"""The cache builders: runs build ``fast``; ``reference`` only by name.

The reference model is the oracle the fast kernel is checked against,
not a way to run.  Nothing outside the call site — no flag, no
environment variable, no machine field — can switch a run onto it, a
name outside :data:`BACKENDS` is refused, and the CLI's import graph
pulls in no numeric extension library.
"""

import subprocess
import sys

import pytest

from repro.cache.backend import BACKENDS, make_cache, make_partitioned_cache
from repro.cache.basic import SetAssociativeCache
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import WayPartitionedCache
from repro.cli import build_parser
from repro.sim.config import MachineConfig

GEOMETRY = CacheGeometry.from_sets(4, 4, 64)
EXPECTED = r"expected one of \('reference', 'fast'\)"


def test_backends_are_reference_and_fast():
    assert BACKENDS == ("reference", "fast")


def test_make_cache_refuses_fast_vec():
    with pytest.raises(ValueError, match=EXPECTED):
        make_cache(GEOMETRY, backend="fast-vec")


def test_partitioned_builder_refuses_unknown_names():
    with pytest.raises(ValueError, match=EXPECTED):
        make_partitioned_cache(GEOMETRY, 2, backend="fast-vec")


def test_environment_cannot_select_the_reference_model(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "reference")
    assert type(make_cache(GEOMETRY)) is FastSetAssociativeCache
    assert type(make_partitioned_cache(GEOMETRY, 2)) is (
        FastWayPartitionedCache
    )


def test_reference_model_is_built_by_name():
    assert type(make_cache(GEOMETRY, backend="reference")) is (
        SetAssociativeCache
    )
    assert type(
        make_partitioned_cache(GEOMETRY, 2, backend="reference")
    ) is WayPartitionedCache


@pytest.mark.parametrize(
    "argv",
    [
        ["fig5", "Mix-1"],
        ["fig7"],
        ["faults"],
        ["sweep", "run", "spec.json"],
    ],
    ids=["fig5", "fig7", "faults", "sweep-run"],
)
def test_cache_backend_flag_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv + ["--cache-backend=reference"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cache-backend" in (
        capsys.readouterr().err
    )


def test_machine_config_has_no_backend_field():
    with pytest.raises(TypeError, match="cache_backend"):
        MachineConfig(cache_backend="reference")


def test_cli_import_leaves_numpy_out():
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "False"
