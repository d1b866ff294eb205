"""The cache-backend selector: exactly ``reference`` and ``fast``.

A name outside :data:`BACKENDS` must be refused wherever one can
arrive from outside the program — an explicit ``make_cache`` argument,
the ``--cache-backend`` flag, and the ``REPRO_CACHE_BACKEND``
environment variable — and the CLI's import graph pulls in no numeric
extension library.
"""

import subprocess
import sys

import pytest

from repro.cache import backend
from repro.cache.backend import BACKENDS, make_cache
from repro.cache.geometry import CacheGeometry
from repro.cli import build_parser

GEOMETRY = CacheGeometry.from_sets(4, 4, 64)
EXPECTED = r"expected one of \('reference', 'fast'\)"


def test_backends_are_reference_and_fast():
    assert BACKENDS == ("reference", "fast")


def test_make_cache_refuses_fast_vec():
    with pytest.raises(ValueError, match=EXPECTED):
        make_cache(GEOMETRY, backend="fast-vec")


def test_cache_backend_flag_refuses_fast_vec(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(
            ["fig5", "bzip2", "--cache-backend", "fast-vec"]
        )
    assert exit_info.value.code == 2
    assert "invalid choice: 'fast-vec'" in capsys.readouterr().err


def test_environment_fast_vec_refused_at_first_build(monkeypatch):
    monkeypatch.setattr(backend, "_default_backend", None)
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "fast-vec")
    with pytest.raises(ValueError, match=EXPECTED):
        make_cache(GEOMETRY)


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
