"""Trace file I/O: run *real* address traces through the substrate.

The synthetic generators stand in for SPEC2006 (DESIGN.md §1), but the
cache substrate is trace-driven, so anyone with real traces — from a
binary-instrumentation tool, a hardware trace unit, or another
simulator — can feed them straight in.  The format is deliberately
trivial:

- one access per line: ``R <hex address>`` or ``W <hex address>``;
- ``#``-prefixed lines are comments;
- a ``.gz`` suffix selects transparent gzip.

:func:`record_trace` captures a synthetic generator's stream into this
format (useful for sharing exact workloads between tools), and
:func:`read_trace` / :class:`FileTracePattern` replay a file either as
a raw access iterator or as an :class:`~repro.workloads.patterns.AccessPattern`
usable anywhere the synthetic patterns are.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.cpu.core import MemoryAccess
from repro.util.validation import check_positive
from repro.workloads.patterns import AccessPattern

PathLike = Union[str, Path]


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_trace(accesses: Iterable[MemoryAccess], path: PathLike) -> int:
    """Write accesses to ``path``; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with _open_text(path, "w") as handle:
        handle.write("# repro trace v1: '<R|W> <hex address>' per line\n")
        for access in accesses:
            kind = "W" if access.is_write else "R"
            handle.write(f"{kind} {access.address:#x}\n")
            count += 1
    return count


def record_trace(generator, path: PathLike, *, count: int) -> int:
    """Capture ``count`` accesses of a bound trace generator to a file."""
    check_positive("count", count)
    return write_trace(generator.accesses(count), path)


class TraceFormatError(ValueError):
    """A trace file line could not be parsed.

    The message always names the offending file and 1-based line
    number, so a malformed multi-gigabyte trace is diagnosable without
    bisection.
    """

    def __init__(self, path: Path, line_number: int, detail: str) -> None:
        super().__init__(f"{path}: line {line_number}: {detail}")
        self.path = path
        self.line_number = line_number
        self.detail = detail


#: Backwards-compatible alias (the pre-hardening exception name).
TraceParseError = TraceFormatError


def _parse_line(line: str, path: Path, line_number: int) -> MemoryAccess:
    parts = line.split()
    if len(parts) != 2 or parts[0] not in ("R", "W"):
        raise TraceFormatError(
            path,
            line_number,
            f"expected '<R|W> <address>', got {line.rstrip()!r}",
        )
    try:
        address = int(parts[1], 0)
    except ValueError:
        raise TraceFormatError(
            path, line_number, f"bad address {parts[1]!r}"
        ) from None
    if address < 0:
        raise TraceFormatError(path, line_number, "negative address")
    return MemoryAccess(address, is_write=parts[0] == "W")


def read_trace(
    path: PathLike,
    *,
    lenient: bool = False,
    skipped: Optional[List[int]] = None,
) -> Iterator[MemoryAccess]:
    """Stream accesses from a trace file (lazily; files may be huge).

    Malformed or truncated lines raise :class:`TraceFormatError` naming
    the file and 1-based line number.  With ``lenient=True`` bad lines
    are skipped instead; pass a list as ``skipped`` to collect their
    line numbers (the skip count is ``len(skipped)``).
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                yield _parse_line(stripped, path, line_number)
            except TraceFormatError:
                if not lenient:
                    raise
                if skipped is not None:
                    skipped.append(line_number)


def load_trace(path: PathLike, *, lenient: bool = False) -> List[MemoryAccess]:
    """Read an entire trace into memory (for repeated replay)."""
    return list(read_trace(path, lenient=lenient))


class FileTracePattern(AccessPattern):
    """An :class:`AccessPattern` that replays a recorded trace.

    The trace is loaded once and replayed cyclically, so it can be
    mixed with synthetic components in a
    :class:`~repro.workloads.generator.TraceGenerator` or profiled with
    :func:`~repro.workloads.profiler.profile_benchmark` via a custom
    profile.  Addresses are used verbatim (offset by the bound region
    base), so the file's own locality structure is preserved.
    """

    def __init__(self, path: PathLike) -> None:
        self._accesses = load_trace(path)
        if not self._accesses:
            raise ValueError(f"trace file {path} contains no accesses")
        distinct_blocks = {a.address >> 6 for a in self._accesses}
        # Footprint in ways is geometry-dependent; computed at bind.
        self._distinct_blocks = len(distinct_blocks)
        super().__init__(footprint_ways=1.0)  # placeholder until bind

    def _on_bind(self) -> None:
        self.footprint_ways = self._distinct_blocks / self.num_sets
        self._cursor = 0

    @property
    def trace_length(self) -> int:
        """Number of accesses in the file."""
        return len(self._accesses)

    def next_address(self) -> int:
        access = self._accesses[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._accesses)
        return self.region_base + access.address

    def next_access(self) -> MemoryAccess:
        """Like :meth:`next_address` but preserving the read/write bit."""
        access = self._accesses[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._accesses)
        return MemoryAccess(
            self.region_base + access.address, is_write=access.is_write
        )
