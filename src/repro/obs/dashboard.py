"""Terminal dashboard rendering for ``repro top``.

Pure functions from a sweep progress stream to fixed-width text
frames.  Everything run-varying comes *in through the arguments* — no
wall clock, no randomness, no environment reads — so rendering the
same stream twice yields byte-identical frames.  That is what makes
``repro top --once`` a CI-checkable artefact rather than a toy: the
determinism lives here, and the polling loop in the CLI only decides
*when* to call these functions.

Layout is plain ANSI-free text by default; the live loop in the CLI
adds the screen-clear escape around whole frames, never inside them.
"""

from __future__ import annotations

import math
from typing import List, Sequence

#: Eight-level Unicode bars, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Frame width every renderer targets (content may be narrower).
FRAME_WIDTH = 64


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render the last ``width`` values as eight-level bars.

    Scaling is per-call min/max; a constant (or single-point) series
    renders at the lowest level, so a flat line reads as flat.
    """
    tail = [float(v) for v in values][-width:]
    if not tail:
        return ""
    low = min(tail)
    high = max(tail)
    span = high - low
    if span <= 0 or not math.isfinite(span):
        return SPARK_GLYPHS[0] * len(tail)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((value - low) / span * top))]
        for value in tail
    )


def progress_bar(done: float, total: float, width: int = 28) -> str:
    """A ``[#####.....] done/total`` cell with clamped fill."""
    total = max(total, 1.0)
    fraction = min(1.0, max(0.0, done / total))
    filled = int(round(fraction * width))
    return (
        "[" + "#" * filled + "." * (width - filled) + "]"
        f" {int(done)}/{int(total)}"
    )


def _fmt(value: float, digits: int = 1) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.{digits}f}"


def render_sweep_frame(records: Sequence[dict]) -> str:
    """One ``repro top`` frame over a sweep progress stream.

    ``records`` is the loaded (or tailed) ``*.progress.jsonl`` — the
    newest ``sweep.begin`` partitions the run into served-from-store
    and pending, and the newest progress/end record carries the
    counts, throughput, and ETA.
    """
    lines: List[str] = ["repro top — sweep"]
    if not records:
        lines.append("(no progress records yet)")
        return "\n".join(lines) + "\n"

    begin = None
    latest = None
    ended = False
    for record in records:
        if record["kind"] == "sweep.begin":
            begin = record
            latest = record
            ended = False
        elif record["kind"] in ("sweep.progress", "sweep.end"):
            latest = record
            ended = record["kind"] == "sweep.end"
    if latest is None:
        lines.append("(no sweep records in stream)")
        return "\n".join(lines) + "\n"

    series = latest.get("series") or {}
    name = latest.get("sweep", "?")
    total = float(series.get("total", 0))
    served = float(series.get("served", 0))
    executed = float(series.get("executed", 0))
    pending = float(series.get("pending", max(0.0, total - served)))
    done = float(series.get("done", served + executed))
    lines[0] += f"  {name}" + ("  COMPLETE" if ended else "")
    lines.append("-" * FRAME_WIDTH)
    lines.append("points  " + progress_bar(done, total))
    lines.append(
        f"split   served-from-store {_fmt(served)}"
        f"  executed {_fmt(executed)}  pending {_fmt(pending)}"
    )
    detail = [f"workers {_fmt(float(series.get('workers', 1)))}"]
    if "throughput" in series:
        detail.append(f"throughput {series['throughput']:.3f} pt/s")
    if "eta_seconds" in series:
        detail.append(f"eta {series['eta_seconds']:.1f}s")
    detail.append(f"t {_fmt(float(latest.get('t', 0.0)), 1)}s")
    lines.append("        " + "  ".join(detail))
    if begin is not None and begin is not latest:
        bseries = begin.get("series") or {}
        lines.append(
            f"resume  began with {_fmt(float(bseries.get('served', 0)))}"
            f" stored / {_fmt(float(bseries.get('pending', 0)))} to run"
        )
    history = sparkline(
        [
            float((record.get("series") or {}).get("done", 0))
            for record in records
            if record["kind"] in ("sweep.progress", "sweep.end")
        ]
    )
    if history:
        lines.append(f"trend   {history}")
    return "\n".join(lines) + "\n"
