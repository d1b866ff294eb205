"""Plain-text table rendering.

The benchmark harness regenerates the paper's tables and figure series as
text; this module renders them in a fixed-width grid so the bench output
reads like the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def _render_cell(cell: Cell, float_format: str) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return format(cell, float_format)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    *,
    title: str = "",
    float_format: str = ".3f",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned text table.

    Floats are formatted with ``float_format``; ``None`` renders as "-".
    Returns the table as a single string (no trailing newline).
    """
    rendered_rows: List[List[str]] = [
        [_render_cell(cell, float_format) for cell in row] for row in rows
    ]
    for i, row in enumerate(rendered_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are "
                f"{len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for col, cell in enumerate(row):
            widths[col] = max(widths[col], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(list(headers)))
    lines.append(separator)
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)

