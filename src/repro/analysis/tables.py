"""ASCII table / CSV emitters shared by the experiment harnesses."""

from __future__ import annotations

from typing import List, Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell, precision: int) -> str:
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 3,
) -> str:
    """Fixed-width ASCII table (the benches print these)."""
    rendered: List[List[str]] = [
        [_render(cell, precision) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered)) if rendered
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
