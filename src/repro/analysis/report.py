"""Fixed-width text table rendering for the benchmark harness.

No plotting stack is assumed in this environment; every table and figure
is reproduced as aligned text the benches print (and EXPERIMENTS.md
records).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned text table.

    Numeric cells are right-aligned; text cells left-aligned.  Floats are
    shown with 4 significant digits unless already strings.
    """
    if not headers:
        raise ConfigurationError("need at least one column")
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )

    def fmt(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    numeric = [
        all(_is_numeric(r[i]) for r in cells) if cells else False
        for i in range(len(headers))
    ]

    def line(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def _is_numeric(text: str) -> bool:
    try:
        float(text.rstrip("x%"))
        return True
    except ValueError:
        return False
