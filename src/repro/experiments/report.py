"""Plain-text rendering of experiment results.

ASCII tables for the paper's tables, simple series charts for the
figures, and CSV export for downstream plotting.

Renders the paper's Tables 1-3 and Figures 6-8 as plain text.
"""

from __future__ import annotations

import csv
import io
from typing import Any

from repro.errors import ConfigError
from repro.experiments.runner import ExperimentResult


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Render a result as a fixed-width ASCII table."""
    cols = result.columns
    rows = [[_fmt(r.get(c, "")) for c in cols] for r in result.rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
        for i, c in enumerate(cols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [result.title, ""]
    out.append(" | ".join(c.ljust(w) for c, w in zip(cols, widths)))
    out.append(sep)
    for row in rows:
        out.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


def render_series(
    result: ExperimentResult,
    x: str,
    ys: list[str],
    width: int = 48,
) -> str:
    """Render columns as horizontal bar series (one block per y)."""
    for c in [x, *ys]:
        if c not in result.columns:
            raise ConfigError(f"unknown column {c!r}")
    values = [
        v
        for yc in ys
        for v in result.column(yc)
        if isinstance(v, (int, float))
    ]
    if not values:
        raise ConfigError("no numeric values to chart")
    vmax = max(values) or 1.0
    out = [result.title, ""]
    for yc in ys:
        out.append(f"[{yc}]")
        for row in result.rows:
            v = row.get(yc)
            if not isinstance(v, (int, float)):
                continue
            bar = "#" * max(1, int(round(v / vmax * width)))
            out.append(f"  {str(row[x]).rjust(14)} | {bar} {_fmt(v)}")
        out.append("")
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


def to_csv(result: ExperimentResult) -> str:
    """Serialize the rows to CSV text."""
    cols = result.columns
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    writer.writerows([row.get(c, "") for c in cols] for row in result.rows)
    return buf.getvalue()
