"""Experiment result records and plain-text table rendering.

Every experiment returns an :class:`ExperimentTable`: a titled list of rows
(dictionaries) with a fixed column order.  The benchmark harness prints these
tables (so the "series the paper reports" are visible in benchmark output)
and EXPERIMENTS.md embeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ExperimentTable:
    """A titled table of experiment results.

    Attributes
    ----------
    experiment_id:
        The identifier from DESIGN.md (e.g. "E4").
    title:
        Human-readable description, typically naming the paper artifact.
    columns:
        Column names, in display order.
    rows:
        One dict per row; missing keys render as empty cells.
    notes:
        Free-form remarks (e.g. the paper's claim being checked).
    """

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row given as keyword arguments."""
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a free-form note to the table."""
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def __str__(self) -> str:
        return format_table(self)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(table: ExperimentTable) -> str:
    """Render an :class:`ExperimentTable` as aligned plain text."""
    header = list(table.columns)
    body = [[_format_cell(row.get(col)) for col in header] for row in table.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"[{table.experiment_id}] {table.title}"]
    lines.append("  " + " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  " + "-+-".join("-" * w for w in widths))
    for row in body:
        lines.append("  " + " | ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    for note in table.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x): the empirical growth exponent.

    Used to check claims like "operation count grows as N^{1.5}" from a
    scaling sweep.  Pairs with non-positive entries are skipped.
    """
    import math

    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(points) < 2:
        return 0.0
    n = len(points)
    mean_x = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    num = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    den = sum((p[0] - mean_x) ** 2 for p in points)
    return num / den if den else 0.0
