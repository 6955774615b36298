"""Plain-text rendering of the reproduced tables and figures.

Every paper-vs-measured table (:mod:`repro.experiments.tables`, archived
under ``benchmarks/results/``) and every CLI report is built with these
helpers, so the reproduction can be eyeballed without plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple, Union

Cell = Union[str, int, float, None]


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return f"{cell:,}" if abs(cell) >= 1000 else str(cell)
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


@dataclass
class Table:
    """A fixed-column text table."""

    title: str
    headers: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        formatted = [
            [_format_cell(c) for c in row] for row in self.rows
        ]
        widths = [
            max(
                len(self.headers[i]),
                *(len(row[i]) for row in formatted),
            )
            if formatted
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            h.ljust(widths[i]) for i, h in enumerate(self.headers)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in formatted:
            lines.append(
                "  ".join(c.ljust(widths[i]) for i, c in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def emit(self) -> str:
        """Print the table between blank lines; returns the text."""
        text = self.render()
        print("\n" + text + "\n")
        return text


def format_figure_series(
    title: str,
    series: Sequence[Tuple[str, Iterable[Tuple[float, float]]]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more (x, y) series as aligned text columns."""
    lines = [title, "=" * len(title)]
    for name, points in series:
        lines.append(f"[{name}]  ({x_label} -> {y_label})")
        for x, y in points:
            lines.append(f"  {x:>12.2f}  {y:>8.4f}")
    return "\n".join(lines)
