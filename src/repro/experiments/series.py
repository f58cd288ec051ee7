"""Result containers for the experiment harness.

The paper reports its evaluation as line plots (one series per ``m`` or per
error probability).  :class:`Series` holds one such line and
:class:`ResultTable` holds all the series of one figure over a shared
x-axis, with ASCII and CSV renderings used by the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

__all__ = ["Series", "ResultTable"]


@dataclass
class Series:
    """One named line of a figure: y values over the table's x-axis."""

    name: str
    values: List[float] = field(default_factory=list)

    def append(self, value: float) -> None:
        """Add the next y value."""
        self.values.append(float(value))


@dataclass
class ResultTable:
    """All series of one figure over a shared x-axis."""

    title: str
    x_label: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, Series] = field(default_factory=dict)
    notes: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_series(self, name: str) -> Series:
        """Create (or fetch) a series by name."""
        if name not in self.series:
            self.series[name] = Series(name)
        return self.series[name]

    def add_row(self, x: float, values: Mapping[str, float]) -> None:
        """Append one x value together with every series' y value."""
        self.x_values.append(float(x))
        for name, value in values.items():
            self.add_series(name).append(value)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, float_format: str = "{:.4g}") -> str:
        """ASCII table: one row per x value, one column per series."""
        headers = [self.x_label] + list(self.series.keys())
        rows: List[List[str]] = []
        for index, x in enumerate(self.x_values):
            row = [float_format.format(x)]
            for series in self.series.values():
                if index < len(series.values):
                    value = series.values[index]
                    if value is None or (isinstance(value, float) and math.isnan(value)):
                        row.append("-")
                    else:
                        row.append(float_format.format(value))
                else:
                    row.append("-")
            rows.append(row)
        widths = [
            max(len(headers[column]), *(len(row[column]) for row in rows))
            if rows
            else len(headers[column])
            for column in range(len(headers))
        ]
        lines = [self.title]
        if self.notes:
            lines.append(self.notes)
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header + one line per x value)."""
        headers = [self.x_label] + list(self.series.keys())
        lines = [",".join(headers)]
        for index, x in enumerate(self.x_values):
            cells = [repr(float(x))]
            for series in self.series.values():
                cells.append(
                    repr(float(series.values[index]))
                    if index < len(series.values)
                    else ""
                )
            lines.append(",".join(cells))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
