"""Shared runtime helpers: deterministic CSV formatting."""

from __future__ import annotations

from typing import Iterable


def format_cell(value) -> str:
    """Render one CSV cell deterministically.

    Floats use repr (shortest round-trip form), infinities the literal ``inf``;
    everything else is str().
    """
    if isinstance(value, float):
        if value != value:  # NaN never belongs in a result table
            raise ValueError("refusing to serialize NaN")
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return repr(float(value))  # plain float: numpy scalars repr verbosely
    return str(value)


def format_row(cells: Iterable) -> str:
    return ",".join(format_cell(c) for c in cells)
