"""Deterministic JSON/CSV emission with fixed-precision reals.

All reals are written with 17 significant digits so that identical inputs
produce byte-identical artifacts and every value round-trips exactly.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence


def fmt_real(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps_json(obj: Any, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars; floats via fmt_real, keys kept in
    insertion order (reports are built deterministically)."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            pad + "  " + dumps_json(str(k)) + ": " + dumps_json(v, indent + 2)
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
        items = ",\n".join(pad + "  " + dumps_json(v, indent + 2) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cell(v: Any) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return fmt_real(v)
    return str(v)


# the %-conversion of each cell type that prints the bytes of _cell, NaN and
# infinities aside
_CONVERSIONS = {float: "%.17g", bool: "%d", int: "%d", str: "%s"}


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> list[str]:
    """Header plus one line per row of Python scalars: bools as 1/0.

    A row is formatted with one %-template per sequence of cell types; a
    row with another type, or whose line holds an "n" (from nan or inf),
    goes through ``_cell`` one cell at a time."""
    templates: dict[tuple[type, ...], str | None] = {}
    lines = [",".join(header)]
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            specs = [_CONVERSIONS.get(t) for t in types]
            templates[types] = None if None in specs else ",".join(specs)
        template = templates[types]
        line = template % tuple(row) if template is not None else None
        if line is None or "n" in line:
            line = ",".join(map(_cell, row))
        lines.append(line)
    return lines
