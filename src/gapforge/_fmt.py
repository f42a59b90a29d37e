"""Deterministic JSON/CSV emission with fixed-precision reals.

All reals are written with 17 significant digits so that identical inputs
produce byte-identical artifacts and every value round-trips exactly.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence


def fmt_real(x: float) -> str:
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
        if all(type(v) is float for v in obj):
            # one template pass, respelled as fmt_real writes nan and inf
            line = ", ".join(["%.17g"] * len(obj)) % tuple(obj)
            if "n" in line:
                line = line.replace("nan", "NaN").replace("inf", "Infinity")
            return "[" + line + "]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
        items = ",\n".join(pad + "  " + dumps_json(v, indent + 2) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> list[str]:
    """Header plus one line per row of reals, bools and ints.

    Every cell goes through "%.17g": a bool prints as 1/0 and an int below
    2**53 as its digits.  A line holding nan or an infinity is respelled
    NaN, Infinity, as ``fmt_real`` writes them."""
    templates: dict[int, str] = {}
    lines = [",".join(header)]
    for row in rows:
        template = templates.get(len(row))
        if template is None:
            template = templates[len(row)] = ",".join(["%.17g"] * len(row))
        line = template % tuple(row)
        if "n" in line:
            line = line.replace("nan", "NaN").replace("inf", "Infinity")
        lines.append(line)
    return lines
