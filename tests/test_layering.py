"""The numeric modules return numbers: only ``cli`` lays out artifacts, so
none of them defines a ``to_json`` or reaches for the writers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gapforge"
NUMERIC = ("intervals", "design", "dispersion", "cell", "bands")
LAYOUT = {"_fmt", "cli"}


def imported_modules(tree):
    """The gapforge module names a module imports, relative or absolute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("gapforge").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("gapforge.") for alias in node.names)
    return names


@pytest.mark.parametrize("module", NUMERIC)
def test_numeric_module_lays_out_nothing(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "to_json" not in defined
    assert not imported_modules(tree) & LAYOUT
