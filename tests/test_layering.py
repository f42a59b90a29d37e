"""The numeric modules return numbers: only ``cli`` lays out artifacts, so
none of them defines a ``to_json`` or reaches for the writers.  The package
loads only the scipy subpackages it solves with."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapforge.bands import DENSE_LIMIT, GridSpec, build_cell_graph

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


# one job of each solver-bearing command; the bands cell folds above
# DENSE_LIMIT, so its solves take the sparse path
SPARSE_CELL = {"holes": [[0.5, 0.5, 0.2, 0.3]], "base_resolution": 16, "theta_grid": 2, "num_bands": 4}
FOOTPRINT = """
import json, sys
import gapforge
from gapforge.cli import main
out, cell = sys.argv[1], sys.argv[2]
jobs = [
    ["convergence", "--intervals", "1,2", "--dim", "3", "--eps-list", "0.2,0.1", "--resolution", "64"],
    ["cell-eigs", "--intervals", "1,2", "--dim", "3", "--eps", "0.1", "--resolution", "64", "--num-eigs", "2"],
    ["dispersion", "--sigma", "1.7,4.2", "--rho", "0.3,0.5", "--count", "11"],
    ["bands", "--config", cell],
]
codes = [main([*argv, "--out", out]) for argv in jobs]
public = {name.split(".")[1] for name in sys.modules if name.startswith("scipy.")}
print(json.dumps({"codes": codes, "scipy": sorted(p for p in public if not p.startswith("_"))}))
"""


def test_scipy_footprint(tmp_path):
    # scipy.special costs about 3 MB of RSS per process, and scipy.integrate
    # left the import path for the same reason
    holes = [tuple(h) for h in SPARSE_CELL["holes"]]
    assert build_cell_graph(holes=holes, grid=GridSpec(SPARSE_CELL["base_resolution"])).fold_structure()[2] > DENSE_LIMIT
    cell = tmp_path / "cell.json"
    cell.write_text(json.dumps(SPARSE_CELL))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path / "out"), str(cell)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 2 not in report["codes"]
    assert report["scipy"] == ["linalg", "sparse", "version"]
