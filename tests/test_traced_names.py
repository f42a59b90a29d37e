"""The benchmark's tracer wraps package functions by name, and its other
scripts import and call package names: every such name must resolve, so a
rename fails here and not first in a benchmark run."""

import ast
import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from gapforge import bands, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module, func", tracer.TRACED + tracer.COUNTED,
                         ids=[f"{m}.{f}" for m, f in tracer.TRACED + tracer.COUNTED])
def test_traced_name_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"gapforge.{module}"), func, None))


def test_dense_limit_resolves():
    # the tracer's solve counter reads it
    assert isinstance(bands.DENSE_LIMIT, int)


def perfbench_names():
    """(module, name) for every ``from gapforge.<module> import name`` in the
    benchmark scripts, and every ``<module>.name`` read off a module bound by
    ``from gapforge import <module>``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gapforge":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gapforge."):
                found.update((node.module.removeprefix("gapforge."), alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add((node.value.id, node.attr))
    return sorted(found)


PERFBENCH_NAMES = perfbench_names()


def test_perfbench_names_found():
    assert {("bands", "GridSpec"), ("bands", "build_cell_graph"), ("bands", "folded_matrices"),
            ("cli", "load_config"), ("cli", "run_pipeline")} <= set(PERFBENCH_NAMES)


@pytest.mark.parametrize("module, name", PERFBENCH_NAMES, ids=[f"{m}.{n}" for m, n in PERFBENCH_NAMES])
def test_perfbench_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"gapforge.{module}"), name)


def test_worker_reads_report(tmp_path):
    # the worker's path after argument parsing, and what it reads off the
    # report; the tracer reads the artifacts too
    cfg = cli.load_config(None, {"command": "design", "intervals": [[1, 2]], "n": 3, "out": str(tmp_path)})
    report = cli.run_pipeline(cfg)
    assert report.exit_code == 0
    assert [os.path.basename(p) for p in report.artifacts] == ["design.json"]
    assert all(os.path.getsize(p) > 0 for p in report.artifacts)
