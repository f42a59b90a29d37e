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


def test_tracer_hooks_read_results(tmp_path):
    # the tracer's observers read attributes off arguments and results
    # (PeriodCellGraph.nv and .fold_structure(), RadialCell.segment_sizes,
    # BandStructure.theta_points, Report.artifacts): run them on one small
    # job of each solver
    jobs = [
        {"command": "bands", "holes": [[0.5, 0.5, 0.2, 0.3]], "base_resolution": 16, "theta_grid": 2,
         "num_bands": 4},
        {"command": "cell-eigs", "intervals": [[1, 2]], "n": 3, "eps": 0.1, "resolution": 128, "num_eigs": 3},
    ]
    original = cli.run_pipeline
    tr = tracer.Tracer()
    tr.install()
    try:
        for k, job in enumerate(jobs):
            report = cli.run_pipeline(cli.load_config(None, {**job, "out": str(tmp_path / str(k))}))
            assert report.exit_code == 0
    finally:
        tr.uninstall()
    assert tr.counts["graph_vertices"] > 0
    assert tr.counts["dense_solves"] + tr.counts["sparse_solves"] > 0
    assert tr.counts["unknowns"] > 0
    assert tr.counts["characters"] > 0
    assert tr.counts["artifact_bytes"] > 0
    assert cli.run_pipeline is original
