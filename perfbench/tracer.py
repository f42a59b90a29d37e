"""Per-layer trace: wraps the package's public functions at their module
globals, from outside the package.

A wrapper replaces the function in every ``gapforge`` module whose globals
hold it (``cli`` imports ``band_structure`` by name, ``bands`` calls
``theta_spectrum`` through its own global, and so on), so every call path is
seen.  Each wrapped call is a span: its inclusive time, and its self time
(inclusive minus the spans it caused).  A recursive call (``dumps_json``
calls itself) stays inside the outermost span.  Counters are taken at the
same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function): the layer of a function is its module, with ``_fmt``
# shown as ``fmt``
TRACED = (
    ("intervals", "validate_gap_spec"),
    ("intervals", "complement_on"),
    ("intervals", "hausdorff_distance"),
    ("intervals", "gap_match_report"),
    ("design", "design_geometry"),
    ("design", "solve_weight_system"),
    ("dispersion", "mu_roots"),
    ("dispersion", "limit_spectrum"),
    ("dispersion", "sample_curve"),
    ("cell", "radial_eigenvalues"),
    ("cell", "build_radial_cell"),
    ("cell", "trial_rayleigh"),
    ("cell", "reference_limits"),
    ("cell", "junction_flux"),
    ("bands", "build_cell_graph"),
    ("bands", "folded_matrices"),
    ("bands", "theta_spectrum"),
    ("bands", "band_structure"),
    ("cli", "run_pipeline"),
    ("cli", "load_config"),
    ("_fmt", "dumps_json"),
    ("_fmt", "csv_lines"),
)


# called too often to time without distorting their callers: counted only
COUNTED = (("dispersion", "f_eval"),)


# unit of each per-layer metric, in the order reported
LAYER_UNITS = {
    "intervals.s": "s",
    "design.design_geometry.calls": "count",
    "design.design_geometry.s": "s",
    "design.solve_weight_system.s": "s",
    "dispersion.mu_roots.calls": "count",
    "dispersion.mu_roots.s": "s",
    "dispersion.limit_spectrum.s": "s",
    "dispersion.sample_curve.s": "s",
    "dispersion.f_eval.calls": "count",
    "dispersion.f_evals_per_root": "evals/root",
    "cell.radial_eigenvalues.calls": "count",
    "cell.radial_eigenvalues.s": "s",
    "cell.eigs": "count",
    "cell.unknowns": "count",
    "cell.s_per_eig": "s/eig",
    "cell.build_radial_cell.s": "s",
    "cell.trial_rayleigh.s": "s",
    "cell.reference_limits.s": "s",
    "cell.junction_flux.s": "s",
    "bands.build_cell_graph.s": "s",
    "bands.graph_vertices": "count",
    "bands.folded_matrices.calls": "count",
    "bands.folded_matrices.s": "s",
    "bands.folded_dim": "count",
    "bands.folded_nnz": "count",
    "bands.theta_spectrum.calls": "count",
    "bands.theta_spectrum.s": "s",
    "bands.eigensolve.s": "s",
    "bands.dense_solves": "count",
    "bands.sparse_solves": "count",
    "bands.solves_per_character": "solves/char",
    "bands.band_structure.s": "s",
    "cli.run_pipeline.calls": "count",
    "cli.run_pipeline.s": "s",
    "cli.load_config.s": "s",
    "cli.self.s": "s",
    "fmt.dumps_json.s": "s",
    "fmt.csv_lines.s": "s",
    "cli.artifact_bytes": "B",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Spans and counters of one round; ``reset`` starts the next."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: Counter = Counter()  # open spans per name
        self._open_layers: Counter = Counter()

    def _wrap(self, layer: str, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._open[name] += 1
            self._open_layers[layer] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._open[name] -= 1
                self._open_layers[layer] -= 1
                self.calls[name] += 1
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[0]
                if not self._open_layers[layer]:
                    self.layer_time[layer] += dt
                if self._stack:
                    self._stack[-1][0] += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, None)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every traced function in every loaded gapforge module;
        ``uninstall`` puts the originals back."""
        modules = [m for n, m in sys.modules.items() if n == "gapforge" or n.startswith("gapforge.")]
        targets = [(m, f, False) for m, f in TRACED] + [(m, f, True) for m, f in COUNTED]
        for module, func, count_only in targets:
            original = getattr(sys.modules[f"gapforge.{module}"], func)
            name = span_name(module, func)
            if count_only:
                wrapper = self._count(name, original)
            else:
                wrapper = self._wrap(module.lstrip("_"), name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def in_span(self, name: str) -> bool:
        return bool(self._open[name])

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer numbers of the round, by metric name."""
        c, t, s = self.calls, self.inclusive, self.self_time
        k = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "intervals.s": self.layer_time["intervals"],
            "design.design_geometry.calls": c["design.design_geometry"],
            "design.design_geometry.s": t["design.design_geometry"],
            "design.solve_weight_system.s": t["design.solve_weight_system"],
            "dispersion.mu_roots.calls": c["dispersion.mu_roots"],
            "dispersion.mu_roots.s": t["dispersion.mu_roots"],
            "dispersion.limit_spectrum.s": t["dispersion.limit_spectrum"],
            "dispersion.sample_curve.s": t["dispersion.sample_curve"],
            "dispersion.f_eval.calls": c["dispersion.f_eval"],
            "dispersion.f_evals_per_root": ratio(k["f_evals_in_mu_roots"], k["mu_roots_returned"]),
            "cell.radial_eigenvalues.calls": c["cell.radial_eigenvalues"],
            "cell.radial_eigenvalues.s": t["cell.radial_eigenvalues"],
            "cell.eigs": k["eigs"],
            "cell.unknowns": k["unknowns"],
            "cell.s_per_eig": ratio(t["cell.radial_eigenvalues"], k["eigs"]),
            "cell.build_radial_cell.s": t["cell.build_radial_cell"],
            "cell.trial_rayleigh.s": t["cell.trial_rayleigh"],
            "cell.reference_limits.s": t["cell.reference_limits"],
            "cell.junction_flux.s": t["cell.junction_flux"],
            "bands.build_cell_graph.s": t["bands.build_cell_graph"],
            "bands.graph_vertices": k["graph_vertices"],
            "bands.folded_matrices.calls": c["bands.folded_matrices"],
            "bands.folded_matrices.s": t["bands.folded_matrices"],
            "bands.folded_dim": self.maxima["folded_dim"],
            "bands.folded_nnz": self.maxima["folded_nnz"],
            "bands.theta_spectrum.calls": c["bands.theta_spectrum"],
            "bands.theta_spectrum.s": t["bands.theta_spectrum"],
            "bands.eigensolve.s": s["bands.theta_spectrum"],
            "bands.dense_solves": k["dense_solves"],
            "bands.sparse_solves": k["sparse_solves"],
            "bands.solves_per_character": ratio(c["bands.theta_spectrum"], k["characters"]),
            "bands.band_structure.s": t["bands.band_structure"],
            "cli.run_pipeline.calls": c["cli.run_pipeline"],
            "cli.run_pipeline.s": t["cli.run_pipeline"],
            "cli.load_config.s": t["cli.load_config"],
            "cli.self.s": s["cli.run_pipeline"],
            "fmt.dumps_json.s": t["fmt.dumps_json"],
            "fmt.csv_lines.s": t["fmt.csv_lines"],
            "cli.artifact_bytes": k["artifact_bytes"],
        }


# counters read at the span boundaries, from arguments and results


def _on_f_eval(tr: Tracer, args, kwargs, result) -> None:
    if tr.in_span("dispersion.mu_roots"):
        tr.counts["f_evals_in_mu_roots"] += 1


def _on_mu_roots(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["mu_roots_returned"] += len(result)


def _on_radial_eigenvalues(tr: Tracer, args, kwargs, result) -> None:
    cell = args[0] if args else kwargs["cell"]
    sizes = cell.segment_sizes
    # path nodes (segments share the junction node) minus the Dirichlet node
    tr.counts["unknowns"] += sum(sizes) - (len(sizes) - 1) - 1
    tr.counts["eigs"] += len(result)


def _on_build_cell_graph(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["graph_vertices"] += result.nv


def _on_folded_matrices(tr: Tracer, args, kwargs, result) -> None:
    K = result[0]
    tr.maxima["folded_dim"] = max(tr.maxima["folded_dim"], K.shape[0])
    tr.maxima["folded_nnz"] = max(tr.maxima["folded_nnz"], K.nnz)


def _on_theta_spectrum(tr: Tracer, args, kwargs, result) -> None:
    from gapforge import bands

    graph = args[0] if args else kwargs["graph"]
    dim = graph.fold_structure()[2]
    tr.counts["dense_solves" if dim <= bands.DENSE_LIMIT else "sparse_solves"] += 1


def _on_band_structure(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["characters"] += len(result.theta_points)


def _on_run_pipeline(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["artifact_bytes"] += sum(os.path.getsize(p) for p in result.artifacts)


_OBSERVERS = {
    "dispersion.f_eval": _on_f_eval,
    "dispersion.mu_roots": _on_mu_roots,
    "cell.radial_eigenvalues": _on_radial_eigenvalues,
    "bands.build_cell_graph": _on_build_cell_graph,
    "bands.folded_matrices": _on_folded_matrices,
    "bands.theta_spectrum": _on_theta_spectrum,
    "bands.band_structure": _on_band_structure,
    "cli.run_pipeline": _on_run_pipeline,
}
