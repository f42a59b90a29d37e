"""Command-line pipeline: configuration ingestion, orchestration and the
layout of every artifact (each JSON payload, each CSV header and row).

Exit status: 0 all enabled checks pass, 1 checks ran and failed,
2 configuration or runtime error.  Outputs are JSON (reports) and CSV
(plot tables) with 17-significant-digit reals, so identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields
from typing import Any, Iterable, Sequence

from ._fmt import csv_lines, dumps_json
from .bands import BandStructure, GridSpec, band_structure, build_cell_graph, detect_gaps
from .cell import convergence_table, eps_scale, junction_flux, radial_row, reference_limits
from .design import BubbleGeometry, HomogenizedModel, design_geometry, solve_weight_system, weights_closed_form
from .dispersion import limit_spectrum, mu_roots, sample_curve
from .errors import ConfigError, GapForgeError
from .intervals import MatchReport, gap_match_report, validate_gap_spec

COMMANDS = ("design", "dispersion", "limit-spectrum", "cell-eigs", "convergence", "bands", "verify")
# most dispersion curve samples (about a 60 MB CSV), radial nodes, cell
# eigenvalues and bands; the grid sides, whose cost grows with the square,
# stop at its square root
MAX_COUNT = 1_000_000


@dataclass
class RunConfig:
    command: str
    intervals: list | None = None
    n: int = 3
    delta: float = 0.01
    L: float | None = None
    kappa: float = 0.5
    sigma: list | None = None
    rho: list | None = None
    range: list | None = None
    count: int = 257
    eps: float | None = None
    eps_list: list = field(default_factory=lambda: [0.2, 0.1, 0.05, 0.025])
    resolution: int = 384
    num_eigs: int = 2
    theta_grid: int = 16
    num_bands: int = 12
    channel: int = 0
    holes: list = field(default_factory=lambda: [[0.5, 0.5, 0.05, 0.3]])
    cell_size: float = 1.0
    base_resolution: int = 64
    with_convergence: bool = False
    with_bands: bool = False
    out: str = "."


# accepted values of each annotated field type; a bool is no number
_KINDS = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool, "list": (list, tuple)}


def load_config(path: str | None = None, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Merge a JSON config file with command-line overrides and validate;
    errors name the offending field."""
    cfg = _config_from(_merged_data(path, overrides))
    _validate_config(cfg)
    return cfg


def _merged_data(path: str | None, overrides: dict[str, Any] | None) -> dict[str, Any]:
    """The fields of the config file with the overrides applied, unchecked."""
    data: dict[str, Any] = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError("config", f"config file {path!r} does not exist")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"config file {path!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config", "config file must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return data


def _config_from(data: dict[str, Any]) -> RunConfig:
    """The merged fields as a config, unvalidated."""
    fields = {f.name for f in dc_fields(RunConfig)}
    for key in data:
        if key not in fields:
            raise ConfigError(key, f"unknown config field {key!r}")
    if "command" not in data:
        raise ConfigError("command", f"missing command; valid commands: {', '.join(COMMANDS)}")
    return RunConfig(**data)


def _of_kind(value: Any, kind: str) -> bool:
    """``value`` is accepted for a field annotated ``kind``; a plain float or
    int is judged without the slower numbers ABC check."""
    if type(value) is float or type(value) is int:
        return kind == "float" or (kind == "int" and type(value) is int)
    return isinstance(value, _KINDS[kind]) and (kind == "bool" or not isinstance(value, bool))


def _check_reals(name: str, values: Any, length: int | None = None) -> None:
    """``values`` is a list of finite reals (of the given length)."""
    if (
        not isinstance(values, (list, tuple))
        or not all(_of_kind(v, "float") and math.isfinite(v) for v in values)
        or (length is not None and len(values) != length)
    ):
        what = f"a list of {length} finite reals" if length is not None else "a list of finite reals"
        raise ConfigError(name, f"expected {what}, got {values!r}")


def _validate_config(cfg: RunConfig) -> None:
    """Check every field; the output directory is created first, so that
    an error in any other field can be written there."""
    if not isinstance(cfg.out, str):
        raise ConfigError("out", f"out={cfg.out!r} must be a path")
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create output directory {cfg.out!r}: {exc}")
    if cfg.command not in COMMANDS:
        raise ConfigError(
            "command", f"unknown command {cfg.command!r}; valid commands: {', '.join(COMMANDS)}"
        )
    for f in dc_fields(RunConfig):
        value = getattr(cfg, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if not _of_kind(value, kind):
            raise ConfigError(f.name, f"{f.name}={value!r} must be of type {kind}")
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f.name, f"{f.name}={value!r} must be finite")
    if cfg.intervals is not None:
        for k, pair in enumerate(cfg.intervals):
            _check_reals(f"intervals[{k}]", pair, 2)
            if not (pair[0] < pair[1]):
                raise ConfigError(f"intervals[{k}]", f"empty interval {pair!r}")
    for name in ("sigma", "rho", "eps_list"):
        if getattr(cfg, name) is not None:
            _check_reals(name, getattr(cfg, name))
    if cfg.range is not None:
        _check_reals("range", cfg.range, 2)
    for k, hole in enumerate(cfg.holes):
        _check_reals(f"holes[{k}]", hole, 4)
    if cfg.rho is not None and cfg.sigma is None:
        raise ConfigError("rho", "rho is read only with sigma; a designed model has its own rho")
    if cfg.rho is not None and len(cfg.sigma) != len(cfg.rho):
        raise ConfigError("rho", "sigma and rho must have the same length")
    side = math.isqrt(MAX_COUNT)
    for name, lo, hi in (("count", 2, MAX_COUNT), ("resolution", 64, MAX_COUNT), ("theta_grid", 2, side),
                         ("num_bands", 1, MAX_COUNT), ("num_eigs", 1, MAX_COUNT),
                         ("base_resolution", 2, side), ("channel", 0, math.inf)):
        value = getattr(cfg, name)
        if value < lo:
            raise ConfigError(name, f"{name}={value} must be >= {lo}")
        if value > hi:
            raise ConfigError(name, f"{name}={value} must be <= {hi}")
    for name in ("delta", "kappa", "L", "eps", "cell_size"):
        value = getattr(cfg, name)
        if value is not None and value <= 0:
            raise ConfigError(name, f"{name}={value} must be > 0")
    if not cfg.eps_list:
        raise ConfigError("eps_list", "eps_list must not be empty")
    if any(b >= a for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        raise ConfigError("eps_list", "eps_list must be strictly decreasing")


def _channel(cfg: RunConfig, m: int) -> int:
    """The configured channel, one of the m designed channels."""
    if cfg.channel >= m:
        raise ConfigError("channel", f"channel={cfg.channel} must be < {m}, the number of channels")
    return cfg.channel


def _spec_from_config(cfg: RunConfig):
    if cfg.intervals is None:
        raise ConfigError("intervals", f"command {cfg.command!r} needs target intervals")
    return validate_gap_spec(cfg.intervals, cfg.n, cfg.delta, cfg.L)


def _model_from_config(cfg: RunConfig) -> HomogenizedModel:
    if cfg.sigma is not None:
        rho = cfg.rho if cfg.rho is not None else [1.0] * len(cfg.sigma)
        return HomogenizedModel(cfg.n, tuple(float(s) for s in cfg.sigma), tuple(float(r) for r in rho))
    spec = _spec_from_config(cfg)
    _, model = design_geometry(spec, cfg.kappa)
    return model


def _model_json(model: HomogenizedModel, mu: tuple[float, ...]) -> dict:
    return {"n": model.n, "sigma": model.sigma, "rho": model.rho, "mu": mu}


def _geometry_json(geom: BubbleGeometry) -> dict:
    d, b = zip(*geom.channels)
    return {"n": geom.n, "d": d, "b": b, "kappa": geom.kappa}


def _match_json(match: MatchReport) -> dict:
    per_gap = [{"target": g.target, "computed": g.computed, "edge_error": g.edge_error} for g in match.per_gap]
    return {"pass": match.passed, "per_gap": per_gap, "extra_gaps": match.extra_gaps}


def _write(out: str, name: str, text: str) -> str:
    """Write ``text`` and a newline to ``out/name``, overwriting the file in
    place: opened without O_TRUNC and cut to length after the write, since
    truncating a non-empty file makes ext4 (auto_da_alloc) flush the new
    data at close()."""
    path = os.path.join(out, name)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text + "\n")
        fh.truncate()
    return path


def _write_csv(cfg: RunConfig, name: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    return _write(cfg.out, name, "\n".join(csv_lines(header, rows)))


@dataclass
class Report:
    checks: list[dict]
    artifacts: list[str]

    @property
    def exit_code(self) -> int:
        return 0 if all(c["pass"] for c in self.checks) else 1


def run_pipeline(cfg: RunConfig) -> Report:
    handler = {
        "design": _run_design,
        "dispersion": _run_dispersion,
        "limit-spectrum": _run_limit_spectrum,
        "cell-eigs": _run_cell_eigs,
        "convergence": _run_convergence,
        "bands": _run_bands,
        "verify": _run_verify,
    }[cfg.command]
    return handler(cfg)


def _run_design(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom, model = design_geometry(spec, cfg.kappa)
    mu = mu_roots(model)
    payload = {
        "targets": spec.targets.intervals,
        "n": spec.n,
        "geometry": _geometry_json(geom),
        "model": _model_json(model, mu),
        "mu": mu,
    }
    path = _write(cfg.out, "design.json", dumps_json(payload))
    return Report([{"name": "design", "pass": True}], [path])


def _run_dispersion(cfg: RunConfig) -> Report:
    model = _model_from_config(cfg)
    mu = mu_roots(model)
    rng = cfg.range or [0.0, 1.5 * mu[-1] if mu else 10.0]
    samples = sample_curve(model, (float(rng[0]), float(rng[1])), cfg.count)
    path = _write_csv(cfg, "dispersion.csv", ["lambda", "value", "pole_adjacent"], samples)
    return Report([{"name": "dispersion", "pass": True}], [path])


def _run_limit_spectrum(cfg: RunConfig) -> Report:
    model = _model_from_config(cfg)
    mu = mu_roots(model)
    L = cfg.L if cfg.L is not None else (10.0 * mu[-1] if mu else 10.0)
    bands_set, gaps = limit_spectrum(model, mu, L)
    payload = {
        "model": _model_json(model, mu),
        "L": L,
        "bands": bands_set.intervals,
        "gaps": gaps.intervals,
    }
    path = _write(cfg.out, "limit_spectrum.json", dumps_json(payload))
    return Report([{"name": "limit-spectrum", "pass": True}], [path])


def _run_cell_eigs(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, model = design_geometry(spec, cfg.kappa)
    j = _channel(cfg, spec.m)
    eps = cfg.eps if cfg.eps is not None else cfg.eps_list[-1]
    geom = eps_scale(geom_base, eps)
    row = radial_row(geom, j, cfg.resolution, cfg.num_eigs)
    payload = {
        "eps": eps,
        "channel": j,
        "sigma_target": model.sigma[j],
        "eigenvalues": row.eigenvalues,
        "lambda1_mesh_limit": row.lambda1,
        "mesh_gauge": row.mesh_gauge,
        "rayleigh_upper": row.rayleigh_upper,
        "flux_ratio": junction_flux(geom, j).ratio,
        "resolution": cfg.resolution,
    }
    path = _write(cfg.out, "cell_eigs.json", dumps_json(payload))
    return Report([{"name": "cell-eigs", "pass": row.bounded}], [path])


def _run_convergence(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, model = design_geometry(spec, cfg.kappa)
    j = _channel(cfg, spec.m)
    Lj = reference_limits(geom_base, j).Lj_lambda2
    rows = convergence_table(geom_base, j, cfg.eps_list, cfg.resolution)
    header = ["eps", "lambda1", "lambda2", "rayleigh_upper", "eps2_lambda2", "sigma_target",
              "Lj_lambda2", "resolution"]
    table = ([r.eps, r.lambda1, r.lambda2, r.rayleigh_upper, r.eps * r.eps * r.lambda2, model.sigma[j], Lj,
              cfg.resolution] for r in rows)
    path = _write_csv(cfg, "convergence.csv", header, table)
    return Report([{"name": "convergence", "pass": all(r.bounded for r in rows)}], [path])


def _band_structure(cfg: RunConfig) -> BandStructure:
    graph = build_cell_graph(
        holes=[tuple(hole) for hole in cfg.holes],
        cell_size=cfg.cell_size,
        grid=GridSpec(cfg.base_resolution),
    )
    return band_structure(graph, cfg.theta_grid, cfg.num_bands)


def _run_bands(cfg: RunConfig) -> Report:
    bs = _band_structure(cfg)
    L = cfg.L if cfg.L is not None else bs.bands[-1][1]
    gaps = detect_gaps(bs, L)
    header = ["theta_index", *(f"theta_{d + 1}" for d in range(len(bs.theta_points[0]))), "k", "lambda"]
    rows = []
    for ti, (point, lams) in enumerate(zip(bs.theta_points, bs.eigen_table.tolist())):
        args = [math.atan2(c.imag, c.real) for c in point]
        rows.extend([ti, *args, kk, lam] for kk, lam in enumerate(lams, start=1))
    csv_path = _write_csv(cfg, "bands.csv", header, rows)
    payload = {
        "bands": bs.bands,
        "gaps": gaps.intervals,
        "L": L,
        "theta_grid": cfg.theta_grid,
    }
    json_path = _write(cfg.out, "bands.json", dumps_json(payload))
    return Report([{"name": "bands", "pass": True}], [csv_path, json_path])


def _run_verify(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, model = design_geometry(spec, cfg.kappa)
    mu = mu_roots(model)
    L = spec.horizon
    bands_set, gaps = limit_spectrum(model, mu, L)
    match = gap_match_report(gaps, spec)

    sigma_err = max(
        abs(s - a) / a for s, a in zip(model.sigma, spec.alphas)
    )
    mu_err = max(abs(m - b) / b for m, b in zip(mu, spec.betas))
    w_closed = weights_closed_form(spec)
    w_solved = solve_weight_system(spec)
    w_err = max(abs(x - y) / abs(x) for x, y in zip(w_closed, w_solved))

    checks = [
        {
            "name": "design_round_trip",
            "pass": sigma_err <= 1e-12 and mu_err <= 1e-9,
            "detail": {"sigma_rel_err": sigma_err, "mu_rel_err": mu_err},
        },
        {
            "name": "weight_system",
            "pass": w_err <= 1e-9,
            "detail": {"rel_err": w_err},
        },
        {
            "name": "gap_match",
            "pass": match.passed,
            "detail": _match_json(match),
        },
    ]

    if cfg.with_convergence:
        j = _channel(cfg, spec.m)
        sigma = model.sigma[j]
        rows = convergence_table(geom_base, j, cfg.eps_list, cfg.resolution)
        errs = [abs(r.lambda1 - sigma) / sigma for r in rows]
        monotone = all(b < a for a, b in zip(errs[:-1], errs[1:]))
        bounded = all(r.bounded for r in rows)
        checks.append(
            {
                "name": "cell_convergence",
                "pass": monotone and bounded and errs[-1] < 0.05,
                "detail": {"rel_errs": errs, "monotone": monotone, "min_max_bound": bounded},
            }
        )
    if cfg.with_bands:
        bs = _band_structure(cfg)
        gaps_bands = detect_gaps(bs, bs.bands[-1][1])
        checks.append(
            {
                "name": "bands_gap_detected",
                "pass": len(gaps_bands) >= 1,
                "detail": {"gaps": gaps_bands.intervals},
            }
        )

    all_pass = all(c["pass"] for c in checks)
    payload = {
        "status": "pass" if all_pass else "fail",
        "targets": spec.targets.intervals,
        "n": spec.n,
        "delta": spec.delta,
        "L": L,
        "geometry": _geometry_json(geom_base),
        "model": _model_json(model, mu),
        "bands": bands_set.intervals,
        "gaps": gaps.intervals,
        "checks": checks,
    }
    path = _write(cfg.out, "verify.json", dumps_json(payload))
    return Report(checks, [path])


def _parse_intervals(text: str) -> list[list[float]]:
    out = []
    for k, chunk in enumerate(text.split(";")):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"intervals[{k}]", f"expected 'lo,hi', got {chunk!r}")
        try:
            out.append([float(parts[0]), float(parts[1])])
        except ValueError:
            raise ConfigError(f"intervals[{k}]", f"non-numeric endpoints in {chunk!r}")
    return out


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(name, f"expected comma-separated reals, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Design periodic geometries with preassigned spectral gaps and verify them numerically.",
    )
    sub = parser.add_subparsers(dest="command")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--intervals", help="targets as 'a1,b1;a2,b2'")
        p.add_argument("--dim", type=int, dest="n", help="ambient dimension n >= 2")
        p.add_argument("--delta", type=float, help="edge tolerance")
        p.add_argument("--L", type=float, help="inspection horizon")
        p.add_argument("--kappa", type=float, help="separation constant")
        p.add_argument("--sigma", help="comma-separated resonances (dispersion commands)")
        p.add_argument("--rho", help="comma-separated weights (with --sigma)")
        p.add_argument("--range", help="sampling range 'lo,hi'")
        p.add_argument("--count", type=int, help="number of curve samples")
        p.add_argument("--eps", type=float, help="single scale parameter")
        p.add_argument("--eps-list", dest="eps_list", help="decreasing eps ladder 'e1,e2,...'")
        p.add_argument("--resolution", type=int, help="radial nodes per segment")
        p.add_argument("--num-eigs", dest="num_eigs", type=int, help="cell eigenvalue count")
        p.add_argument("--theta-grid", dest="theta_grid", type=int, help="characters per direction")
        p.add_argument("--num-bands", dest="num_bands", type=int, help="bands to compute")
        p.add_argument("--channel", type=int, help="channel index")
        p.add_argument("--base-resolution", dest="base_resolution", type=int, help="square grid cells per side")
        p.add_argument("--with-convergence", dest="with_convergence", action="store_const", const=True)
        p.add_argument("--with-bands", dest="with_bands", action="store_const", const=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        print(f"error: missing command; valid commands: {', '.join(COMMANDS)}", file=sys.stderr)
        return 2
    overrides: dict[str, Any] = {k: v for k, v in vars(args).items() if k != "config"}
    # the error file goes into the merged output directory, or into --out
    # when the config file cannot be read
    out = args.out if args.out is not None else RunConfig.out
    try:
        if args.intervals is not None:
            overrides["intervals"] = _parse_intervals(args.intervals)
        for key in ("sigma", "rho", "range", "eps_list"):
            if overrides[key] is not None:
                overrides[key] = _parse_float_list(overrides[key], key)
        data = _merged_data(args.config, overrides)
        out = data.get("out", out)
        cfg = _config_from(data)
        _validate_config(cfg)
        report = run_pipeline(cfg)
    except GapForgeError as exc:
        if isinstance(out, str):
            with contextlib.suppress(OSError):
                os.makedirs(out, exist_ok=True)
            if os.path.isdir(out):
                _write(out, f"{args.command.replace('-', '_')}_error.json",
                       dumps_json({"status": "error", "error": str(exc)}))
        field = f"{exc.field}: " if isinstance(exc, ConfigError) else ""
        print(f"error: {field}{exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        print(f"{check['name']}: {'pass' if check['pass'] else 'FAIL'}")
    for path in report.artifacts:
        print(f"wrote {path}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
