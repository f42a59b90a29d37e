"""Command-line pipeline: configuration ingestion, orchestration and
plot-data emission.

Exit status: 0 all enabled checks pass, 1 checks ran and failed,
2 configuration or runtime error.  Outputs are JSON (reports) and CSV
(plot tables) with 17-significant-digit reals, so identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields
from typing import Any, Sequence

from ._fmt import dumps_json
from .bands import BandStructure, GridSpec, band_structure, build_cell_graph, detect_gaps
from .cell import (
    build_radial_cell,
    convergence_rows_csv,
    convergence_table,
    eps_scale,
    junction_flux,
    radial_eigenvalues,
    richardson_lambda1,
    trial_rayleigh,
)
from .design import HomogenizedModel, design_geometry, solve_weight_system, weights_closed_form
from .dispersion import limit_spectrum, mu_roots, sample_curve
from .errors import ConfigError, GapForgeError
from .intervals import gap_match_report, validate_gap_spec

COMMANDS = ("design", "dispersion", "limit-spectrum", "cell-eigs", "convergence", "bands", "verify")
# allowance of the min-max check lambda1 (mesh limit) <= Rayleigh bound
MIN_MAX_SLACK = 1e-10


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
    cfg = _merged_config(path, overrides)
    _validate_config(cfg)
    return cfg


def _merged_config(path: str | None, overrides: dict[str, Any] | None) -> RunConfig:
    """The config file with the overrides applied, unvalidated."""
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
    fields = {f.name for f in dc_fields(RunConfig)}
    for key in data:
        if key not in fields:
            raise ConfigError(key, f"unknown config field {key!r}")
    if "command" not in data:
        raise ConfigError("command", f"missing command; valid commands: {', '.join(COMMANDS)}")
    return RunConfig(**data)


def _check_reals(name: str, values: Any, length: int | None = None) -> None:
    """``values`` is a list of reals (of the given length)."""
    if (
        not isinstance(values, (list, tuple))
        or not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)
        or (length is not None and len(values) != length)
    ):
        what = f"a list of {length} reals" if length is not None else "a list of reals"
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
        if not isinstance(value, _KINDS[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f.name, f"{f.name}={value!r} must be of type {kind}")
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
    if cfg.sigma is not None and cfg.rho is not None and len(cfg.sigma) != len(cfg.rho):
        raise ConfigError("rho", "sigma and rho must have the same length")
    for name, lo in (("count", 2), ("resolution", 64), ("theta_grid", 2), ("num_bands", 1),
                     ("num_eigs", 1), ("base_resolution", 2), ("channel", 0)):
        if getattr(cfg, name) < lo:
            raise ConfigError(name, f"{name}={getattr(cfg, name)} must be >= {lo}")
    for name in ("delta", "kappa", "L", "eps", "cell_size"):
        value = getattr(cfg, name)
        if value is not None and value <= 0:
            raise ConfigError(name, f"{name}={value} must be > 0")
    if not cfg.eps_list:
        raise ConfigError("eps_list", "eps_list must not be empty")
    if list(cfg.eps_list) != sorted(cfg.eps_list, reverse=True):
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


def _write(cfg: RunConfig, name: str, text: str) -> str:
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return path


@dataclass
class Report:
    status: str
    checks: list[dict]
    artifacts: list[str]

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "pass" else 1


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
        "targets": spec.targets.to_json(),
        "n": spec.n,
        "geometry": geom.to_json(),
        "model": model.to_json(),
        "mu": list(mu),
    }
    path = _write(cfg, "design.json", dumps_json(payload))
    return Report("pass", [{"name": "design", "pass": True}], [path])


def _run_dispersion(cfg: RunConfig) -> Report:
    model = _model_from_config(cfg)
    mu = mu_roots(model)
    rng = cfg.range or [0.0, 1.5 * mu[-1] if mu else 10.0]
    curve = sample_curve(model, (float(rng[0]), float(rng[1])), cfg.count)
    path = _write(cfg, "dispersion.csv", "\n".join(curve.to_csv_lines()))
    return Report("pass", [{"name": "dispersion", "pass": True}], [path])


def _run_limit_spectrum(cfg: RunConfig) -> Report:
    model = _model_from_config(cfg)
    mu = mu_roots(model)
    L = cfg.L if cfg.L is not None else (10.0 * mu[-1] if mu else 10.0)
    bands_set, gaps = limit_spectrum(model, L)
    payload = {
        "model": model.to_json(),
        "L": L,
        "bands": bands_set.to_json(),
        "gaps": gaps.to_json(),
    }
    path = _write(cfg, "limit_spectrum.json", dumps_json(payload))
    return Report("pass", [{"name": "limit-spectrum", "pass": True}], [path])


def _run_cell_eigs(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, model = design_geometry(spec, cfg.kappa)
    j = _channel(cfg, spec.m)
    eps = cfg.eps if cfg.eps is not None else cfg.eps_list[-1]
    geom = eps_scale(geom_base, eps)
    lam = radial_eigenvalues(build_radial_cell(geom, j, cfg.resolution), cfg.num_eigs)
    lam_fine = radial_eigenvalues(build_radial_cell(geom, j, 2 * cfg.resolution), 1)
    lam1_limit, gauge = richardson_lambda1(lam[0], lam_fine[0])
    bound = trial_rayleigh(geom, j)
    flux = junction_flux(geom, j)
    payload = {
        "eps": eps,
        "channel": j,
        "sigma_target": model.sigma[j],
        "eigenvalues": [float(v) for v in lam],
        "lambda1_mesh_limit": lam1_limit,
        "mesh_gauge": gauge,
        "rayleigh_upper": bound.quotient,
        "flux_ratio": flux.ratio,
        "resolution": cfg.resolution,
    }
    path = _write(cfg, "cell_eigs.json", dumps_json(payload))
    bounded = lam1_limit <= bound.quotient + MIN_MAX_SLACK
    return Report("pass" if bounded else "fail", [{"name": "cell-eigs", "pass": bounded}], [path])


def _run_convergence(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, _ = design_geometry(spec, cfg.kappa)
    rows = convergence_table(geom_base, _channel(cfg, spec.m), cfg.eps_list, cfg.resolution)
    path = _write(cfg, "convergence.csv", "\n".join(convergence_rows_csv(rows)))
    return Report("pass", [{"name": "convergence", "pass": True}], [path])


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
    csv_path = _write(cfg, "bands.csv", "\n".join(bs.to_csv_lines()))
    payload = {
        "bands": [list(b) for b in bs.bands],
        "gaps": gaps.to_json(),
        "L": L,
        "theta_grid": cfg.theta_grid,
    }
    json_path = _write(cfg, "bands.json", dumps_json(payload))
    return Report("pass", [{"name": "bands", "pass": True}], [csv_path, json_path])


def _run_verify(cfg: RunConfig) -> Report:
    spec = _spec_from_config(cfg)
    geom_base, model = design_geometry(spec, cfg.kappa)
    mu = mu_roots(model)
    L = spec.horizon
    bands_set, gaps = limit_spectrum(model, L)
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
            "detail": match.to_json(),
        },
    ]

    if cfg.with_convergence:
        rows = convergence_table(geom_base, _channel(cfg, spec.m), cfg.eps_list, cfg.resolution)
        sigma_t = rows[0].sigma_target
        errs = [abs(r.lambda1 - sigma_t) / sigma_t for r in rows]
        monotone = all(b < a for a, b in zip(errs[:-1], errs[1:]))
        bounded = all(r.lambda1 <= r.rayleigh_upper + MIN_MAX_SLACK for r in rows)
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
                "detail": {"gaps": gaps_bands.to_json()},
            }
        )

    all_pass = all(c["pass"] for c in checks)
    payload = {
        "status": "pass" if all_pass else "fail",
        "targets": spec.targets.to_json(),
        "n": spec.n,
        "delta": spec.delta,
        "L": L,
        "geometry": geom_base.to_json(),
        "model": model.to_json(),
        "bands": bands_set.to_json(),
        "gaps": gaps.to_json(),
        "checks": checks,
    }
    path = _write(cfg, "verify.json", dumps_json(payload))
    return Report("pass" if all_pass else "fail", checks, [path])


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
        p.add_argument("--rho", help="comma-separated weights")
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
    try:
        if args.intervals is not None:
            overrides["intervals"] = _parse_intervals(args.intervals)
        for key in ("sigma", "rho", "range", "eps_list"):
            if overrides[key] is not None:
                overrides[key] = _parse_float_list(overrides[key], key)
        cfg = _merged_config(args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    try:
        _validate_config(cfg)
        report = run_pipeline(cfg)
    except GapForgeError as exc:
        if isinstance(cfg.out, str) and os.path.isdir(cfg.out):
            _write(cfg, f"{cfg.command.replace('-', '_')}_error.json",
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
