"""Dispersion function lambda*F(lambda) of the homogenized operator, its
roots (gap edges mu_j), level sets and the exact band/gap structure.

F(lambda) = 1 + sum_j sigma_j rho_j / (sigma_j - lambda) is strictly
increasing on every pole-free branch, which is why bracketed bisection is
the primary root path; the polynomial route is kept as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fmt import csv_lines
from .errors import GapForgeError, PoleError
from .design import HomogenizedModel
from .intervals import IntervalSet, complement_on

POLE_RTOL = 1e-14
# samples closer than this to a pole are flagged, not evaluated
POLE_FLAG_ATOL = 1e-6
# bisect essentially to adjacent floats; the extra iterations are cheap and
# keep dispersion residuals at the F'-conditioned floor
ROOT_RTOL = 4e-16


def _check_pole(model: HomogenizedModel, lam: float) -> None:
    for s in model.sigma:
        if abs(lam - s) < POLE_RTOL * s:
            raise PoleError(f"lambda={lam!r} is at the pole sigma={s!r}")


def f_eval(model: HomogenizedModel, lam: float) -> float:
    """F(lambda) = 1 + sum_j sigma_j rho_j / (sigma_j - lambda)."""
    _check_pole(model, lam)
    total = 1.0
    for s, r in zip(model.sigma, model.rho):
        total += s * r / (s - lam)
    return total


def dispersion_eval(model: HomogenizedModel, lam: float) -> float:
    """lambda * F(lambda)."""
    return lam * f_eval(model, lam)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection on a bracket with f(lo) <= 0 <= f(hi); converges to
    ROOT_RTOL relative (or until the bracket collapses to adjacent floats)."""
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise AssertionError(f"lost bracket: f({lo})={flo}, f({hi})={fhi}")
    while hi - lo > ROOT_RTOL * (abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _shrink_into(f: Callable[[float], float], pole: float, other: float, want_negative: bool) -> float:
    """Move from ``pole`` toward ``other`` until f has the requested sign
    (F diverges at the poles, so a small enough offset always works)."""
    step = 0.5 * (other - pole)
    for _ in range(200):
        x = pole + step
        fx = f(x)
        if (fx < 0.0) if want_negative else (fx > 0.0):
            return x
        step *= 0.5
    raise AssertionError(f"no sign change detected next to pole {pole}")


def mu_roots(model: HomogenizedModel) -> tuple[float, ...]:
    """Roots mu_1 < ... < mu_m of F, one per interval (sigma_j, sigma_{j+1})
    plus one in (sigma_m, inf): the nonzero solutions of lambda F = 0.
    Cached into ``model.mu``."""
    if model.mu is not None:
        return model.mu
    roots = level_set_roots(model, 0.0)[1:]
    for j, mu in enumerate(roots):
        left = model.sigma[j]
        right = model.sigma[j + 1] if j + 1 < model.m else math.inf
        assert left < mu < right, f"interlacing violated at root {j}"
    model.mu = roots
    return roots


def level_set_roots(model: HomogenizedModel, a: float) -> tuple[float, ...]:
    """All real solutions of lambda F(lambda) = a for a >= 0: exactly m+1,
    one per monotone branch, all nonnegative."""
    if a < 0.0:
        raise GapForgeError(f"level a={a} must be >= 0")
    g = lambda lam: dispersion_eval(model, lam) - a
    sig = model.sigma
    m = model.m
    roots: list[float] = []
    # branch [0, sigma_1): g(0) = -a <= 0
    if a == 0.0:
        roots.append(0.0)
    elif m == 0:
        roots.append(a)  # F == 1
    else:
        hi = _shrink_into(g, sig[0], 0.0, want_negative=False)
        roots.append(_bisect(g, 0.0, hi))
    for j in range(m - 1):
        lo = _shrink_into(g, sig[j], sig[j + 1], want_negative=True)
        hi = _shrink_into(g, sig[j + 1], sig[j], want_negative=False)
        roots.append(_bisect(g, lo, hi))
    if m > 0:
        srho = sum(model.rho)
        ssig = sum(s * r for s, r in zip(model.sigma, model.rho))
        hi = sig[-1] * (1.0 + srho) + ssig + a
        while g(hi) <= 0.0:
            hi *= 2.0
        lo = _shrink_into(g, sig[-1], hi, want_negative=True)
        roots.append(_bisect(g, lo, hi))
    return tuple(roots)


def limit_spectrum(model: HomogenizedModel, L: float) -> tuple[IntervalSet, IntervalSet]:
    """Bands and gaps of the limit operator on [0, L]:
    gaps = (sigma_j, mu_j), bands = [0, sigma_1] u [mu_1, sigma_2] u ... u [mu_m, L]."""
    mu = mu_roots(model)
    top = max((*model.sigma, *mu), default=0.0)
    if not (L > top):
        raise GapForgeError(f"L={L} must exceed max(sigma_m, mu_m)={top}")
    gaps = IntervalSet(tuple(zip(model.sigma, mu)))
    bands = complement_on(gaps, L)
    return bands, gaps


@dataclass(frozen=True)
class DispersionCurve:
    """Plot-ready samples of lambda -> lambda F(lambda); samples within
    POLE_FLAG_ATOL of a pole are flagged and carry value NaN."""

    samples: tuple[tuple[float, float, bool], ...]

    def to_csv_lines(self) -> list[str]:
        return csv_lines(
            ["lambda", "value", "pole_adjacent"],
            [(lam, val, flag) for lam, val, flag in self.samples],
        )


def sample_curve(model: HomogenizedModel, rng: tuple[float, float], count: int) -> DispersionCurve:
    """Uniform grid over ``rng`` with pole-adjacent points flagged."""
    if count < 2:
        raise GapForgeError(f"count={count} must be >= 2")
    lo, hi = float(rng[0]), float(rng[1])
    if not (hi > lo):
        raise GapForgeError(f"bad range {rng}")
    grid = np.linspace(lo, hi, count)
    samples = []
    for lam in grid:
        lam = float(lam)
        near_pole = any(abs(lam - s) < POLE_FLAG_ATOL for s in model.sigma)
        value = math.nan if near_pole else dispersion_eval(model, lam)
        samples.append((lam, value, near_pole))
    return DispersionCurve(tuple(samples))
