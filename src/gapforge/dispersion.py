"""Dispersion function lambda*F(lambda) of the homogenized operator, its
roots (gap edges mu_j), level sets and the exact band/gap structure.

F(lambda) = 1 + sum_j sigma_j rho_j / (sigma_j - lambda) is strictly
increasing on every pole-free branch, so each level set lambda F = a has
one root per branch, found by bracketed bisection.  The bisection is
predicted and certified: one eigensolve of a symmetric arrowhead matrix
predicts all m+1 roots, two evaluations of lambda F - a certify that each
root lies within PREDICT_WINDOW of its prediction, and the bisection then
evaluates F only inside that window, where it returns the float the plain
bisection returns.  An uncertified branch runs the plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fmt import csv_lines
from .errors import GapForgeError, PoleError, ScaleError
from .design import HomogenizedModel
from .intervals import IntervalSet, complement_on

POLE_RTOL = 1e-14
# samples closer than this to a pole are flagged, not evaluated
POLE_FLAG_ATOL = 1e-6
# bisect essentially to adjacent floats; the extra iterations are cheap and
# keep dispersion residuals at the F'-conditioned floor
ROOT_RTOL = 4e-16
# relative half-width of the window around a predicted root that is certified
# to hold the root; outside it the sign of lambda F - a is known from
# monotonicity.  About 45 ulps: 1e-12 certifies a few more roots but costs
# about 1.6 times the F-evaluations per root
PREDICT_WINDOW = 1e-14
# a certified window keeps this relative distance from the poles of its
# branch: the bisection walk evaluates points down to half the root's distance
# from a pole, and those must clear the pole check as they do in the plain walk
POLE_MARGIN = 4.0 * POLE_RTOL


def _pole_error(lam: float, s: float) -> PoleError:
    return PoleError(f"lambda={lam!r} is at the pole sigma={s!r}")


def f_eval(model: HomogenizedModel, lam: float) -> float:
    """F(lambda) = 1 + sum_j sigma_j rho_j / (sigma_j - lambda); PoleError
    within POLE_RTOL (relative) of a pole."""
    total = 1.0
    for s, r in zip(model.sigma, model.rho):
        if abs(lam - s) < POLE_RTOL * s:
            raise _pole_error(lam, s)
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
        raise GapForgeError(f"lost bracket: f({lo})={flo}, f({hi})={fhi}")
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
    raise GapForgeError(f"no sign change detected next to pole {pole} toward {other}")


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
        if not left < mu < right:
            raise GapForgeError(f"interlacing violated at root {j}: {mu!r} not in ({left!r}, {right!r})")
    model.mu = roots
    return roots


def _predicted_roots(model: HomogenizedModel, head: float) -> np.ndarray:
    """The m+1 solutions of lambda F(lambda) = a, ascending, as the
    eigenvalues of the symmetric arrowhead matrix [[head, z^T], [z, diag(sigma)]],
    head = a + sum_j sigma_j rho_j, z_j = sigma_j sqrt(rho_j) (Golub, SIAM
    Rev. 15 (1973)); NaN where the eigensolver fails."""
    sig = np.asarray(model.sigma)
    z = sig * np.sqrt(np.asarray(model.rho))
    arrow = np.diag(np.concatenate(([head], sig)))
    arrow[0, 1:] = z
    arrow[1:, 0] = z
    try:
        return np.linalg.eigvalsh(arrow)
    except np.linalg.LinAlgError:
        return np.full(model.m + 1, math.nan)


def _branch_sign(g: Callable[[float], float], p: float, left: float, right: float) -> Callable[[float], float]:
    """The sign function of one branch for the bisection walk.

    When left < p(1 - w) < p(1 + w) < right and g(p(1 - w)) < 0 < g(p(1 + w)),
    w = PREDICT_WINDOW, the root of the increasing g lies in that window:
    the function returns -1 left of it and +1 right of it without
    evaluating g, and g inside it.  Otherwise it is g itself."""
    lo, hi = p * (1.0 - PREDICT_WINDOW), p * (1.0 + PREDICT_WINDOW)
    if not (left < lo and hi < right and g(lo) < 0.0 < g(hi)):
        return g
    return lambda x: -1.0 if x < lo else (1.0 if x > hi else g(x))


def level_set_roots(model: HomogenizedModel, a: float) -> tuple[float, ...]:
    """All real solutions of lambda F(lambda) = a for a >= 0: exactly m+1,
    one per monotone branch, all nonnegative."""
    if a < 0.0:
        raise GapForgeError(f"level a={a} must be >= 0")
    g = lambda lam: dispersion_eval(model, lam) - a
    sig = model.sigma
    m = model.m
    ssig = sum(s * r for s, r in zip(model.sigma, model.rho))
    p = _predicted_roots(model, a + ssig).tolist()
    roots: list[float] = []
    # branch [0, sigma_1): g(0) = -a <= 0
    if a == 0.0:
        roots.append(0.0)
    elif m == 0:
        roots.append(a)  # F == 1
    else:
        f = _branch_sign(g, p[0], 0.0, sig[0] * (1.0 - POLE_MARGIN))
        hi = _shrink_into(f, sig[0], 0.0, want_negative=False)
        roots.append(_bisect(f, 0.0, hi))
    for j in range(m - 1):
        f = _branch_sign(g, p[j + 1], sig[j] * (1.0 + POLE_MARGIN), sig[j + 1] * (1.0 - POLE_MARGIN))
        lo = _shrink_into(f, sig[j], sig[j + 1], want_negative=True)
        hi = _shrink_into(f, sig[j + 1], sig[j], want_negative=False)
        roots.append(_bisect(f, lo, hi))
    if m > 0:
        f = _branch_sign(g, p[m], sig[-1] * (1.0 + POLE_MARGIN), math.inf)
        srho = sum(model.rho)
        hi = sig[-1] * (1.0 + srho) + ssig + a
        while f(hi) <= 0.0 and math.isfinite(hi):
            hi *= 2.0
        if not math.isfinite(hi):
            raise ScaleError(f"the bracket of the last root overflows (sigma_m={sig[-1]!r}); rescale the model")
        lo = _shrink_into(f, sig[-1], hi, want_negative=True)
        roots.append(_bisect(f, lo, hi))
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
    """Uniform grid over ``rng`` with pole-adjacent points flagged.  The
    values are those of ``dispersion_eval`` bit for bit: the terms of F are
    added in the same order, only over the whole grid at once."""
    if count < 2:
        raise GapForgeError(f"count={count} must be >= 2")
    lo, hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise GapForgeError(f"bad range {rng}")
    grid = np.linspace(lo, hi, count)
    sig = np.asarray(model.sigma)
    dist = np.abs(grid[:, None] - sig)
    near_pole = (dist < POLE_FLAG_ATOL).any(axis=1)
    hits = (dist < POLE_RTOL * sig) & ~near_pole[:, None]
    if hits.any():
        # the first sample, and its first pole, that f_eval rejects
        i, j = np.argwhere(hits)[0]
        raise _pole_error(float(grid[i]), model.sigma[j])
    lam = grid[~near_pole]
    total = np.ones_like(lam)
    # a quotient or product past the float range is inf (or nan), as in the
    # scalar sum, and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for s, r in zip(model.sigma, model.rho):
            total += s * r / (s - lam)
        values = np.full(count, math.nan)
        values[~near_pole] = lam * total
    return DispersionCurve(tuple(zip(grid.tolist(), values.tolist(), near_pole.tolist())))
