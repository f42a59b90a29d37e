"""Dispersion function lambda*F(lambda) of the homogenized operator, its
roots (gap edges mu_j), level sets and the exact band/gap structure.

F(lambda) = 1 + sum_j sigma_j rho_j / (sigma_j - lambda) is strictly
increasing on every pole-free branch, so each level set lambda F = a has
one root per branch.  One eigensolve of a symmetric arrowhead matrix
predicts all m+1 roots; each root is bracketed from its prediction, the
bracket p(1 -+ PREDICT_WINDOW) widened by WIDEN until lambda F - a changes
sign across it, and bisected to ROOT_RTOL: 7.1 F-evaluations per root on
the 14,880 roots of the test corpus, each within 6 ulp of the pole-to-pole
bisection this replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fmt import csv_lines
from .errors import GapForgeError, PoleError, ScaleError
from .design import HomogenizedModel
from .intervals import IntervalSet

POLE_RTOL = 1e-14
# samples closer than this to a pole are flagged, not evaluated
POLE_FLAG_ATOL = 1e-6
# bisect essentially to adjacent floats; the extra iterations are cheap and
# keep dispersion residuals at the F'-conditioned floor
ROOT_RTOL = 4e-16
# relative half-width of the first bracket around a predicted root, about 45
# ulps; 1e-12 costs 14.0 F-evaluations per root on the test corpus, not 7.1
PREDICT_WINDOW = 1e-14
# factor by which a bracket side that lacks its sign widens
WIDEN = 16.0
# relative distance of the branch ends from the poles, clear of f_eval's check
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


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection of a bracket 0 <= lo < hi with g(lo) < 0 <= g(hi), both
    already evaluated, to ROOT_RTOL relative or adjacent floats.  The midpoint
    0.5*lo + 0.5*hi is the float 0.5*(lo + hi), and cannot overflow."""
    mid = 0.5 * lo + 0.5 * hi
    while hi - lo > 2.0 * ROOT_RTOL * mid and lo < mid < hi:
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return mid


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


def _branch_root(g: Callable[[float], float], p: float, left: float, right: float) -> float:
    """The root of g, increasing on the branch [left, right], bracketed from
    the prediction p (the branch midpoint, or 2 left on the last branch, when
    p is not inside the branch): the side of p(1 -+ PREDICT_WINDOW) that
    lacks its sign becomes the other end and widens by WIDEN, clamped at the
    branch ends."""
    if not left < p < right:
        p = 0.5 * left + 0.5 * right if right < math.inf else 2.0 * left
    w = PREDICT_WINDOW
    lo, hi = max(left, p * (1.0 - w)), min(right, p * (1.0 + w))
    if g(lo) >= 0.0:
        while True:
            if lo == left:
                raise GapForgeError(f"no sign change on the branch ({left!r}, {right!r})")
            hi, w = lo, WIDEN * w
            lo = max(left, p * (1.0 - w))
            if g(lo) < 0.0:
                break
    else:
        while g(hi) < 0.0:
            if hi == right:
                raise GapForgeError(f"no sign change on the branch ({left!r}, {right!r})")
            lo, w = hi, WIDEN * w
            hi = min(right, p * (1.0 + w))
    if hi == math.inf:
        raise ScaleError(f"the bracket of the root above {left!r} overflows; rescale the model")
    return _bisect(g, lo, hi)


def level_set_roots(model: HomogenizedModel, a: float) -> tuple[float, ...]:
    """All real solutions of lambda F(lambda) = a for a >= 0: exactly m+1,
    one per monotone branch, all nonnegative.  The branch ends are 0,
    sigma_j (1 -+ POLE_MARGIN) and inf."""
    if a < 0.0:
        raise GapForgeError(f"level a={a} must be >= 0")
    g = lambda lam: dispersion_eval(model, lam) - a
    sig = model.sigma
    p = _predicted_roots(model, a + sum(s * r for s, r in zip(sig, model.rho))).tolist()
    ends = [0.0, *(s * f for s in sig for f in (1.0 - POLE_MARGIN, 1.0 + POLE_MARGIN)), math.inf]
    # g(0) = -a: at a = 0 the root of the first branch is 0
    roots = [0.0] if a == 0.0 else []
    for j in range(len(roots), model.m + 1):
        roots.append(_branch_root(g, p[j], ends[2 * j], ends[2 * j + 1]))
    return tuple(roots)


def limit_spectrum(model: HomogenizedModel, L: float) -> tuple[IntervalSet, IntervalSet]:
    """Bands and gaps of the limit operator on [0, L]:
    gaps = (sigma_j, mu_j), bands = [0, sigma_1] u [mu_1, sigma_2] u ... u [mu_m, L]."""
    mu = mu_roots(model)
    top = max((*model.sigma, *mu), default=0.0)
    if math.isinf(L):
        raise ScaleError("the horizon L overflows the float range; rescale the model or give L")
    if not (L > top):
        raise GapForgeError(f"L={L} must exceed max(sigma_m, mu_m)={top}")
    gaps = IntervalSet(tuple(zip(model.sigma, mu)))
    bands = IntervalSet(tuple(zip((0.0, *mu), (*model.sigma, L))))
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
