"""Forward map (d_j, b_j) -> (sigma_j, rho_j) and the inverse design map
from target gaps to bubble radii.

Conventions: ``sphere_measure(k)`` is the k-dimensional Riemannian volume of
the unit k-sphere (the surface of the unit ball in (k+1)-space); a channel
is a (d_j, b_j) pair driving one hole/bubble family.
Results are numbers; ``cli`` lays them out as artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ScaleError
from .intervals import GapSpec

# Relative tolerance below which two channel resonances count as equal.
SIGMA_DISTINCT_RTOL = 1e-12


def sphere_measure(k: int) -> float:
    """Volume of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if int(k) != k or k < 1:
        raise GeometryError(f"sphere dimension k={k} must be an integer >= 1")
    k = int(k)
    try:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)
    except OverflowError:
        raise ScaleError(f"the unit {k}-sphere volume leaves the float range; lower the dimension")


@dataclass(frozen=True)
class BubbleGeometry:
    """Per-channel radius coefficients (d_j, b_j) in dimension n with
    separation constant kappa (recorded, not geometrically verified)."""

    n: int
    channels: tuple[tuple[float, float], ...]
    kappa: float = 0.5

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise GeometryError(f"dimension n={self.n} must be an integer >= 2")
        if not self.channels:
            raise GeometryError("at least one (d, b) channel required")
        for j, (d, b) in enumerate(self.channels):
            if not (d > 0 and b > 0):
                raise GeometryError(f"channel {j}: radii must be positive, got ({d}, {b})")
        if not (self.kappa > 0):
            raise GeometryError(f"kappa={self.kappa} must be > 0")

    @property
    def m(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class HomogenizedModel:
    """Limit-operator data: channel resonances sigma_1 < ... < sigma_m and
    mass weights rho_j > 0.  Immutable: the gap upper edges are a value
    that ``dispersion.mu_roots`` returns, not a field."""

    n: int
    sigma: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise GeometryError(f"dimension n={self.n} must be an integer >= 2")
        if len(self.sigma) != len(self.rho):
            raise GeometryError("sigma and rho must have equal length")
        if not all(math.isfinite(v) for v in (*self.sigma, *self.rho)):
            raise GeometryError("sigma and rho values must be finite")
        if not math.isfinite(sum(s * r for s, r in zip(self.sigma, self.rho))):
            raise GeometryError("sum_j sigma_j rho_j overflows the float range")
        for j in range(1, len(self.sigma)):
            if not (self.sigma[j] > self.sigma[j - 1]):
                raise GeometryError("sigma must be strictly increasing")
        if self.sigma and self.sigma[0] <= 0:
            raise GeometryError("sigma values must be positive")
        if any(r <= 0 for r in self.rho):
            raise GeometryError("rho values must be positive")

    @property
    def m(self) -> int:
        return len(self.sigma)


def channel_sigma_rho(n: int, d: float, b: float) -> tuple[float, float]:
    """Resonance and weight of a single channel."""
    if n == 2:
        sigma = d / (4.0 * b * b)
    else:
        sigma = 0.5 * (n - 2) * d ** (n - 2) * sphere_measure(n - 1) / (b**n * sphere_measure(n))
    rho = b**n * sphere_measure(n)
    return sigma, rho


def forward_model(geom: BubbleGeometry) -> HomogenizedModel:
    """Homogenized (sigma_j, rho_j) of a bubble geometry, sorted by sigma.

    Raises GeometryError when two resonances coincide to relative
    SIGMA_DISTINCT_RTOL; the theory assumes pairwise distinct sigma.
    """
    pairs = [channel_sigma_rho(geom.n, d, b) for d, b in geom.channels]
    order = sorted(range(len(pairs)), key=lambda j: pairs[j][0])
    sig = [pairs[j][0] for j in order]
    rho = [pairs[j][1] for j in order]
    for j in range(1, len(sig)):
        if sig[j] - sig[j - 1] <= SIGMA_DISTINCT_RTOL * sig[j]:
            raise GeometryError(
                f"channel resonances {sig[j - 1]} and {sig[j]} are not distinct"
            )
    return HomogenizedModel(geom.n, tuple(sig), tuple(rho))


def _edge_products(spec: GapSpec) -> list[float]:
    # P_j = prod_{i != j} (beta_i - alpha_j) / (alpha_i - alpha_j); positive
    # for any valid chain because numerator and denominator share signs.
    a, b = spec.alphas, spec.betas
    prods = []
    for j in range(spec.m):
        p = 1.0
        for i in range(spec.m):
            if i != j:
                p *= (b[i] - a[j]) / (a[i] - a[j])
        prods.append(p)
    return prods


def weights_closed_form(spec: GapSpec) -> tuple[float, ...]:
    """rho_j = (beta_j - alpha_j)/alpha_j * prod_{i!=j} (beta_i - alpha_j)/(alpha_i - alpha_j)."""
    prods = _edge_products(spec)
    a, b = spec.alphas, spec.betas
    return tuple((b[j] - a[j]) / a[j] * prods[j] for j in range(spec.m))


def solve_weight_system(spec: GapSpec) -> tuple[float, ...]:
    """Solve sum_j alpha_j rho_j / (beta_k - alpha_j) = 1 (k = 1..m) by dense
    LU elimination with partial pivoting; agrees with the closed form to
    1e-9 relative for valid specs."""
    a = np.asarray(spec.alphas)
    b = np.asarray(spec.betas)
    mat = a[None, :] / (b[:, None] - a[None, :])
    rhs = np.ones(spec.m)
    try:
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid spec
        raise AssertionError(f"weight system singular for a valid spec: {exc}") from exc
    return tuple(float(v) for v in x)


def design_geometry(spec: GapSpec, kappa: float = 0.5) -> tuple[BubbleGeometry, HomogenizedModel]:
    """Radii (d_j, b_j) realizing sigma_j = alpha_j and mu_j = beta_j.

    n > 2:  d_j = [2(beta_j-alpha_j) P_j / ((n-2) omega_{n-1})]^{1/(n-2)}
    n == 2: d_j = (beta_j-alpha_j) P_j / pi
    both:   b_j = [(beta_j-alpha_j) P_j / (omega_n alpha_j)]^{1/n}
    with P_j the edge product over the other target intervals.
    """
    n = spec.n
    prods = _edge_products(spec)
    a, bta = spec.alphas, spec.betas
    channels = []
    for j in range(spec.m):
        core = (bta[j] - a[j]) * prods[j]
        # positive for every valid chain; a nonpositive value here is a bug
        assert core > 0.0, f"nonpositive radicand {core} for channel {j}"
        if n == 2:
            d = core / math.pi
        else:
            d = (2.0 * core / (sphere_measure(n - 1) * (n - 2))) ** (1.0 / (n - 2))
        b_rad = core / (sphere_measure(n) * a[j])
        assert b_rad > 0.0, f"nonpositive radicand {b_rad} for channel {j}"
        b = b_rad ** (1.0 / n)
        channels.append((d, b))
    geom = BubbleGeometry(n, tuple(channels), kappa)
    model = forward_model(geom)
    return geom, model
