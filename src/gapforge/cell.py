"""Desk-scale verification of the bubble-cell spectral asymptotics.

The cell G^eps is a flat annulus [d_eps, d_eps + kappa*eps/2] glued to a
truncated sphere of radius b_eps along the hole of radius d_eps.  Its
zonally symmetric eigenproblem reduces to a weighted 1-D problem

    -(w u')' = lambda m u

with stiffness density r^(n-1) on the annulus and b^(n-2) sin^(n-1)(theta)
on the arc, mass density r^(n-1) and b^n sin^(n-1)(theta) (common factor
omega_{n-1}), Dirichlet at the outer annulus radius, a shared unknown at
the junction (which enforces continuity plus flux matching) and a natural
degenerate endpoint at theta = pi.  The ground state is zonal, so the
first eigenvalue of the reduction is the first eigenvalue of the cell;
higher entries are the *zonal* spectrum only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dstebz

from .design import BubbleGeometry, channel_sigma_rho, sphere_measure
from .errors import GeometryError, QuadratureError, ResolutionError, ScaleError

# ---------------------------------------------------------------------------
# scaled geometry


@dataclass(frozen=True)
class ChannelScale:
    """Epsilon-scaled radii of one channel and the truncation angle
    Theta = arcsin(d_eps / b_eps)."""

    d_eps: float
    b_eps: float
    theta: float


@dataclass(frozen=True)
class EpsGeometry:
    base: BubbleGeometry
    eps: float
    channels: tuple[ChannelScale, ...]

    @property
    def n(self) -> int:
        return self.base.n

    def outer_radius(self, j: int) -> float:
        """Dirichlet radius of the annulus of channel j."""
        return self.channels[j].d_eps + 0.5 * self.base.kappa * self.eps


def eps_scale(base: BubbleGeometry, eps: float) -> EpsGeometry:
    """Apply the dimension-dependent scaling law

        d_eps = d * eps^(n/(n-2))   (n > 2)
        d_eps = exp(-1/(d eps^2))   (n = 2)
        b_eps = b * eps

    and compute Theta per channel.
    """
    if not (eps > 0.0):
        raise GeometryError(f"eps={eps} must be > 0")
    n = base.n
    channels = []
    for j, (d, b) in enumerate(base.channels):
        if n == 2:
            d_eps = math.exp(-1.0 / (d * eps * eps))
            if d_eps == 0.0:
                raise ScaleError(
                    f"channel {j}: exp(-1/(d eps^2)) underflows for eps={eps};"
                    " increase eps"
                )
        else:
            d_eps = d * eps ** (n / (n - 2.0))
        b_eps = b * eps
        if not (d_eps < b_eps):
            raise GeometryError(
                f"channel {j}: hole radius {d_eps} must be smaller than bubble radius {b_eps}"
            )
        channels.append(ChannelScale(d_eps, b_eps, math.asin(d_eps / b_eps)))
    return EpsGeometry(base, float(eps), tuple(channels))


# ---------------------------------------------------------------------------
# the angular profile integral F(theta) = int_{pi/2}^{theta} sin^(1-n)


def angular_integral_F(theta: float | np.ndarray, n: int) -> float | np.ndarray:
    """Closed form of F(theta) = int_{pi/2}^{theta} sin^(1-n)(psi) dpsi,
    elementwise for array input.

    With k = n - 1 and I_k = int_{pi/2}^{theta} csc^k, the reduction

        I_k = -csc^(k-2)(theta) cot(theta) / (k-1) + (k-2)/(k-1) I_(k-2)

    descends to I_0 = theta - pi/2 or I_1 = ln tan(theta/2), evaluated as
    -asinh(cot theta), which keeps full relative accuracy next to pi/2.
    Every term has the sign of the result on either side of pi/2, so the
    sum does not cancel.  F(pi/2) is exactly 0.
    """
    if int(n) != n or n < 2:
        raise GeometryError(f"dimension n={n} must be an integer >= 2")
    t = np.atleast_1d(np.asarray(theta, dtype=float))  # scalars take the array path bit for bit
    if not np.all((0.0 < t) & (t < math.pi)):
        raise GeometryError(f"theta={theta} must lie strictly inside (0, pi)")
    k = int(n) - 1
    s = np.sin(t)
    cot = np.cos(t) / s
    F = -np.arcsinh(cot) if k % 2 else t - 0.5 * math.pi
    for j in range(2 + k % 2, k + 1, 2):
        F = -cot / s ** (j - 2) / (j - 1) + (j - 2) / (j - 1) * F
    F = np.where(t == 0.5 * math.pi, 0.0, F)
    return float(F[0]) if np.ndim(theta) == 0 else F


# ---------------------------------------------------------------------------
# explicit trial function and its Rayleigh quotient


def cutoff_profile(theta: float | np.ndarray) -> np.ndarray:
    """C^2 cutoff in t = theta/pi: 1 on t <= 1/4, 0 on t >= 1/2."""
    t = np.asarray(theta, dtype=float) / math.pi
    s = np.clip((t - 0.25) / 0.25, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def cutoff_profile_deriv(theta: float | np.ndarray) -> np.ndarray:
    t = np.asarray(theta, dtype=float) / math.pi
    s = np.clip((t - 0.25) / 0.25, 0.0, 1.0)
    ds = -30.0 * s * s * (1.0 - s) ** 2
    return ds / (0.25 * math.pi)


@dataclass(frozen=True)
class TrialFunction:
    """Harmonic two-piece profile: A r^(2-n) + B on the annulus (A ln r + B
    for n = 2) and C F(theta) + 1 on the cap, matched at the junction."""

    n: int
    d_eps: float
    b_eps: float
    r_outer: float
    theta: float
    F_theta: float
    A: float
    B: float
    C: float

    def annulus_value(self, r: float | np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.n == 2:
            return self.A * np.log(r) + self.B
        return self.A * r ** (2 - self.n) + self.B

    def annulus_grad(self, r: float | np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.n == 2:
            return self.A / r
        return self.A * (2 - self.n) * r ** (1 - self.n)

    def cap_hat_value(self, F_of_theta: float | np.ndarray) -> np.ndarray:
        """v-hat on the cap expressed through F(theta)."""
        return self.C * np.asarray(F_of_theta, dtype=float) + 1.0

    def boundary_residuals(self) -> tuple[float, float]:
        """(value at the Dirichlet radius, junction jump); both vanish by
        construction up to rounding."""
        outer = float(self.annulus_value(self.r_outer))
        jump = float(self.annulus_value(self.d_eps)) - float(self.cap_hat_value(self.F_theta))
        return outer, jump


def trial_constants(geom: EpsGeometry, j: int) -> TrialFunction:
    """Constants (A, B, C) solving the harmonic junction problem with
    v = 0 at the outer radius and v = 1 at theta = pi/2.

    The n = 2 branch (logarithmic annulus profile, C = -A) is a documented
    extension of the n >= 3 closed form.
    """
    n = geom.n
    ch = geom.channels[j]
    d, b, th = ch.d_eps, ch.b_eps, ch.theta
    r_out = geom.outer_radius(j)
    F_th = angular_integral_F(th, n)
    if n == 2:
        denom = math.log(d / r_out) + F_th
        if abs(denom) < 1e-14:
            raise GeometryError("degenerate trial denominator (n=2)")
        A = 1.0 / denom
        B = -A * math.log(r_out)
        C = -A
    else:
        denom = 1.0 - (d / r_out) ** (n - 2) - (n - 2) * F_th * (d / b) ** (n - 2)
        if abs(denom) < 1e-14:
            raise GeometryError("degenerate trial denominator")
        A = d ** (n - 2) / denom
        B = -A * r_out ** (2 - n)
        C = (n - 2) * A / b ** (n - 2)
    tf = TrialFunction(n, d, b, r_out, th, F_th, A, B, C)
    outer, jump = tf.boundary_residuals()
    scale = abs(tf.cap_hat_value(F_th)) + 1.0
    if abs(outer) > 1e-12 * scale or abs(jump) > 1e-12 * scale:
        raise AssertionError(f"trial boundary residuals too large: {outer}, {jump}")
    return tf


@dataclass(frozen=True)
class RayleighBound:
    numerator: float
    denominator: float
    quotient: float


@dataclass(frozen=True)
class JunctionFlux:
    flux: float
    ratio: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gauss(
    lo: np.ndarray, hi: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and scaled weights of every element [lo, hi]; the
    reference rule on [-1, 1] broadcasts along the last axis."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def _gl_mesh_integrate(f: Callable[[np.ndarray], np.ndarray], mesh: np.ndarray) -> float:
    x, wq = _gauss(mesh[:-1, None], mesh[1:, None], _GL_NODES, _GL_WEIGHTS)
    return float(np.sum(wq * f(x)))


def _cap_mesh(theta: float, density: int) -> np.ndarray:
    """Graded mesh on [theta, pi/2]: geometric where the profile is steep
    (at least density/12 nodes per decade), uniform once sin theta is order
    one."""
    quarter, half = 0.25 * math.pi, 0.5 * math.pi
    if theta < quarter:
        count = max(int(3 * density), 8, int(density * math.log10(quarter / theta) / 12))
        geo = np.geomspace(theta, quarter, count)
        uni = np.linspace(quarter, half, max(density, 4))
        return np.unique(np.concatenate([geo, uni]))
    return np.linspace(theta, half, max(int(3 * density), 8))


def _rayleigh_integrals(tf: TrialFunction, density: int) -> tuple[float, float]:
    n, b = tf.n, tf.b_eps
    # annulus, geometric toward the hole where the harmonic profile is steep;
    # density/12 nodes per decade keep the 50-150 decades of the n = 2 holes
    # resolved
    decades = math.log10(tf.r_outer / tf.d_eps)
    mesh_a = np.geomspace(tf.d_eps, tf.r_outer, max(int(4 * density), 16, int(density * decades / 12)))
    # weight before squaring: next to an n = 2 hole below about 1e-154 the
    # gradient itself squares past the float range
    num_ann = _gl_mesh_integrate(lambda r: (tf.annulus_grad(r) * r ** ((n - 1) / 2)) ** 2, mesh_a)
    den_ann = _gl_mesh_integrate(lambda r: tf.annulus_value(r) ** 2 * r ** (n - 1), mesh_a)

    # cap [theta, pi/2] with the cutoff-modified profile v = 1 + C F Phi
    mesh_c = _cap_mesh(tf.theta, density)
    x, wq = _gauss(mesh_c[:-1, None], mesh_c[1:, None], _GL_NODES, _GL_WEIGHTS)
    F_nodes = angular_integral_F(x, n)
    sin_pow = np.sin(x) ** (n - 1)
    phi = cutoff_profile(x)
    dphi = cutoff_profile_deriv(x)
    dv = tf.C * (np.sin(x) ** (1 - n) * phi + F_nodes * dphi)
    v = 1.0 + tf.C * F_nodes * phi
    num_cap = float(np.sum(wq * (dv * np.sin(x) ** ((n - 1) / 2)) ** 2))
    den_cap = float(np.sum(wq * v**2 * sin_pow))

    # tail [pi/2, pi] where v == 1: half of int_0^pi sin^(n-1) = omega_n / omega_{n-1}
    w = sphere_measure(n - 1)
    den_tail = 0.5 * sphere_measure(n) / w
    num = w * (num_ann + b ** (n - 2) * num_cap)
    den = w * (den_ann + b**n * (den_cap + den_tail))
    return num, den


def trial_rayleigh(geom: EpsGeometry, j: int) -> RayleighBound:
    """Dirichlet energy and mass of the cutoff-modified trial function; the
    quotient is a certified upper bound for the first cell eigenvalue (the
    trial function vanishes at the Dirichlet radius by construction)."""
    tf = trial_constants(geom, j)
    num1, den1 = _rayleigh_integrals(tf, 24)
    num2, den2 = _rayleigh_integrals(tf, 48)
    err = max(abs(num2 - num1) / abs(num2), abs(den2 - den1) / abs(den2))
    if err > 1e-8:
        raise QuadratureError(f"Rayleigh quadrature stalled at rel error {err:.3e}", err)
    return RayleighBound(num2, den2, num2 / den2)


def junction_flux(geom: EpsGeometry, j: int) -> JunctionFlux:
    """Total flux of the trial function through the gluing sphere:
    (n-2) A omega_{n-1} for n >= 3; -A omega_1 in the n = 2 extension.
    ``ratio`` divides by sigma_j rho_j eps^n, the homogenized prediction."""
    tf = trial_constants(geom, j)
    n = geom.n
    if n == 2:
        flux = -tf.A * sphere_measure(1)
    else:
        flux = (n - 2) * tf.A * sphere_measure(n - 1)
    d_j, b_j = geom.base.channels[j]
    sigma, rho = channel_sigma_rho(n, d_j, b_j)
    return JunctionFlux(flux, flux / (sigma * rho * geom.eps**n))


# ---------------------------------------------------------------------------
# 1-D finite-element cell and its eigenvalues


@dataclass(frozen=True)
class RadialCell:
    """Composite 1-D cell.  ``annulus_nodes`` ascend in r (may be None for
    the cap-only variant), ``arc_nodes`` ascend in theta (None for the pure
    disk).  The first path node carries the Dirichlet condition: the outer
    annulus radius when an annulus is present, else the arc start."""

    n: int
    annulus_nodes: np.ndarray | None
    arc_nodes: np.ndarray | None
    b_eps: float = 0.0

    def __post_init__(self):
        if self.annulus_nodes is None and self.arc_nodes is None:
            raise GeometryError("cell needs at least one segment")
        if self.arc_nodes is not None and not (self.b_eps > 0.0):
            raise GeometryError("arc segment requires a positive bubble radius")

    @property
    def segment_sizes(self) -> tuple[int, ...]:
        out = []
        if self.annulus_nodes is not None:
            out.append(len(self.annulus_nodes))
        if self.arc_nodes is not None:
            out.append(len(self.arc_nodes))
        return tuple(out)


def _graded_arc(theta: float, count: int) -> np.ndarray:
    half = 0.5 * math.pi
    if theta < half:
        k = max(count // 2, 4)
        left = np.geomspace(theta, half, k)
        right = np.linspace(half, math.pi, count - k + 1)
        return np.unique(np.concatenate([left, right]))
    return np.linspace(theta, math.pi, count)


def build_radial_cell(geom: EpsGeometry, j: int, nodes_per_segment: int = 256) -> RadialCell:
    """Full annulus+cap cell with log-graded annulus (the harmonic profile
    varies on a multiplicative scale, which is what keeps the n = 2
    exponentially small holes resolvable) and junction-graded arc."""
    ch = geom.channels[j]
    r_out = geom.outer_radius(j)
    annulus = np.geomspace(ch.d_eps, r_out, nodes_per_segment)
    arc = _graded_arc(ch.theta, nodes_per_segment)
    return RadialCell(geom.n, annulus, arc, ch.b_eps)


def disk_cell(n: int, radius: float, nodes: int = 2048) -> RadialCell:
    """Flat n-ball of the given radius: Dirichlet rim, natural centre."""
    return RadialCell(n, np.linspace(0.0, radius, nodes), None)


_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _segment_matrices(nodes: np.ndarray, wfun, mfun) -> tuple[np.ndarray, np.ndarray]:
    """Per-element stiffness integrals int_e w and per-node lumped masses
    int m phi_i, both by 3-point Gauss (positive even at degenerate
    endpoints because the Gauss points are interior).  Raises ScaleError
    before dividing when a squared element length is below the smallest
    normal float."""
    if not np.all(np.diff(nodes) ** 2 >= np.finfo(float).tiny):
        raise ScaleError("radial mesh spacing squared below the smallest normal float; increase eps")
    a, b = nodes[:-1, None], nodes[1:, None]
    x, wq = _gauss(a, b, _GL3_NODES, _GL3_WEIGHTS)
    stiff = np.sum(wq * wfun(x), axis=1)
    mvals = wq * mfun(x)
    # linear hat functions on the element
    lam = (x - a) / (b - a)
    m_left = np.sum(mvals * (1.0 - lam), axis=1)
    m_right = np.sum(mvals * lam, axis=1)
    lumped = np.zeros(len(nodes))
    np.add.at(lumped, np.arange(len(nodes) - 1), m_left)
    np.add.at(lumped, np.arange(1, len(nodes)), m_right)
    return stiff, lumped


def _assemble_path(cell: RadialCell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal (diag, offdiag, lumped mass) along the path
    [outer annulus ... junction ... pi], Dirichlet node first, with the
    common factor omega_{n-1} applied to both sides."""
    n = cell.n
    diag_parts: list[np.ndarray] = []
    off_parts: list[np.ndarray] = []
    mass_parts: list[np.ndarray] = []

    def push(nodes_path: np.ndarray, stiff: np.ndarray, lumped: np.ndarray, merge: bool):
        h = np.abs(np.diff(nodes_path))
        k = stiff / h**2  # int_e w * (phi')^2 with phi' = 1/h
        d = np.zeros(len(nodes_path))
        d[:-1] += k
        d[1:] += k
        if merge and diag_parts:
            diag_parts[-1][-1] += d[0]
            mass_parts[-1][-1] += lumped[0]
            diag_parts.append(d[1:])
            mass_parts.append(lumped[1:])
        else:
            diag_parts.append(d)
            mass_parts.append(lumped)
        off_parts.append(-k)

    if cell.annulus_nodes is not None:
        r = cell.annulus_nodes
        stiff, lumped = _segment_matrices(r, lambda x: x ** (n - 1), lambda x: x ** (n - 1))
        # walk the path outer -> inner so the Dirichlet node is first
        push(r[::-1], stiff[::-1], lumped[::-1], merge=False)
    if cell.arc_nodes is not None:
        t = cell.arc_nodes
        b = cell.b_eps
        stiff, lumped = _segment_matrices(
            t,
            lambda x: b ** (n - 2) * np.sin(x) ** (n - 1),
            lambda x: b**n * np.sin(x) ** (n - 1),
        )
        push(t, stiff, lumped, merge=cell.annulus_nodes is not None)

    w = sphere_measure(n - 1)
    diag = w * np.concatenate(diag_parts)
    off = w * np.concatenate(off_parts)
    mass = w * np.concatenate(mass_parts)
    return diag, off, mass


EIG_RTOL = 1e-12
# relative window in which a refined eigenvalue must stay next to its
# starting value, and in which two Sturm counts must enclose it
REFINE_WINDOW = 1e-6
_PIVMIN = 1e-300


def _refine_eigenvalue(
    diag: np.ndarray, off: np.ndarray, mass: np.ndarray, lam: float, seed: int
) -> float | None:
    """Polish a pencil eigenvalue estimate by inverse iteration plus a
    cancellation-free Rayleigh quotient (both quadratic forms are sums of
    nonnegative terms, so the quotient is relatively accurate even though
    the pencil entries span many orders of magnitude).  None when the
    iteration wandered off by more than REFINE_WINDOW."""
    n = len(diag)
    ab = np.zeros((3, n))
    rng = np.random.default_rng(0x5EED + seed)
    u = rng.standard_normal(n)
    u /= math.sqrt(float(np.sum(mass * u * u)))
    shift = lam
    for attempt in range(3):
        ab[0, 1:] = off
        ab[1, :] = diag - shift * mass
        ab[2, :-1] = off
        try:
            for _ in range(2):
                u = solve_banded((1, 1), ab, mass * u)
                u /= math.sqrt(float(np.sum(mass * u * u)))
            break
        except np.linalg.LinAlgError:
            shift = lam * (1.0 - 1e-10 * (attempt + 1))
    ke = -off  # element conductances are positive
    bulk = float(np.sum(ke * (u[:-1] - u[1:]) ** 2))
    residual_diag = diag.copy()
    residual_diag[:-1] += off
    residual_diag[1:] += off
    edge = float(np.sum(np.maximum(residual_diag, 0.0) * u * u))
    num = bulk + edge
    den = float(np.sum(mass * u * u))
    refined = num / den
    if not math.isfinite(refined) or abs(refined - lam) > REFINE_WINDOW * (abs(lam) + 1e-300):
        return None
    return refined


def _sturm_count(Kd: list[float], Ke: list[float], Md: list[float], lam: float) -> int:
    """Number of pencil eigenvalues below ``lam``: negative pivots of the
    LDL^T factorization of K - lam*M (Wilkinson-guarded)."""
    count = 0
    p = Kd[0] - lam * Md[0]
    if abs(p) < _PIVMIN:
        p = -_PIVMIN
    if p < 0.0:
        count += 1
    for i in range(1, len(Kd)):
        p = (Kd[i] - lam * Md[i]) - Ke[i - 1] * Ke[i - 1] / p
        if abs(p) < _PIVMIN:
            p = -_PIVMIN
        if p < 0.0:
            count += 1
    return count


def _predict_eigenvalues(diag: np.ndarray, off: np.ndarray, mass: np.ndarray, k: int) -> np.ndarray | None:
    """First k eigenvalues of the standard form M^-1/2 K M^-1/2 by LAPACK
    dstebz, or None when the form is not finite or dstebz fails.  Only a
    prediction: on the graded meshes it sits up to 4e-8 (relative) from
    the pencil eigenvalue, 3e-6 at n = 3, eps = 0.001.  The absolute
    tolerance is the smallest normal float; a tolerance <= 0 would mean
    ulp * ||T||, which swamps the low eigenvalues."""
    with np.errstate(over="ignore"):
        d = diag / mass
        root_mass = np.sqrt(mass)
        e = off / (root_mass[:-1] * root_mass[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        return None
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, k, np.finfo(float).tiny, "E")
    if info != 0 or m != k:
        return None
    return w[:k]


def _bisect_eigenvalues(diag: np.ndarray, off: np.ndarray, mass: np.ndarray, k: int) -> np.ndarray:
    """First k pencil eigenvalues by bisection on Sturm counts from the
    Gershgorin bound, each polished by ``_refine_eigenvalue`` (the
    bisection midpoint is kept when the refinement wanders)."""
    Kd, Ke, Md = diag.tolist(), off.tolist(), mass.tolist()
    radius_left = np.concatenate(([0.0], np.abs(off)))
    radius_right = np.concatenate((np.abs(off), [0.0]))
    hi0 = float(np.max((diag + radius_left + radius_right) / mass))
    vals = []
    lo_floor = 0.0
    for kk in range(1, k + 1):
        lo, hi = lo_floor, hi0
        while hi - lo > EIG_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if _sturm_count(Kd, Ke, Md, mid) >= kk:
                hi = mid
            else:
                lo = mid
        mid = 0.5 * (lo + hi)
        refined = _refine_eigenvalue(diag, off, mass, mid, kk)
        vals.append(mid if refined is None else refined)
        lo_floor = lo  # eigenvalues come out ascending
    return np.asarray(vals, dtype=float)


def radial_eigenvalues(cell: RadialCell, k: int) -> np.ndarray:
    """First k eigenvalues of the weighted 1-D problem, ascending.

    Predict, refine, certify (after Barth, Martin & Wilkinson, Numer. Math.
    9 (1967)): LAPACK dstebz on the standard form predicts each eigenvalue,
    ``_refine_eigenvalue`` polishes it, and the refined value r of the k-th
    eigenvalue is accepted only when the Sturm counts of the pencil (K, M)
    itself put at most k-1 eigenvalues below r(1 - REFINE_WINDOW) and at
    least k below r(1 + REFINE_WINDOW).  The counts stay relatively accurate where the
    graded meshes make the standard-form norm enormous.  If any prediction,
    refinement or count fails, the whole call falls back to bisection on
    the counts (``_bisect_eigenvalues``, relative tolerance EIG_RTOL).
    Deterministic.
    """
    for size in cell.segment_sizes:
        if size < 64:
            raise ResolutionError(f"segment with {size} nodes; need >= 64 per segment")
    diag, off, mass = _assemble_path(cell)
    # Dirichlet at the first path node
    diag, mass = diag[1:], mass[1:]
    off = off[1:]
    # a zero or subnormal lumped mass overflows the Gershgorin bound K/M
    finite = np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
    if not (finite and np.all(mass >= np.finfo(float).tiny)):
        raise ScaleError(
            "radial pencil not representable at this scale (lumped mass below the smallest"
            " normal float or a non-finite stiffness); increase eps"
        )
    if k < 1 or k > len(diag):
        raise ResolutionError(f"k={k} eigenvalues requested from a {len(diag)}-unknown cell")
    predicted = _predict_eigenvalues(diag, off, mass, k)
    if predicted is None:
        return _bisect_eigenvalues(diag, off, mass, k)
    Kd, Ke, Md = diag.tolist(), off.tolist(), mass.tolist()
    vals = []
    for kk, guess in enumerate(predicted.tolist(), start=1):
        r = _refine_eigenvalue(diag, off, mass, guess, kk) if math.isfinite(guess) else None
        if (
            r is None
            or _sturm_count(Kd, Ke, Md, r * (1.0 - REFINE_WINDOW)) > kk - 1
            or _sturm_count(Kd, Ke, Md, r * (1.0 + REFINE_WINDOW)) < kk
        ):
            return _bisect_eigenvalues(diag, off, mass, k)
        vals.append(r)
    return np.asarray(vals, dtype=float)


def richardson_lambda1(lam_coarse: float, lam_fine: float) -> tuple[float, float]:
    """Richardson pair of first eigenvalues at (N, 2N) nodes per segment:
    extrapolated limit and the observed |lambda(2N) - lambda(N)| as an
    error gauge (the scheme is second order, so the extrapolation removes
    the h^2 term)."""
    return lam_fine + (lam_fine - lam_coarse) / 3.0, abs(lam_fine - lam_coarse)


# ---------------------------------------------------------------------------
# reference limits and the convergence table


@dataclass(frozen=True)
class ReferenceLimits:
    lambda1_D_disk: float
    lambda2_sphere: float
    lambda2_N_cube: float
    Lj_lambda2: float
    L_lambda_m_plus_2: float


def reference_limits(base: BubbleGeometry, j: int) -> ReferenceLimits:
    """Spectral data of the rescaled limit cells: the flat disk of radius
    base.kappa/2 (first Dirichlet eigenvalue, via the same 1-D solver), the
    full sphere of radius b_j (first nonzero eigenvalue n/b^2) and the unit
    cube (first nonzero Neumann eigenvalue pi^2)."""
    n = base.n
    disk = radial_eigenvalues(disk_cell(n, 0.5 * base.kappa, nodes=4096), 1)[0]
    b_j = base.channels[j][1]
    lam2_sphere = n / (b_j * b_j)
    lam2_cube = math.pi**2
    lj = min(disk, lam2_sphere)
    lm2 = min(lam2_cube, min(n / (b * b) for _, b in base.channels))
    return ReferenceLimits(float(disk), lam2_sphere, lam2_cube, float(lj), float(lm2))


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    lambda1: float
    lambda2: float
    rayleigh_upper: float
    eps2_lambda2: float
    sigma_target: float
    Lj_lambda2: float
    resolution: int
    mesh_gauge: float  # |lambda1(2N) - lambda1(N)|; not written to the CSV


CONVERGENCE_CSV_HEADER = [
    "eps",
    "lambda1",
    "lambda2",
    "rayleigh_upper",
    "eps2_lambda2",
    "sigma_target",
    "Lj_lambda2",
    "resolution",
]


def convergence_table(
    base: BubbleGeometry,
    j: int,
    eps_list: Sequence[float],
    resolution: int = 384,
) -> list[ConvergenceRow]:
    """Per-epsilon cell eigenvalues against their limits: lambda1 -> sigma_j
    and eps^2 lambda2 -> lambda2 of the rescaled limit cell (zonal modes).

    lambda1 is the Richardson mesh limit over (resolution, 2*resolution);
    the raw discrete value approaches the eigenvalue from above and would
    mask the min-max margin once it shrinks below the mesh error.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise GeometryError("eps_list must be strictly decreasing")
    d_j, b_j = base.channels[j]
    sigma_target, _ = channel_sigma_rho(base.n, d_j, b_j)
    ref = reference_limits(base, j)
    rows = []
    for eps in eps_list:
        geom = eps_scale(base, eps)
        # one solve per cell: lambda1 of a k = 2 solve is the k = 1 value to
        # within the certified window (bit for bit on every cell measured)
        coarse = radial_eigenvalues(build_radial_cell(geom, j, resolution), 1)
        fine = radial_eigenvalues(build_radial_cell(geom, j, 2 * resolution), 2)
        lam1, gauge = richardson_lambda1(coarse[0], fine[0])
        lam2 = float(fine[1])
        bound = trial_rayleigh(geom, j)
        rows.append(
            ConvergenceRow(
                eps=eps,
                lambda1=lam1,
                lambda2=lam2,
                rayleigh_upper=bound.quotient,
                eps2_lambda2=float(eps * eps * lam2),
                sigma_target=sigma_target,
                Lj_lambda2=ref.Lj_lambda2,
                resolution=resolution,
                mesh_gauge=gauge,
            )
        )
    return rows


def convergence_rows_csv(rows: Sequence[ConvergenceRow]) -> list[str]:
    from ._fmt import csv_lines

    return csv_lines(
        CONVERGENCE_CSV_HEADER,
        [
            (
                r.eps,
                r.lambda1,
                r.lambda2,
                r.rayleigh_upper,
                r.eps2_lambda2,
                r.sigma_target,
                r.Lj_lambda2,
                r.resolution,
            )
            for r in rows
        ],
    )
