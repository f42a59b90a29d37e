"""Desk-scale verification of the bubble-cell spectral asymptotics.

The cell G^eps is a flat annulus [d_eps, d_eps + kappa*eps/2] glued to a
truncated sphere of radius b_eps along the hole of radius d_eps.  Its
zonally symmetric eigenproblem reduces to a weighted 1-D problem

    -(w u')' = lambda m u

with stiffness density r^(n-1) on the annulus and b^(n-2) sin^(n-1)(theta)
on the arc, mass density r^(n-1) and b^n sin^(n-1)(theta) (the common
factor omega_{n-1} of both sides is left out), Dirichlet at the outer
annulus radius, a shared unknown at the junction (which enforces
continuity plus flux matching) and a natural degenerate endpoint at
theta = pi.  The ground state is zonal, so the
first eigenvalue of the reduction is the first eigenvalue of the cell;
higher entries are the *zonal* spectrum only.

Its eigenvalues take one path, in LAPACK but for the loop over them: a
prediction, refinement steps solved by dgtsv, two Sturm counts (dlaebz)
that certify, and ``dispersion``'s bracketer, which bisects the rest (46-53
counts each at n = 2).  Of the (N, 2N) mesh pair behind a ``RadialRow``,
dstebz predicts on the N mesh; on the 2N mesh the N values are the shifts
of a few dgtsv inverse-iteration steps whose Rayleigh quotients predict.
Results are numbers; ``cli`` lays them out as artifacts.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgtsv, dstebz

from .design import BubbleGeometry, channel_sigma_rho, sphere_measure
from .dispersion import bisect, bracket
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
        else:
            d_eps = d * eps ** (n / (n - 2.0))
        if d_eps == 0.0:
            raise ScaleError(f"channel {j}: the hole radius d_eps underflows for eps={eps}; increase eps")
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


def _cutoff_window(theta: float | np.ndarray, junction: float) -> tuple[np.ndarray, float]:
    """Position s in [0, 1] of theta in the cutoff window [t0, 1/2] of t =
    theta/pi, t0 = max(1/4, junction/pi), and the window's width."""
    t = np.asarray(theta, dtype=float) / math.pi
    t0 = max(0.25, junction / math.pi)
    width = 0.5 - t0
    return np.clip((t - t0) / width, 0.0, 1.0), width


def cutoff_profile(theta: float | np.ndarray, junction: float = 0.0) -> np.ndarray:
    """C^2 cutoff in t = theta/pi: 1 on t <= t0, 0 on t >= 1/2, where the
    window starts at t0 = max(1/4, junction/pi).  So the cutoff is 1 at a
    junction angle Theta, also at Theta >= pi/4."""
    s, _ = _cutoff_window(theta, junction)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def cutoff_profile_deriv(theta: float | np.ndarray, junction: float = 0.0) -> np.ndarray:
    s, width = _cutoff_window(theta, junction)
    ds = -30.0 * s * s * (1.0 - s) ** 2
    return ds / (width * math.pi)


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
    r, wq = _gauss(mesh_a[:-1, None], mesh_a[1:, None], _GL_NODES, _GL_WEIGHTS)
    # weight before squaring: next to an n = 2 hole below about 1e-154 the
    # gradient itself squares past the float range
    num_ann = float(np.sum(wq * (tf.annulus_grad(r) * r ** ((n - 1) / 2)) ** 2))
    den_ann = float(np.sum(wq * (tf.annulus_value(r) ** 2 * r ** (n - 1))))

    # cap [theta, pi/2] with the cutoff-modified profile v = 1 + C F Phi
    mesh_c = _cap_mesh(tf.theta, density)
    x, wq = _gauss(mesh_c[:-1, None], mesh_c[1:, None], _GL_NODES, _GL_WEIGHTS)
    s = np.sin(x)
    F_nodes = angular_integral_F(x, n)
    phi = cutoff_profile(x, tf.theta)
    dv = tf.C * (s ** (1 - n) * phi + F_nodes * cutoff_profile_deriv(x, tf.theta))
    v = 1.0 + tf.C * F_nodes * phi
    num_cap = float(np.sum(wq * (dv * s ** ((n - 1) / 2)) ** 2))
    den_cap = float(np.sum(wq * v**2 * s ** (n - 1)))

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
        raise QuadratureError(f"Rayleigh quadrature stalled at rel error {err:.3e}")
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
    """Composite 1-D cell: an annulus whose nodes ascend in r, clamped
    (Dirichlet) at its outer radius, and a cap on the sphere of radius
    ``b_eps`` whose ``arc_nodes`` ascend in theta from the junction with
    the annulus's first node (None for the flat disk)."""

    n: int
    annulus_nodes: np.ndarray
    arc_nodes: np.ndarray | None = None
    b_eps: float = 0.0

    def __post_init__(self):
        if self.arc_nodes is not None and not (self.b_eps > 0.0):
            raise GeometryError("arc segment requires a positive bubble radius")

    @property
    def segment_sizes(self) -> tuple[int, ...]:
        arc = () if self.arc_nodes is None else (len(self.arc_nodes),)
        return (len(self.annulus_nodes), *arc)


def _graded_arc(theta: float, count: int) -> np.ndarray:
    """Arc nodes from the junction angle theta < pi/2 (``eps_scale`` keeps
    d_eps < b_eps) to pi: geometric up to pi/2, uniform beyond."""
    half = 0.5 * math.pi
    k = max(count // 2, 4)
    left = np.geomspace(theta, half, k)
    right = np.linspace(half, math.pi, count - k + 1)
    return np.unique(np.concatenate([left, right]))


def build_radial_cell(geom: EpsGeometry, j: int, nodes_per_segment: int = 256) -> RadialCell:
    """Full annulus+cap cell with log-graded annulus (the harmonic profile
    varies on a multiplicative scale, which is what keeps the n = 2
    exponentially small holes resolvable) and junction-graded arc."""
    ch = geom.channels[j]
    r_out = geom.outer_radius(j)
    annulus = np.geomspace(ch.d_eps, r_out, nodes_per_segment)
    arc = _graded_arc(ch.theta, nodes_per_segment)
    return RadialCell(geom.n, annulus, arc, ch.b_eps)


_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _segment_matrices(nodes: np.ndarray, wfun, mfun) -> tuple[np.ndarray, np.ndarray]:
    """Per-element conductances int_e w (phi')^2 = int_e w / h^2 and
    per-node lumped masses int m phi_i, both by 3-point Gauss (positive even
    at degenerate endpoints because the Gauss points are interior).  Raises
    ScaleError before dividing when a squared element length is below the
    smallest normal float."""
    h = np.diff(nodes)
    if not np.all(h**2 >= np.finfo(float).tiny):
        raise ScaleError("radial mesh spacing squared below the smallest normal float; increase eps")
    a, b = nodes[:-1, None], nodes[1:, None]
    x, wq = _gauss(a, b, _GL3_NODES, _GL3_WEIGHTS)
    cond = np.sum(wq * wfun(x), axis=1) / h**2
    mvals = wq * mfun(x)
    # linear hat functions on the element
    lam = (x - a) / (b - a)
    lumped = np.zeros(len(nodes))
    lumped[:-1] += np.sum(mvals * (1.0 - lam), axis=1)
    lumped[1:] += np.sum(mvals * lam, axis=1)
    return cond, lumped


def _assemble_path(cell: RadialCell) -> tuple[np.ndarray, np.ndarray]:
    """The cell as a weighted path [outer annulus ... junction ... pi] with
    its Dirichlet node removed: conductances k and lumped masses m of the
    free nodes.  Free node i joins the node before it through k[i]; k[0]
    joins it to the clamped node.  The common factor omega_{n-1} scales
    stiffness and mass alike, so it is left out."""
    n = cell.n
    k, m = _segment_matrices(cell.annulus_nodes, lambda x: x ** (n - 1), lambda x: x ** (n - 1))
    # walk the annulus outer -> inner so the clamped node is first
    k, m = k[::-1], m[::-1]
    if cell.arc_nodes is not None:
        b = cell.b_eps
        k_arc, m_arc = _segment_matrices(
            cell.arc_nodes,
            lambda x: b ** (n - 2) * np.sin(x) ** (n - 1),
            lambda x: b**n * np.sin(x) ** (n - 1),
        )
        # annulus and arc share the junction node
        k = np.concatenate([k, k_arc])
        m = np.concatenate([m[:-1], [m[-1] + m_arc[0]], m_arc[1:]])
    return k, m[1:]


def _tridiagonal(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the stiffness of the path with
    conductances k (see ``_assemble_path``)."""
    return k + np.append(k[1:], 0.0), -k[1:]


EIG_RTOL = 1e-12
# relative window in which a refined eigenvalue must stay next to its
# starting value, and in which two Sturm counts must enclose it
REFINE_WINDOW = 1e-6
_PIVMIN = 1e-300


def _inverse_iteration(
    k: np.ndarray, diag: np.ndarray, off: np.ndarray, mass: np.ndarray, shift: float, seed: int, steps: int
) -> float | None:
    """Rayleigh quotient sum k_i (u_i - u_{i-1})^2 / sum m_i u_i^2, u_{-1} = 0
    at the clamped node, of ``steps`` inverse-iteration steps at ``shift``
    from a seeded random start.  Both sums have only nonnegative terms, so
    the quotient is relatively accurate even though the pencil entries span
    many orders of magnitude.  LAPACK dgtsv solves the shifted pencil (the
    routine ``solve_banded`` dispatches to, without its argument checks).  A
    shifted pencil that is exactly singular (as at some dstebz predictions)
    is shifted one ulp up and solved once more; None when that is singular
    too."""
    rng = np.random.default_rng(0x5EED + seed)
    start = rng.standard_normal(len(diag))
    start /= math.sqrt(float(np.sum(mass * start * start)))
    for s in (shift, math.nextafter(shift, math.inf)):
        d = diag - s * mass
        u = start
        for _ in range(steps):
            # dgtsv overwrites copies of off and d, and the temporary right side
            u, info = dgtsv(off, d, off, mass * u, overwrite_b=True)[3:]
            if info != 0:
                break
            u /= math.sqrt(float(np.sum(mass * u * u)))
        else:
            break
    else:
        return None
    return float(np.sum(k * np.diff(u, prepend=0.0) ** 2)) / float(np.sum(mass * u * u))


def _refine_eigenvalue(
    k: np.ndarray, diag: np.ndarray, off: np.ndarray, mass: np.ndarray, lam: float, seed: int
) -> float | None:
    """Polish a pencil eigenvalue estimate by two inverse-iteration steps and
    the Rayleigh quotient (``_inverse_iteration``).  None when the shifted
    pencil is singular or the result leaves REFINE_WINDOW."""
    refined = _inverse_iteration(k, diag, off, mass, lam, seed, 2)
    window = REFINE_WINDOW * (abs(lam) + 1e-300)
    if refined is None or not math.isfinite(refined) or abs(refined - lam) > window:
        return None
    return refined


# inverse-iteration steps that turn a shift transferred from a coarser mesh
# into a prediction
TRANSFER_STEPS = 3


def _transfer_predictions(
    k: np.ndarray, diag: np.ndarray, off: np.ndarray, mass: np.ndarray, shifts: Sequence[float]
) -> np.ndarray:
    """Predict the first len(shifts) eigenvalues from estimates of them, such
    as the eigenvalues of the same cell on a coarser mesh: the Rayleigh
    quotient of TRANSFER_STEPS inverse-iteration steps at each shift, NaN
    where the shifted pencil is singular."""
    out = [_inverse_iteration(k, diag, off, mass, shift, kk, TRANSFER_STEPS)
           for kk, shift in enumerate(shifts, start=1)]
    return np.array([math.nan if lam is None else lam for lam in out])


def _capsule_address(capsule: object) -> int:
    """The C pointer a PyCapsule holds, looked up under the capsule's own name."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return pointer(capsule, name(capsule))


# LAPACK's bisection kernel dlaebz, as scipy's cython_lapack exports it: all
# 20 arguments by reference (IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL,
# RELTOL, PIVMIN, D, E, E2, NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO)
_DLAEBZ = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)(
    _capsule_address(cython_lapack.__pyx_capi__["dlaebz"])
)


class _SturmPencil:
    """The tridiagonal pencil (K, M) and the dlaebz arguments that count its
    eigenvalues below a shift.  dlaebz reads raw addresses, so the instance
    owns every array they point into for as long as it lives."""

    __slots__ = ("diag", "mass", "d", "e2", "ints", "reals", "ab", "nab", "scratch", "iscratch", "args")

    def __init__(self, diag: np.ndarray, off: np.ndarray, mass: np.ndarray):
        if not (diag.ndim == 1 and mass.shape == diag.shape and off.shape == (len(diag) - 1,)):
            raise ValueError(f"pencil of shapes {diag.shape}, {off.shape}, {mass.shape}")
        self.diag, self.mass = diag, mass
        self.d = np.empty(len(diag))  # D = diag - lam * mass, rewritten per count
        self.e2 = np.square(off, dtype=float)  # a new contiguous float64 array, as dlaebz reads it
        # IJOB = 1 (count at both ends of each interval), NITMAX, N, MMAX = 1, MINP = 1, NBMIN
        self.ints = np.array([1, 0, len(diag), 1, 1, 0], dtype=np.intc)
        self.reals = np.array([0.0, 0.0, _PIVMIN])  # ABSTOL, RELTOL, PIVMIN
        self.ab = np.zeros(2)  # the interval [0, 0]: the shift is in D
        self.nab = np.zeros(2, dtype=np.intc)
        self.scratch = np.zeros(4)  # E, C, WORK: IJOB = 1 reads none of them
        self.iscratch = np.zeros(4, dtype=np.intc)  # NVAL, MOUT, IWORK, INFO
        i, r = self.ints.ctypes.data, self.reals.ctypes.data
        s, si = self.scratch.ctypes.data, self.iscratch.ctypes.data
        ni, nr = self.ints.itemsize, self.reals.itemsize
        self.args = (
            *(i + j * ni for j in range(6)), r, r + nr, r + 2 * nr,
            self.d.ctypes.data, s, self.e2.ctypes.data, si, self.ab.ctypes.data, s + nr,
            si + ni, self.nab.ctypes.data, s + 2 * nr, si + 2 * ni, si + 3 * ni,
        )


def _sturm_count(pencil: _SturmPencil, lam: float) -> int:
    """Number of pencil eigenvalues below ``lam``: negative pivots of the
    LDL^T factorization of K - lam*M (Wilkinson-guarded).  dlaebz with IJOB
    = 1 runs the recurrence p_j = D_j - E2_(j-1) / p_(j-1) - 0 on D = diag -
    lam*mass and E2 = off^2, replaces |p| < PIVMIN by -PIVMIN and counts p <=
    0.  These are the operations of the guarded recurrence written out in
    Python, rounded alike, so the counts are the same.  A shift that
    overflows lam*mass counts as it would in Python, without a warning."""
    with np.errstate(over="ignore"):
        np.multiply(pencil.mass, lam, out=pencil.d)
        np.subtract(pencil.diag, pencil.d, out=pencil.d)
    _DLAEBZ(*pencil.args)
    return int(pencil.nab[0])


def _predict_eigenvalues(diag: np.ndarray, off: np.ndarray, mass: np.ndarray, k: int) -> np.ndarray:
    """First k eigenvalues of the standard form M^-1/2 K M^-1/2 by LAPACK
    dstebz, or k NaNs when the form is not finite or dstebz fails.  Only a
    prediction: on the graded meshes it sits up to 4e-8 (relative) from
    the pencil eigenvalue, 3e-6 at n = 3, eps = 0.001.  The absolute
    tolerance is the smallest normal float; a tolerance <= 0 would mean
    ulp * ||T||, which swamps the low eigenvalues."""
    with np.errstate(over="ignore"):
        d = diag / mass
        root_mass = np.sqrt(mass)
        e = off / (root_mass[:-1] * root_mass[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        return np.full(k, math.nan)
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, k, np.finfo(float).tiny, "E")
    return w[:k] if info == 0 and m == k else np.full(k, math.nan)


def radial_eigenvalues(cell: RadialCell, k: int, shifts: Sequence[float] | None = None) -> np.ndarray:
    """First k eigenvalues of the weighted 1-D problem, ascending.

    Predict, refine, certify (after Barth, Martin & Wilkinson, Numer. Math.
    9 (1967)): dstebz on the standard form predicts the kk-th eigenvalue
    (given k ``shifts``, estimates such as the eigenvalues of a coarser
    mesh, ``_transfer_predictions`` does), ``_refine_eigenvalue`` polishes
    it to r, and ``dispersion.bracket`` grows a bracket of g = (Sturm
    count of the pencil (K, M)) - kk from r(1 -+ REFINE_WINDOW), above the
    previous eigenvalue's; the counts stay relatively accurate where the
    standard-form norm is enormous.  If the bracket had to widen,
    ``dispersion.bisect`` halves it to relative width EIG_RTOL and the
    midpoint is polished.  Without a usable prediction the bracket grows
    from the previous eigenvalue, or from min K_ii/M_ii >= lambda_1.
    Deterministic.
    """
    for size in cell.segment_sizes:
        if size < 64:
            raise ResolutionError(f"segment with {size} nodes; need >= 64 per segment")
    cond, mass = _assemble_path(cell)
    diag, off = _tridiagonal(cond)
    # a zero or subnormal lumped mass overflows K/M
    if not (np.all(np.isfinite(diag)) and np.all(mass >= np.finfo(float).tiny)):
        raise ScaleError(
            "radial pencil not representable at this scale (lumped mass below the smallest"
            " normal float or a non-finite stiffness); increase eps"
        )
    if k < 1 or k > len(diag):
        raise ResolutionError(f"k={k} eigenvalues requested from a {len(diag)}-unknown cell")
    if shifts is None:
        predictions = _predict_eigenvalues(diag, off, mass, k)
    elif len(shifts) == k:
        predictions = _transfer_predictions(cond, diag, off, mass, shifts)
    else:
        raise ValueError(f"{len(shifts)} shifts for k={k} eigenvalues")
    pencil = _SturmPencil(diag, off, mass)
    vals: list[float] = []
    floor = 0.0  # below the kk-th eigenvalue: count - kk < 0 there
    for kk, guess in enumerate(predictions.tolist(), start=1):
        g = lambda lam: _sturm_count(pencil, lam) - kk
        r = _refine_eigenvalue(cond, diag, off, mass, guess, kk) if guess > floor else None
        p = r if r is not None else (vals[-1] if vals else float(np.min(diag / mass)))
        lo, hi = bracket(g, p, REFINE_WINDOW, floor, math.inf)
        # r is certified when the first window brackets the eigenvalue; a
        # widened bracket never ends at r(1 + REFINE_WINDOW)
        if r is None or hi != r * (1.0 + REFINE_WINDOW):
            mid = bisect(g, lo, hi, 0.5 * EIG_RTOL)
            refined = _refine_eigenvalue(cond, diag, off, mass, mid, kk)
            r = mid if refined is None else refined
        vals.append(r)
        floor = lo
    return np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# reference limits and the convergence table


@dataclass(frozen=True)
class ReferenceLimits:
    lambda1_D_disk: float
    lambda2_sphere: float
    Lj_lambda2: float


def reference_limits(base: BubbleGeometry, j: int) -> ReferenceLimits:
    """Spectral data of the rescaled limit cells: the flat n-ball of radius
    base.kappa/2 (first Dirichlet eigenvalue (j_{nu,1}/(kappa/2))^2, nu =
    n/2 - 1) and the full sphere of radius b_j (first nonzero eigenvalue
    n/b^2).  At a zero x of J_nu the recurrence J_(mu-1) + J_(mu+1) =
    (2 mu/x) J_mu (DLMF 10.6.1) makes -1/x the smallest eigenvalue of the
    zero-diagonal tridiagonal with off-diagonal 1/(2 sqrt(mu (mu+1))), mu =
    nu+1 .. nu+99 (Ball, SIAM J. Sci. Comput. 21 (2000)); dstebz finds it."""
    mu = np.arange(1.0, 100.0) + (0.5 * base.n - 1.0)
    zero = -1.0 / _predict_eigenvalues(np.zeros(100), 0.5 / np.sqrt(mu * (mu + 1.0)), np.ones(100), 1)[0]
    disk = (zero / (0.5 * base.kappa)) ** 2
    b_j = base.channels[j][1]
    lam2_sphere = base.n / (b_j * b_j)
    return ReferenceLimits(float(disk), lam2_sphere, float(min(disk, lam2_sphere)))


# allowance of the min-max check lambda1 (mesh limit) <= Rayleigh bound
MIN_MAX_SLACK = 1e-10


@dataclass(frozen=True)
class RadialRow:
    """Channel j of one eps-cell at (N, 2N) nodes per segment: the first k
    eigenvalues at N, the Richardson limit of lambda1 with its gauge
    |lambda1(2N) - lambda1(N)|, lambda2 at 2N and the Rayleigh bound."""

    eps: float
    eigenvalues: tuple[float, ...]
    lambda1: float
    mesh_gauge: float
    lambda2: float
    rayleigh_upper: float

    @property
    def bounded(self) -> bool:
        """The min-max verdict: the mesh limit does not exceed the bound."""
        return self.lambda1 <= self.rayleigh_upper + MIN_MAX_SLACK


def radial_row(geom: EpsGeometry, j: int, resolution: int, k: int) -> RadialRow:
    """Solve channel j of ``geom`` at N = resolution (max(k, 2) eigenvalues,
    predicted by dstebz; the first k are reported) and 2N (two, predicted
    from the N values as shifts).  lambda1 is the Richardson mesh limit over
    (N, 2N): the scheme is second order, so the extrapolation removes the
    h^2 term, while the raw discrete value approaches the eigenvalue from
    above and would mask the min-max margin once it shrinks below the mesh
    error.  lambda1 of a k = 2 solve is the k = 1 value to within the
    certified window (bit for bit on every cell measured)."""
    coarse = radial_eigenvalues(build_radial_cell(geom, j, resolution), max(k, 2)).tolist()
    fine = radial_eigenvalues(build_radial_cell(geom, j, 2 * resolution), 2, coarse[:2]).tolist()
    lam1 = fine[0] + (fine[0] - coarse[0]) / 3.0
    gauge = abs(fine[0] - coarse[0])
    return RadialRow(geom.eps, tuple(coarse[:k]), lam1, gauge, fine[1], trial_rayleigh(geom, j).quotient)


def convergence_table(
    base: BubbleGeometry,
    j: int,
    eps_list: Sequence[float],
    resolution: int = 384,
) -> list[RadialRow]:
    """Rows of channel j along a strictly decreasing eps ladder: lambda1
    tends to sigma_j and eps^2 lambda2 to lambda2 of the rescaled limit
    cell (zonal modes)."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise GeometryError("eps_list must be strictly decreasing")
    return [radial_row(eps_scale(base, eps), j, resolution, 1) for eps in eps_list]
