"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from gapforge.bands import PeriodCellGraph
from gapforge.cell import RadialCell, _assemble_path, _graded_arc
from gapforge.design import HomogenizedModel
from gapforge.errors import GeometryError
from gapforge.intervals import ENDPOINT_TOL, GapSpec, IntervalSet, validate_gap_spec


def random_gap_spec(rng: np.random.Generator, m: int, n: int, lo: float = 0.0, hi: float = 100.0,
                    min_sep: float = 0.05) -> GapSpec:
    """Random strict chain of 2m endpoints in (lo, hi) with a minimum
    separation to keep the design formulas well away from degeneracy."""
    while True:
        pts = np.sort(rng.uniform(lo + min_sep, hi, size=2 * m))
        if np.all(np.diff(pts) > min_sep):
            break
    pairs = [(float(pts[2 * j]), float(pts[2 * j + 1])) for j in range(m)]
    return validate_gap_spec(pairs, n)


def sphere_measure_oracle(k: int) -> float:
    """omega_k by the recursion omega_j = omega_{j-1} * int_0^pi sin^{j-1},
    seeded at omega_0 = 2 (two points); quadrature only, no Gamma."""
    om = 2.0
    for j in range(1, k + 1):
        val, _ = quad(lambda t, p=j - 1: math.sin(t) ** p, 0.0, math.pi, epsabs=1e-13, epsrel=1e-12)
        om *= val
    return om


def angular_integral_F_quad(theta: float, n: int) -> float:
    """int_{pi/2}^{theta} sin^(1-n) by adaptive quadrature over geometric
    breakpoints (factor 4 toward theta, where the integrand varies on a
    multiplicative scale); the reference for the closed form."""
    half_pi = 0.5 * math.pi
    if theta > half_pi:
        return -angular_integral_F_quad(math.pi - theta, n)
    pts = [theta]
    while pts[-1] * 4.0 < half_pi / 4.0:
        pts.append(pts[-1] * 4.0)
    pts.append(half_pi)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(lambda t: math.sin(t) ** (1 - n), a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return -total


def hausdorff_grid_oracle(a: IntervalSet, b: IntervalSet, window: tuple[float, float],
                          step: float = 1e-4) -> float:
    """Brute-force Hausdorff distance: sample each closed set on a dense
    grid and take the worst pointwise distance to the other set."""
    lo, hi = window

    def points(s: IntervalSet) -> np.ndarray:
        chunks = []
        for p, q in s.clipped(lo, hi):
            count = max(2, int(round((q - p) / step)) + 1)
            chunks.append(np.linspace(p, q, count))
        return np.concatenate(chunks)

    def dist_to(xs: np.ndarray, s: IntervalSet) -> np.ndarray:
        best = np.full(len(xs), np.inf)
        for p, q in s.clipped(lo, hi):
            d = np.where(xs < p, p - xs, np.where(xs > q, xs - q, 0.0))
            best = np.minimum(best, d)
        return best

    d_ab = dist_to(points(a), b).max()
    d_ba = dist_to(points(b), a).max()
    return float(max(d_ab, d_ba))


def small_torus_graph(rng, n=3):
    """n x n grid with random positive masses/weights and both directions
    paired; n=3 gives 9 vertices, small enough for the dense oracle."""
    idx = lambda i, j: i * n + j
    edges, weights = [], []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append([idx(i, j), idx(i + 1, j)])
                weights.append(float(rng.uniform(0.2, 2.0)))
            if j + 1 < n:
                edges.append([idx(i, j), idx(i, j + 1)])
                weights.append(float(rng.uniform(0.2, 2.0)))
    pairs = tuple((idx(0, j), idx(n - 1, j), 1) for j in range(n)) + tuple(
        (idx(i, 0), idx(i, n - 1), 2) for i in range(n)
    )
    return PeriodCellGraph(
        masses=rng.uniform(0.3, 2.0, size=n * n),
        edges=np.asarray(edges),
        weights=np.asarray(weights),
        boundary_pairs=pairs,
        ndim=2,
    )


def dense_folded_oracle(graph, theta, k):
    """Independent fold: resolve phases by fixpoint iteration over the
    boundary pairs, project the dense unfolded pencil with S, and solve
    the generalized eigenproblem directly."""
    nv = graph.nv
    phase = [None] * nv
    col = [None] * nv
    is_b = {b for _, b, _ in graph.boundary_pairs}
    reps = [v for v in range(nv) if v not in is_b]
    for c, v in enumerate(reps):
        phase[v] = 1.0 + 0.0j
        col[v] = c
    changed = True
    while changed:
        changed = False
        for a, b, d in graph.boundary_pairs:
            if phase[a] is not None and phase[b] is None:
                phase[b] = phase[a] * np.conj(theta[d - 1])
                col[b] = col[a]
                changed = True
    assert all(p is not None for p in phase)
    S = np.zeros((nv, len(reps)), dtype=complex)
    for v in range(nv):
        S[v, col[v]] = phase[v]
    K = np.zeros((nv, nv), dtype=complex)
    for (a, b), w in zip(graph.edges, graph.weights):
        K[a, a] += w
        K[b, b] += w
        K[a, b] -= w
        K[b, a] -= w
    Kf = S.conj().T @ K @ S
    Mf = S.conj().T @ np.diag(graph.masses) @ S
    vals = scipy.linalg.eigh(Kf, Mf, eigvals_only=True)
    return np.sort(vals.real)[:k]


def reference_fold_structure(graph):
    """(component, shift, count) by the depth-first search over the
    boundary pairs that ``PeriodCellGraph.fold_structure`` used before it
    called csgraph: the frozen reference for that method."""
    nv, nd = graph.nv, graph.ndim
    comp = -np.ones(nv, dtype=int)
    shift = np.zeros((nv, nd), dtype=int)
    rel = [[] for _ in range(nv)]
    for a, b, d in graph.boundary_pairs:
        rel[a].append((b, d))
        rel[b].append((a, -d))
    n_comp = 0
    for root in range(nv):
        if comp[root] >= 0:
            continue
        comp[root] = n_comp
        stack = [root]
        while stack:
            v = stack.pop()
            for u, d in rel[v]:
                t = shift[v].copy()
                t[abs(d) - 1] += 1 if d > 0 else -1
                if comp[u] < 0:
                    comp[u] = n_comp
                    shift[u] = t
                    stack.append(u)
                elif not np.array_equal(shift[u], t):
                    raise GeometryError("inconsistent boundary identifications")
        n_comp += 1
    return comp, shift, n_comp


def inertia_count(K, M, shift):
    """Eigenvalues of the pencil (K, diag M) below shift, by Sylvester's
    law: the negative pivots of a diagonally pivoted, symmetrically
    ordered LU of K - shift M."""
    lu = spla.splu(
        (K - shift * sp.diags(M)).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return int(np.sum(lu.U.diagonal().real < 0))


def dirichlet_loop_matrix(graph):
    """Reference edge-by-edge assembly of the stiffness with every face
    vertex clamped: dense matrix and the kept vertex masses."""
    clamped = np.zeros(graph.nv, dtype=bool)
    for a, b, _ in graph.boundary_pairs:
        clamped[a] = clamped[b] = True
    new_id = -np.ones(graph.nv, dtype=int)
    new_id[~clamped] = np.arange(int((~clamped).sum()))
    dim = int((~clamped).sum())
    K = np.zeros((dim, dim))
    for (a, b), w in zip(graph.edges, graph.weights):
        ia, ib = new_id[a], new_id[b]
        if ia >= 0:
            K[ia, ia] += w
        if ib >= 0:
            K[ib, ib] += w
        if ia >= 0 and ib >= 0:
            K[ia, ib] -= w
            K[ib, ia] -= w
    return K, graph.masses[~clamped]


def reference_complement_of_bands(bands, top):
    """Band-gap complement as the band module computed it before it used
    ``intervals.complement_on``: the frozen reference for that function
    on band tables with L = b_K or L inside a band."""
    merged = []
    for lo, hi in sorted(bands):
        if merged and lo - merged[-1][1] <= ENDPOINT_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    gaps = []
    cursor = 0.0
    for i, (lo, hi) in enumerate(merged):
        tol = ENDPOINT_TOL * max(1.0, top) if i == 0 else ENDPOINT_TOL
        if lo > cursor + tol and lo <= top:
            gaps.append((cursor, min(lo, top)))
        cursor = max(cursor, hi)
        if cursor >= top:
            break
    return IntervalSet(tuple(gaps))


def random_band_table(rng):
    """Bands (min_theta, max_theta) of K sorted eigenvalue columns: both
    edge sequences nondecreasing, the first edge 0 to rounding, and
    overlapping, touching (within ENDPOINT_TOL), separated and flat bands
    all drawn."""
    lo = float(rng.choice([0.0, 1e-12, -1e-12, 3e-12, -3e-12, 5e-12]))
    hi = lo + float(rng.uniform(0.01, 5.0))
    bands = [(lo, hi)]
    for _ in range(int(rng.integers(0, 8))):
        kind = rng.integers(0, 3)
        if kind == 0:
            lo = float(rng.uniform(lo, hi))
        elif kind == 1:
            lo = hi + float(rng.choice([0.0, 1e-13, 5e-13, 1e-12, 2e-12]))
        else:
            lo = hi + float(rng.uniform(0.01, 5.0))
        width = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 5.0))
        hi = max(hi, lo + width)
        bands.append((lo, hi))
    return bands


def level_set_roots_via_polynomial(model: HomogenizedModel, a: float) -> tuple[float, ...]:
    """Cross-check route for ``dispersion.level_set_roots``: clear
    denominators to the degree-(m+1) polynomial

        lambda * [prod_k (sigma_k - lambda) + sum_j sigma_j rho_j prod_{k!=j} (...)]
            - a * prod_k (sigma_k - lambda) = 0

    and return its real roots (poles cannot be roots for a >= 0 unless the
    numerator vanishes there too, which the valid-model assumptions exclude).
    """
    sig = np.asarray(model.sigma)
    rho = np.asarray(model.rho)
    prod_all = np.array([1.0])
    for s in sig:
        prod_all = np.polymul(prod_all, np.array([-1.0, s]))  # (s - lambda)
    acc = prod_all.copy()
    for j in range(model.m):
        pj = np.array([1.0])
        for k in range(model.m):
            if k != j:
                pj = np.polymul(pj, np.array([-1.0, sig[k]]))
        acc = np.polyadd(acc, sig[j] * rho[j] * pj)
    poly = np.polysub(np.polymul(np.array([1.0, 0.0]), acc), a * prod_all)
    rts = np.roots(poly)
    real = sorted(float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1.0 + abs(r)))
    return tuple(real)


def bubble_cap_cell(n: int, b_eps: float, theta: float, nodes: int = 256) -> RadialCell:
    """Cap-only degenerate cell: Dirichlet at theta, natural at pi."""
    return RadialCell(n, None, _graded_arc(theta, nodes), b_eps)


def reference_radial_eigenvalues(cell: RadialCell, k: int) -> np.ndarray:
    """First k eigenvalues of the radial pencil as ``cell.radial_eigenvalues``
    computed them before it predicted with dstebz: bisection on Sturm counts
    from the Gershgorin bound to relative width 1e-12, then inverse iteration
    and a Rayleigh quotient, keeping the bisection midpoint when the quotient
    moves by more than 1e-6.  The frozen reference for that function."""
    diag, off, mass = _assemble_path(cell)
    diag, mass, off = diag[1:], mass[1:], off[1:]
    Kd, Ke, Md = diag.tolist(), off.tolist(), mass.tolist()

    def count(lam):
        c, p = 0, Kd[0] - lam * Md[0]
        if abs(p) < 1e-300:
            p = -1e-300
        c += p < 0.0
        for i in range(1, len(Kd)):
            p = (Kd[i] - lam * Md[i]) - Ke[i - 1] * Ke[i - 1] / p
            if abs(p) < 1e-300:
                p = -1e-300
            c += p < 0.0
        return c

    def refine(lam, seed):
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
                    u = scipy.linalg.solve_banded((1, 1), ab, mass * u)
                    u /= math.sqrt(float(np.sum(mass * u * u)))
                break
            except np.linalg.LinAlgError:
                shift = lam * (1.0 - 1e-10 * (attempt + 1))
        bulk = float(np.sum(-off * (u[:-1] - u[1:]) ** 2))
        residual_diag = diag.copy()
        residual_diag[:-1] += off
        residual_diag[1:] += off
        edge = float(np.sum(np.maximum(residual_diag, 0.0) * u * u))
        refined = (bulk + edge) / float(np.sum(mass * u * u))
        if not math.isfinite(refined) or abs(refined - lam) > 1e-6 * (abs(lam) + 1e-300):
            return lam
        return refined

    hi0 = max(
        (Kd[i] + (abs(Ke[i - 1]) if i > 0 else 0.0) + (abs(Ke[i]) if i < len(Ke) else 0.0))
        / Md[i]
        for i in range(len(Kd))
    )
    vals = []
    lo_floor = 0.0
    for kk in range(1, k + 1):
        lo, hi = lo_floor, hi0
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if count(mid) >= kk:
                hi = mid
            else:
                lo = mid
        vals.append(refine(0.5 * (lo + hi), kk))
        lo_floor = lo
    return np.asarray(vals, dtype=float)
