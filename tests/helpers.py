"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.special import jv

from gapforge.bands import PeriodCellGraph, _one_blas_thread, _square_symmetry_candidates
from gapforge.cell import RadialCell, _assemble_path
from gapforge.design import HomogenizedModel
from gapforge.errors import GeometryError, PoleError
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


def dense_branch_as_first_written(K: sp.csr_matrix, M: np.ndarray, k: int) -> np.ndarray:
    """The dense branch of ``bands._smallest_eigenvalues`` as first written:
    scaled copies of ``K.toarray()``, which ``eigh`` copies once more into
    Fortran order.  The frozen reference for the one-copy branch, which must
    match it bit for bit."""
    if np.iscomplexobj(K) and not np.any(K.data.imag):
        K = K.real
    with _one_blas_thread():
        s = 1.0 / np.sqrt(M)
        A = K.toarray() * s[:, None] * s[None, :]
        vals = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=(0, k - 1))
    return np.asarray(vals, dtype=float)


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


def random_holes(rng: np.random.Generator, m: int, N: int) -> list[tuple[float, float, float, float]]:
    """m holes (cx, cy, hole radius, bubble radius) on the unit cell that
    span at least 6 cells of an N x N grid and stay a grid step clear of
    the faces and of each other."""
    h = 1.0 / N
    holes: list[tuple[float, float, float, float]] = []
    while len(holes) < m:
        r = float(rng.uniform(3.0 * h, max(3.0 * h, 0.2)))
        cx, cy = (float(c) for c in rng.uniform(r + h, 1.0 - r - h, size=2))
        if all(math.hypot(cx - x, cy - y) > r + s + h for x, y, s, _ in holes):
            holes.append((cx, cy, r, float(rng.uniform(1.05 * r, 0.45))))
    return holes


def reference_cell_graph(holes, N):
    """``bands.build_cell_graph`` on the unit cell as it was before it
    labelled the grid: point-by-point passes for the vertices and edges, a
    full-grid scan per hole ring that re-tests hole membership, and bubbles
    glued by appending to shared lists.  The frozen reference for that
    function; it does not check its input."""
    h = 1.0 / N
    idx = -np.ones((N + 1, N + 1), dtype=int)
    masses: list[float] = []
    for i in range(N + 1):
        for j in range(N + 1):
            x, y = i * h, j * h
            if any(math.hypot(x - cx, y - cy) < r for cx, cy, r, _ in holes):
                continue
            fx = 0.5 if i in (0, N) else 1.0
            fy = 0.5 if j in (0, N) else 1.0
            idx[i, j] = len(masses)
            masses.append(fx * fy * h * h)

    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    for i in range(N + 1):
        for j in range(N + 1):
            a = idx[i, j]
            if a < 0:
                continue
            if i < N and idx[i + 1, j] >= 0:
                edges.append((a, idx[i + 1, j]))
                weights.append(0.5 if j in (0, N) else 1.0)
            if j < N and idx[i, j + 1] >= 0:
                edges.append((a, idx[i, j + 1]))
                weights.append(0.5 if i in (0, N) else 1.0)

    def hole_ring(cx, cy, r):
        ring, phis = [], []
        for i in range(N + 1):
            for j in range(N + 1):
                a = idx[i, j]
                if a < 0:
                    continue
                nb_removed = False
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii <= N and 0 <= jj <= N and idx[ii, jj] < 0:
                        if math.hypot(ii * h - cx, jj * h - cy) < r:
                            nb_removed = True
                if nb_removed:
                    ring.append(a)
                    phis.append(math.atan2(j * h - cy, i * h - cx))
        order = np.argsort(phis)
        return [ring[k] for k in order], np.asarray(phis)[order]

    def glue_bubble(ring, phis, P, r, b):
        Q = len(ring)
        dphi = np.empty(Q)
        for q in range(Q):
            left = phis[q] - phis[q - 1] if q > 0 else phis[0] - (phis[-1] - 2 * math.pi)
            right = phis[(q + 1) % Q] - phis[q] if q + 1 < Q else phis[0] + 2 * math.pi - phis[-1]
            dphi[q] = 0.5 * (left + right)
        gap = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))
        theta0 = math.asin(r / b)
        dth = (math.pi - theta0) / P
        angles = [theta0 + p * dth for p in range(P + 1)]

        def area(th_lo, th_hi, dp):
            return b * b * dp * (math.cos(th_lo) - math.cos(th_hi))

        ring_ids = [[0] * Q for _ in range(P)]
        ring_ids[0] = ring
        for q in range(Q):
            masses[ring[q]] += area(theta0, theta0 + 0.5 * dth, dphi[q])
        for p in range(1, P):
            for q in range(Q):
                ring_ids[p][q] = len(masses)
                masses.append(area(angles[p] - 0.5 * dth, angles[p] + 0.5 * dth, dphi[q]))
        pole = len(masses)
        masses.append(area(math.pi - 0.5 * dth, math.pi, 2 * math.pi))
        for p in range(P):
            th_mid = angles[p] + 0.5 * dth
            for q in range(Q):
                c_bub = math.sin(th_mid) * dphi[q] / dth
                w = 2.0 * 1.0 * c_bub / (1.0 + c_bub) if p == 0 else c_bub
                target = pole if p == P - 1 else ring_ids[p + 1][q]
                edges.append((ring_ids[p][q], target))
                weights.append(w)
        for p in range(1, P):
            s = math.sin(angles[p])
            for q in range(Q):
                edges.append((ring_ids[p][q], ring_ids[p][(q + 1) % Q]))
                weights.append(dth / (s * gap[q]))
        return np.asarray(ring_ids), pole

    rings = [hole_ring(cx, cy, r) for cx, cy, r, _ in holes]
    counts = [max(8, round((math.pi - math.asin(r / b)) * b / h)) for _, _, r, b in holes]
    bubbles = [glue_bubble(ring, phis, P, r, b)
               for (ring, phis), P, (_, _, r, b) in zip(rings, counts, holes)]
    pairs = [(int(idx[0, j]), int(idx[N, j]), 1) for j in range(N + 1)]
    pairs += [(int(idx[i, 0]), int(idx[i, N]), 2) for i in range(N + 1)]
    return PeriodCellGraph(
        masses=np.asarray(masses),
        edges=np.asarray(edges, dtype=int),
        weights=np.asarray(weights),
        boundary_pairs=tuple(pairs),
        ndim=2,
        symmetry_candidates=_square_symmetry_candidates(idx, bubbles, len(masses)),
    )


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


def reference_level_set_roots(model: HomogenizedModel, a: float) -> tuple[float, ...]:
    """Frozen copy of the plain bisection ``dispersion.level_set_roots`` ran
    before its roots were predicted: F is evaluated at every step, from
    pole-to-pole brackets.  The predicted solver must return these floats."""
    sig, rho = model.sigma, model.rho

    def g(lam):
        for s in sig:
            if abs(lam - s) < 1e-14 * s:
                raise PoleError(f"lambda={lam!r} is at the pole sigma={s!r}")
        total = 1.0
        for s, r in zip(sig, rho):
            total += s * r / (s - lam)
        return lam * total - a

    def bisect(lo, hi):
        assert g(lo) <= 0.0 <= g(hi)
        while hi - lo > 4e-16 * (abs(lo) + abs(hi)):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def shrink_into(pole, other, want_negative):
        step = 0.5 * (other - pole)
        for _ in range(200):
            x = pole + step
            fx = g(x)
            if (fx < 0.0) if want_negative else (fx > 0.0):
                return x
            step *= 0.5
        raise AssertionError(f"no sign change detected next to pole {pole}")

    m = model.m
    roots = []
    if a == 0.0:
        roots.append(0.0)
    elif m == 0:
        roots.append(a)
    else:
        roots.append(bisect(0.0, shrink_into(sig[0], 0.0, want_negative=False)))
    for j in range(m - 1):
        lo = shrink_into(sig[j], sig[j + 1], want_negative=True)
        hi = shrink_into(sig[j + 1], sig[j], want_negative=False)
        roots.append(bisect(lo, hi))
    if m > 0:
        hi = sig[-1] * (1.0 + sum(rho)) + sum(s * r for s, r in zip(sig, rho)) + a
        while g(hi) <= 0.0:
            hi *= 2.0
        roots.append(bisect(shrink_into(sig[-1], hi, want_negative=True), hi))
    return tuple(roots)


def disk_cell(n: int, radius: float, nodes: int = 2048) -> RadialCell:
    """Flat n-ball of the given radius: Dirichlet rim, natural centre."""
    return RadialCell(n, np.linspace(0.0, radius, nodes))


def bessel_zero_oracle(nu: float) -> tuple[float, float]:
    """Adjacent floats (lo, hi) with J_nu(lo) > 0 >= J_nu(hi) around the
    first positive zero j_{nu,1}: float bisection of ``scipy.special.jv`` on
    [nu, nu + 2 nu^(1/3) + 3], which holds that zero and no other."""
    lo, hi = nu, nu + 2.0 * nu ** (1.0 / 3.0) + 3.0
    assert jv(nu, lo) > 0.0 > jv(nu, hi)
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            return lo, hi
        if jv(nu, mid) > 0.0:
            lo = mid
        else:
            hi = mid


def exact_rayleigh_quotient(cell: RadialCell, lam: float) -> Fraction:
    """Rayleigh quotient sum k_i (u_i - u_{i-1})^2 / sum m_i u_i^2 (u_{-1} = 0)
    of the radial path, in exact rational arithmetic on its float conductances
    and masses, for the float vector u of three inverse-iteration steps at
    the shift lam."""
    cond, mass = _assemble_path(cell)
    ab = np.zeros((3, len(mass)))
    ab[0, 1:] = ab[2, :-1] = -cond[1:]
    ab[1] = cond + np.append(cond[1:], 0.0) - lam * mass
    u = np.ones(len(mass))
    for _ in range(3):
        u = scipy.linalg.solve_banded((1, 1), ab, mass * u)
        u /= np.max(np.abs(u))
    k, m, x = ([Fraction(v) for v in a.tolist()] for a in (cond, mass, u))
    du = [x[0]] + [b - a for a, b in zip(x[:-1], x[1:])]
    return sum(ki * d * d for ki, d in zip(k, du)) / sum(mi * v * v for mi, v in zip(m, x))


def sturm_count_as_first_written(Kd: list[float], Ke: list[float], Md: list[float], lam: float) -> int:
    """``cell._sturm_count`` as first written: the Wilkinson-guarded LDL^T
    recurrence of K - lam*M in Python floats, counting negative pivots.  The
    oracle of the dlaebz count, which must match it exactly."""
    count = 0
    p = Kd[0] - lam * Md[0]
    if abs(p) < 1e-300:
        p = -1e-300
    if p < 0.0:
        count += 1
    for i in range(1, len(Kd)):
        p = (Kd[i] - lam * Md[i]) - Ke[i - 1] * Ke[i - 1] / p
        if abs(p) < 1e-300:
            p = -1e-300
        if p < 0.0:
            count += 1
    return count


def reference_radial_eigenvalues(cell: RadialCell, k: int) -> np.ndarray:
    """First k eigenvalues of the radial pencil as ``cell.radial_eigenvalues``
    computed them before it predicted with dstebz: bisection on Sturm counts
    from the Gershgorin bound to relative width 1e-12, then inverse iteration
    and a Rayleigh quotient, keeping the bisection midpoint when the quotient
    moves by more than 1e-6.  The frozen reference for that function, with
    one repair: the energy of the edge to the clamped node is k[0] u[0]^2,
    not the clamped positive part of diag + off, whose rounding noise biased
    every quotient upward."""
    cond, mass = _assemble_path(cell)
    diag = cond + np.append(cond[1:], 0.0)
    off = -cond[1:]
    Kd, Ke, Md = diag.tolist(), off.tolist(), mass.tolist()
    count = lambda lam: sturm_count_as_first_written(Kd, Ke, Md, lam)

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
        edge = cond[0] * u[0] ** 2
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
