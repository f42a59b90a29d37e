"""Discrete Floquet band structure on a weighted-graph period cell.

The period cell is the square [0, s]^2 minus small disks, with a truncated
sphere ("bubble") glued along each hole boundary; lumped vertex masses are
local Riemannian areas and edge weights finite-volume conductances.  Bloch
conditions u(b) = conj(theta_dir) u(a) fold the paired faces into a
Hermitian pencil; Neumann (faces free) and Dirichlet (faces clamped)
spectra enclose every theta spectrum, which is checked, not assumed.

The builder is 2-D; the theta eigensolver works for any number of paired
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from ._fmt import csv_lines
from .errors import GapForgeError, GeometryError, ResolutionError
from .intervals import IntervalSet, complement_on

DENSE_LIMIT = 256  # measured dense/sparse crossover; see README "Band solver"
ENCLOSURE_SLACK = 1e-8
_EIGSH_SEED = 0x0BADC0DE
_CERTIFY_GAP = 1e-9  # relative distance below lambda_k of the inertia count
_MAX_DEFLATIONS = 3


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the cell builder: square grid cells per side; each
    bubble gets polar rings at the flat grid spacing."""

    base_resolution: int = 64


@dataclass
class PeriodCellGraph:
    """Weighted graph with positive lumped masses, positive edge weights
    and per-direction bijections between opposite-face vertices."""

    masses: np.ndarray
    edges: np.ndarray  # (ne, 2) vertex ids
    weights: np.ndarray
    boundary_pairs: tuple[tuple[int, int, int], ...]  # (a, b, direction 1..ndim)
    ndim: int
    _fold: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def nv(self) -> int:
        return len(self.masses)

    def validate(self) -> None:
        if np.any(self.masses <= 0):
            raise GeometryError("all vertex masses must be positive")
        if np.any(self.weights <= 0):
            raise GeometryError("all edge weights must be positive")
        for d in range(1, self.ndim + 1):
            pairs = [(a, b) for a, b, dd in self.boundary_pairs if dd == d]
            if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
                raise GeometryError(f"boundary pairs in direction {d} are not a bijection")
        adj = sp.coo_matrix(
            (np.ones(len(self.edges)), (self.edges[:, 0], self.edges[:, 1])), shape=(self.nv, self.nv)
        )
        if connected_components(adj, directed=False, return_labels=False) != 1:
            raise GeometryError("period-cell graph is not connected")

    def fold_structure(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(representative index, integer shift vectors, folded dimension):
        vertex p carries value phase(p) * x[rep(p)] with
        phase(p) = prod_d conj(theta_d)^shift[p, d]."""
        if self._fold is not None:
            return self._fold
        a, b, d = np.asarray(self.boundary_pairs, dtype=int).reshape(-1, 3).T
        step = np.eye(self.ndim, dtype=int)[d - 1]  # shift[b] - shift[a] of each pair
        pairs = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(self.nv, self.nv))
        n_comp, labels = connected_components(pairs, directed=False)
        comp = labels.astype(int)  # labelled in order of each component's first vertex
        shift = np.zeros((self.nv, self.ndim), dtype=int)
        known = np.zeros(self.nv, dtype=bool)
        known[np.unique(comp, return_index=True)[1]] = True
        while True:
            fwd, back = known[a] & ~known[b], known[b] & ~known[a]
            if not (fwd.any() or back.any()):
                break
            shift[b[fwd]] = shift[a[fwd]] + step[fwd]
            shift[a[back]] = shift[b[back]] - step[back]
            known[b[fwd]] = True
            known[a[back]] = True
        if np.any(shift[b] - shift[a] != step):
            raise GeometryError("inconsistent boundary identifications")
        self._fold = (comp, shift, int(n_comp))
        return self._fold


def build_cell_graph(
    *,
    holes: Sequence[tuple[float, float, float, float]] = (),
    cell_size: float = 1.0,
    grid: GridSpec | None = None,
) -> PeriodCellGraph:
    """Finite-volume graph of the perforated square with glued bubbles.

    ``holes`` is a sequence of explicit (cx, cy, hole_radius, bubble_radius).
    Every hole must span at least 6 grid cells and stay clear of the cell
    boundary and the other holes.
    """
    grid = grid or GridSpec()
    N = grid.base_resolution
    if N < 2:
        raise ResolutionError("base resolution must be at least 2")
    h = cell_size / N
    for i, (cx, cy, r, b) in enumerate(holes):
        if 2.0 * r / h < 6.0:
            raise ResolutionError(
                f"hole {i}: diameter {2 * r} spans {2 * r / h:.1f} < 6 grid cells"
            )
        if not (r < b):
            raise GeometryError(f"hole {i}: hole radius {r} must be smaller than bubble radius {b}")
        if min(cx, cy, cell_size - cx, cell_size - cy) <= r:
            raise GeometryError(f"hole {i} touches the cell boundary")
        for k2 in range(i):
            cx2, cy2, r2, _ = holes[k2]
            if math.hypot(cx - cx2, cy - cy2) <= r + r2:
                raise GeometryError(f"holes {k2} and {i} violate the separation condition")

    # square grid vertices, minus hole interiors
    idx = -np.ones((N + 1, N + 1), dtype=int)
    masses: list[float] = []
    coords: list[tuple[float, float]] = []
    for i in range(N + 1):
        for j in range(N + 1):
            x, y = i * h, j * h
            if any(math.hypot(x - cx, y - cy) < r for cx, cy, r, _ in holes):
                continue
            fx = 0.5 if i in (0, N) else 1.0
            fy = 0.5 if j in (0, N) else 1.0
            idx[i, j] = len(masses)
            masses.append(fx * fy * h * h)
            coords.append((x, y))

    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    for i in range(N + 1):
        for j in range(N + 1):
            a = idx[i, j]
            if a < 0:
                continue
            if i < N and idx[i + 1, j] >= 0:  # x-edge; halved on y-faces
                edges.append((a, idx[i + 1, j]))
                weights.append(0.5 if j in (0, N) else 1.0)
            if j < N and idx[i, j + 1] >= 0:  # y-edge; halved on x-faces
                edges.append((a, idx[i, j + 1]))
                weights.append(0.5 if i in (0, N) else 1.0)

    for cx, cy, r, b in holes:
        _glue_bubble(masses, coords, edges, weights, idx, N, h, cx, cy, r, b)

    pairs: list[tuple[int, int, int]] = []
    for j in range(N + 1):
        pairs.append((int(idx[0, j]), int(idx[N, j]), 1))
    for i in range(N + 1):
        pairs.append((int(idx[i, 0]), int(idx[i, N]), 2))

    graph = PeriodCellGraph(
        masses=np.asarray(masses),
        edges=np.asarray(edges, dtype=int),
        weights=np.asarray(weights),
        boundary_pairs=tuple(pairs),
        ndim=2,
    )
    graph.validate()
    return graph


def _glue_bubble(masses, coords, edges, weights, idx, N, h, cx, cy, r, b):
    """Latitude-longitude graph on the truncated sphere of radius b,
    identified ring-to-ring with the hole-boundary vertices of the square
    grid (angular matching); masses are exact cell areas on the sphere."""
    # hole-boundary ring: alive square vertices that lost a neighbour
    ring: list[int] = []
    for i in range(N + 1):
        for j in range(N + 1):
            a = idx[i, j]
            if a < 0:
                continue
            nb_removed = False
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii <= N and 0 <= jj <= N and idx[ii, jj] < 0:
                    x, y = ii * h, jj * h
                    if math.hypot(x - cx, y - cy) < r:
                        nb_removed = True
            if nb_removed:
                ring.append(a)
    if len(ring) < 4:
        raise ResolutionError("hole boundary ring has fewer than 4 vertices")
    phis = np.array([math.atan2(coords[a][1] - cy, coords[a][0] - cx) for a in ring])
    order = np.argsort(phis)
    ring = [ring[k] for k in order]
    phis = phis[order]
    Q = len(ring)
    # azimuthal cell widths (non-uniform ring spacing on the square grid)
    dphi = np.empty(Q)
    for q in range(Q):
        left = phis[q] - phis[q - 1] if q > 0 else phis[0] - (phis[-1] - 2 * math.pi)
        right = phis[(q + 1) % Q] - phis[q] if q + 1 < Q else phis[0] + 2 * math.pi - phis[-1]
        dphi[q] = 0.5 * (left + right)
    gap = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))

    theta0 = math.asin(r / b)
    P = max(8, round((math.pi - theta0) * b / h))
    dth = (math.pi - theta0) / P
    angles = [theta0 + p * dth for p in range(P + 1)]

    def area(th_lo, th_hi, dp):  # exact spherical cell area
        return b * b * dp * (math.cos(th_lo) - math.cos(th_hi))

    ring_ids = [[0] * Q for _ in range(P)]  # rings p=0..P-1; pole handled apart
    ring_ids[0] = ring
    for q in range(Q):
        masses[ring[q]] += area(theta0, theta0 + 0.5 * dth, dphi[q])
    for p in range(1, P):
        for q in range(Q):
            ring_ids[p][q] = len(masses)
            masses.append(area(angles[p] - 0.5 * dth, angles[p] + 0.5 * dth, dphi[q]))
            coords.append((cx, cy))
    pole = len(masses)
    masses.append(area(math.pi - 0.5 * dth, math.pi, 2 * math.pi))
    coords.append((cx, cy))

    for p in range(P):
        th_mid = angles[p] + 0.5 * dth
        for q in range(Q):
            c_bub = math.sin(th_mid) * dphi[q] / dth
            if p == 0:
                # seam: harmonic mean with the flat-grid conductance
                w = 2.0 * 1.0 * c_bub / (1.0 + c_bub)
            else:
                w = c_bub
            target = pole if p == P - 1 else ring_ids[p + 1][q]
            edges.append((ring_ids[p][q], target))
            weights.append(w)
    for p in range(1, P):
        s = math.sin(angles[p])
        for q in range(Q):
            edges.append((ring_ids[p][q], ring_ids[p][(q + 1) % Q]))
            weights.append(dth / (s * gap[q]))


# ---------------------------------------------------------------------------
# theta spectra


def _symmetric_lu(K: sp.csr_matrix, M: np.ndarray, shift: float):
    """SuperLU factor of K - shift M with a symmetric fill-reducing ordering
    and diagonal pivots, so U's diagonal is the D of an LDL^H factorization."""
    return spla.splu(
        (K - shift * sp.diags(M)).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _count_below(K: sp.csr_matrix, M: np.ndarray, shift: float) -> int:
    """Number of pencil eigenvalues below shift: the negative pivots of
    K - shift M (Sylvester's law of inertia)."""
    lu = _symmetric_lu(K, M, shift)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise GapForgeError("inertia count needs a symmetric permutation")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _smallest_eigenvalues(K: sp.csr_matrix, M: np.ndarray, k: int) -> np.ndarray:
    """Ascending k smallest eigenvalues of the pencil (K, M) with diagonal
    mass; K drops to real arithmetic when it has no imaginary part.

    Dense ``eigh`` up to DENSE_LIMIT unknowns (and whenever k >= dim - 1).
    Above it, shift-invert Lanczos on the standard-form operator
    x -> R (K - sigma M)^{-1} R x, R = sqrt(M), from one symmetric-ordered
    SuperLU factorization and a deterministic start vector; its largest
    eigenvalues nu give lambda = sigma + 1/nu.  Single-vector Lanczos can
    miss a copy of a multiple eigenvalue, so the count below lambda_k is
    certified by inertia; eigenvalues it shows missing are found by
    re-running on the complement of the eigenvectors found so far.
    """
    dim = K.shape[0]
    if k < 1 or k > dim:
        raise GapForgeError(f"k={k} eigenvalues requested from dimension {dim}")
    if np.iscomplexobj(K) and not np.any(K.data.imag):
        K = K.real
    if dim <= DENSE_LIMIT or k >= dim - 1:
        s = 1.0 / np.sqrt(M)
        A = K.toarray() * s[:, None] * s[None, :]
        vals = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=(0, k - 1))
        return np.asarray(vals, dtype=float)
    scale = float(K.diagonal().real.sum() / M.sum())
    sigma = -1e-3 * scale - 1e-12
    lu = _symmetric_lu(K, M, sigma)
    r = np.sqrt(M)
    rng = np.random.default_rng(_EIGSH_SEED)
    v0 = rng.standard_normal(dim)
    nu = np.empty(0)
    vecs = np.empty((dim, 0), dtype=K.dtype)
    want = k
    for _ in range(1 + _MAX_DEFLATIONS):
        Q = np.linalg.qr(vecs)[0]

        def deflate(x, Q=Q):
            return x - Q @ (Q.conj().T @ x)

        op = spla.LinearOperator(
            (dim, dim), matvec=lambda x: deflate(r * lu.solve(r * deflate(x.ravel()))), dtype=K.dtype
        )
        nu_new, vecs_new = spla.eigsh(op, k=want, which="LA", v0=deflate(v0), tol=1e-10)
        nu = np.concatenate([nu, nu_new])
        vecs = np.hstack([vecs, vecs_new])
        lam = np.sort(sigma + 1.0 / nu)[:k]
        # the absolute term keeps the cut below a lambda_k that is zero to
        # rounding (k = 1 at the trivial character, Neumann spectra)
        cut = lam[-1] * (1.0 - _CERTIFY_GAP) - 1e-12 * scale
        want = _count_below(K, M, cut) - int(np.count_nonzero(lam < cut))
        if want == 0:
            return lam
        if want < 0 or len(nu) + want >= dim - 1:
            break
    raise GapForgeError(f"shift-invert Lanczos: eigenvalue count below {cut:.6g} not certified")


def _stiffness(a: np.ndarray, b: np.ndarray, w: np.ndarray, cross: np.ndarray, dim: int) -> sp.csr_matrix:
    """Edge-sum stiffness: each edge adds w to the diagonal at a and at b,
    cross at (a, b) and conj(cross) at (b, a).  Endpoint id -1 marks a
    vertex clamped to zero: its terms drop out."""
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    data = np.concatenate([w, w, cross, np.conj(cross)])
    live = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((data[live], (rows[live], cols[live])), shape=(dim, dim)).tocsr()


def folded_matrices(graph: PeriodCellGraph, theta: Sequence[complex]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Hermitian folded stiffness and folded diagonal mass for a character
    theta on the torus (|theta_d| = 1)."""
    theta = np.asarray(theta, dtype=complex)
    if len(theta) != graph.ndim:
        raise GapForgeError(f"theta must have {graph.ndim} components")
    if np.any(np.abs(np.abs(theta) - 1.0) > 1e-12):
        raise GapForgeError("theta components must have unit modulus")
    rep, shift, dim = graph.fold_structure()
    ph = np.prod(np.conj(theta)[None, :] ** shift, axis=1)
    a = graph.edges[:, 0]
    b = graph.edges[:, 1]
    w = graph.weights
    ra, rb = rep[a], rep[b]
    K = _stiffness(ra, rb, w.astype(complex), -w * np.conj(ph[a]) * ph[b], dim)
    # duplicate-summation order can differ between (i, j) and (j, i) when
    # several folded edges land on one entry; (K + K^H)/2 is exactly
    # Hermitian in floating point and within one ulp of the raw sum
    K = (K + K.conj().T) * 0.5
    M = np.bincount(rep, weights=graph.masses, minlength=dim)
    return K, M


def theta_spectrum(graph: PeriodCellGraph, theta: Sequence[complex], k: int) -> np.ndarray:
    """First k eigenvalues of the theta-periodic cell problem, ascending,
    repeated by multiplicity."""
    K, M = folded_matrices(graph, theta)
    return _smallest_eigenvalues(K, M, k)


def theta_grid(resolution: int, ndim: int) -> list[tuple[complex, ...]]:
    """Uniform character grid {exp(2 pi i p / resolution)}^ndim in a fixed
    deterministic order.  The roots are exactly closed under conjugation
    (root[-p] = conj root[p]) and exactly real at p = 0 and 2p = resolution,
    so real characters fold to real matrices."""
    if resolution < 2:
        raise GapForgeError("theta resolution must be >= 2")
    roots = [
        complex(math.cos(2 * math.pi * p / resolution), math.sin(2 * math.pi * p / resolution))
        for p in range(resolution // 2 + 1)
    ]
    if resolution % 2 == 0:
        roots[-1] = -1.0 + 0.0j
    roots += [roots[resolution - p].conjugate() for p in range(len(roots), resolution)]
    return [tuple(c) for c in product(roots, repeat=ndim)]


@dataclass(frozen=True)
class BandStructure:
    theta_points: tuple[tuple[complex, ...], ...]
    eigen_table: np.ndarray  # (num theta, K)
    bands: tuple[tuple[float, float], ...]

    def to_csv_lines(self) -> list[str]:
        ndim = len(self.theta_points[0])
        header = ["theta_index"] + [f"theta_{d + 1}" for d in range(ndim)] + ["k", "lambda"]
        rows = []
        for ti, (point, lams) in enumerate(zip(self.theta_points, self.eigen_table)):
            args = [math.atan2(c.imag, c.real) for c in point]
            for kk, lam in enumerate(lams, start=1):
                rows.append([ti, *args, kk, float(lam)])
        return csv_lines(header, rows)


def band_structure(graph: PeriodCellGraph, theta_resolution: int, K: int) -> BandStructure:
    """Sweep the character grid; band k is [min_theta, max_theta] of the
    k-th eigenvalue.  Sampled bands only widen under grid refinement, so
    the detected gaps are conservative.

    Real edge weights give K(conj theta) = conj K(theta), so the two
    characters share a spectrum: only one of each pair {theta, conj theta}
    is solved, and its row is copied to the other.
    """
    points = theta_grid(theta_resolution, graph.ndim)
    where = {point: i for i, point in enumerate(points)}  # the grid is closed under conj
    table: list[np.ndarray] = []
    for i, point in enumerate(points):
        j = where[tuple(c.conjugate() for c in point)]
        table.append(table[j] if j < i else theta_spectrum(graph, point, K))
    eigen_table = np.vstack(table)
    bands = tuple(
        (float(eigen_table[:, kk].min()), float(eigen_table[:, kk].max())) for kk in range(K)
    )
    return BandStructure(tuple(points), eigen_table, bands)


def detect_gaps(bs: BandStructure, L: float) -> IntervalSet:
    """Open gaps inside [0, min(L, b_K)]; nothing is reported above the
    last computed band (unknown territory)."""
    return complement_on(bs.bands, min(float(L), bs.bands[-1][1]))


@dataclass(frozen=True)
class EnclosureReport:
    neumann: np.ndarray
    dirichlet: np.ndarray
    enclosure_ok: bool


def neumann_spectrum(graph: PeriodCellGraph, k: int) -> np.ndarray:
    """Unfolded cell with free boundary pairs (both copies kept)."""
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    K = _stiffness(a, b, graph.weights, -graph.weights, graph.nv)
    return _smallest_eigenvalues(K, graph.masses, k)


def dirichlet_spectrum(graph: PeriodCellGraph, k: int) -> np.ndarray:
    """Cell with every face vertex clamped to zero."""
    clamped = np.zeros(graph.nv, dtype=bool)
    for va, vb, _ in graph.boundary_pairs:
        clamped[va] = clamped[vb] = True
    keep = ~clamped
    new_id = -np.ones(graph.nv, dtype=int)
    dim = int(keep.sum())
    new_id[keep] = np.arange(dim)
    a, b = new_id[graph.edges[:, 0]], new_id[graph.edges[:, 1]]
    K = _stiffness(a, b, graph.weights, -graph.weights, dim)
    return _smallest_eigenvalues(K, graph.masses[keep], k)


def nd_enclosure(graph: PeriodCellGraph, bs: BandStructure) -> EnclosureReport:
    """Check lambda_k^N <= lambda_k^theta <= lambda_k^D on every row of the
    swept band table of ``graph`` (slack ENCLOSURE_SLACK)."""
    table = bs.eigen_table
    neu = neumann_spectrum(graph, table.shape[1])
    diri = dirichlet_spectrum(graph, table.shape[1])
    ok = bool(
        np.all(table >= neu[None, :] - ENCLOSURE_SLACK)
        and np.all(table <= diri[None, :] + ENCLOSURE_SLACK)
    )
    return EnclosureReport(neu, diri, ok)
