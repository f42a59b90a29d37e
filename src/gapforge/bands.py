"""Discrete Floquet band structure on a weighted-graph period cell.

The period cell is the square [0, s]^2 minus small disks, with a truncated
sphere ("bubble") glued along each hole boundary; lumped vertex masses are
local Riemannian areas and edge weights finite-volume conductances.  Bloch
conditions u(b) = conj(theta_dir) u(a) fold the paired faces into a
Hermitian pencil; Neumann (faces free) and Dirichlet (faces clamped)
spectra enclose every theta spectrum, which is checked, not assumed.
The band sweep solves one character per orbit of conjugation and of the
square symmetries that the builder proposes and the graph verifies.  Each
character is solved in real arithmetic when its pencil is real, or when a
verified involutive symmetry sends theta to conj theta, as the point
inversion does at every theta: inversion and time reversal together give a
real Bloch pencil.  A real pencil is then split into the joint +-1
eigenspaces of the verified involutions that fix theta, and its blocks are
solved under one inertia certificate.

The builder is 2-D; the theta eigensolver works for any number of paired
directions.  Results are numbers; ``cli`` lays them out as artifacts.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import GapForgeError, GeometryError, ResolutionError, ScaleError
from .intervals import IntervalSet, complement_on

DENSE_LIMIT = 256  # measured dense/sparse crossover; see README "Band solver"
ENCLOSURE_SLACK = 1e-8
_EIGSH_SEED = 0x0BADC0DE
_CERTIFY_GAP = 1e-9  # relative distance below lambda_k of the inertia count
_MAX_DEFLATIONS = 3
# first-pass values of a stabilizer block beyond its share of k: with 2,
# the demo sweep needs no top-up pass
_FIRST_PASS_EXTRA = 2
# how far from +-1 (and 0) the entries of a symmetry's matrix in the real
# pencil's coordinates may be rounded: a few ulps of its phases
_PHASE_TOL = 1e-14
# relative mass and weight mismatch a verified cell symmetry may carry; it
# moves eigenvalues by about twice as much (see band_structure)
SYMMETRY_RTOL = 1e-12
# rings x ring vertices of one bubble (the value of cli.MAX_COUNT)
MAX_BUBBLE_VERTICES = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the cell builder: square grid cells per side; each
    bubble gets polar rings at the flat grid spacing."""

    base_resolution: int = 64


@dataclass(frozen=True)
class PeriodCellGraph:
    """Weighted graph with positive lumped masses, positive edge weights
    and per-direction bijections between opposite-face vertices; checked
    and folded when it is made, with read-only arrays.

    ``symmetry_candidates`` are vertex permutations (v -> perm[v]) that may
    be symmetries of the graph; ``character_map`` checks each once, when
    the graph is made, and the solvers use only those it verifies."""

    masses: np.ndarray
    edges: np.ndarray  # (ne, 2) vertex ids
    weights: np.ndarray
    boundary_pairs: tuple[tuple[int, int, int], ...]  # (a, b, direction 1..ndim)
    ndim: int
    symmetry_candidates: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)
    _fold: tuple[np.ndarray, np.ndarray, int] = field(init=False, repr=False, compare=False)
    _symmetries: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    @property
    def nv(self) -> int:
        return len(self.masses)

    def __post_init__(self) -> None:
        for name in ("masses", "edges", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)).view())
            getattr(self, name).flags.writeable = False
        nv, edges = self.nv, self.edges
        # inf passes a test for <= 0, and so does nan
        if not np.all((self.masses > 0) & np.isfinite(self.masses)):
            raise GeometryError("all vertex masses must be positive and finite")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise GeometryError("all edge weights must be positive and finite")
        a, b, d = np.asarray(self.boundary_pairs, dtype=int).reshape(-1, 3).T
        for k in range(1, self.ndim + 1):
            if any(len(set(ends.tolist())) < len(ends) for ends in (a[d == k], b[d == k])):
                raise GeometryError(f"boundary pairs in direction {k} are not a bijection")
        if np.any((d < 1) | (d > self.ndim) | (np.minimum(a, b) < 0) | (np.maximum(a, b) >= nv)):
            raise GeometryError(f"boundary pair ids must be in [0, {nv}) and directions in 1..{self.ndim}")
        if edges.ndim != 2 or edges.shape[1] != 2 or np.any((edges < 0) | (edges >= nv)):
            raise GeometryError(f"edges must be pairs of vertex ids in [0, {nv})")
        adj = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(nv, nv))
        if connected_components(adj, directed=False, return_labels=False) != 1:
            raise GeometryError("period-cell graph is not connected")
        if len(self.weights) != len(edges):
            raise GeometryError(f"{len(self.weights)} edge weights for {len(edges)} edges")
        step = np.eye(self.ndim, dtype=int)[d - 1]  # shift[b] - shift[a] of each pair
        pairs = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(nv, nv))
        n_comp, labels = connected_components(pairs, directed=False)
        comp = labels.astype(int)  # labelled in order of each component's first vertex
        shift = np.zeros((nv, self.ndim), dtype=int)
        known = np.zeros(nv, dtype=bool)
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
        comp.flags.writeable = shift.flags.writeable = False
        object.__setattr__(self, "_fold", (comp, shift, int(n_comp)))
        verdicts = ((perm, character_map(self, perm)) for perm in self.symmetry_candidates)
        object.__setattr__(self, "_symmetries", tuple((perm, *m) for perm, m in verdicts if m is not None))

    def fold_structure(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(representative index, integer shift vectors, folded dimension):
        vertex p carries value phase(p) * x[rep(p)] with
        phase(p) = prod_d conj(theta_d)^shift[p, d]."""
        return self._fold

    def verified_symmetries(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(perm, target direction, sign) of each symmetry candidate that
        ``character_map`` verified when the graph was made."""
        return self._symmetries


def _close(x: np.ndarray, y: np.ndarray) -> bool:
    return bool(np.all(np.abs(x - y) <= SYMMETRY_RTOL * np.abs(y)))


def character_map(graph: PeriodCellGraph, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(target direction, sign) per direction if the vertex permutation
    ``perm`` is a symmetry of ``graph``, else None.

    A symmetry is a bijection that keeps every mass and edge weight to
    SYMMETRY_RTOL relative and sends the boundary pairs of each direction
    d onto those of one direction d', all as (perm a, perm b, d') or all as
    (perm b, perm a, d').  A theta-periodic u then gives the theta'-periodic
    u o perm^-1 with theta'_{d'} = theta_d (sign +1) or conj theta_d
    (sign -1); directions are 0-based.
    """
    nv = graph.nv
    if not np.array_equal(np.sort(perm), np.arange(nv)) or not _close(graph.masses[perm], graph.masses):
        return None
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    key = np.minimum(a, b) * nv + np.maximum(a, b)
    moved = np.minimum(perm[a], perm[b]) * nv + np.maximum(perm[a], perm[b])
    order, moved_order = np.argsort(key), np.argsort(moved)
    if np.any(np.diff(key[order]) == 0) or not np.array_equal(key[order], moved[moved_order]):
        return None
    if not _close(graph.weights[moved_order], graph.weights[order]):
        return None
    direction = {(va, vb): d for va, vb, d in graph.boundary_pairs}
    image: dict[int, tuple[int, int]] = {}
    for va, vb, d in graph.boundary_pairs:
        pa, pb = int(perm[va]), int(perm[vb])
        if (pa, pb) in direction:
            got = (direction[pa, pb], 1)
        elif (pb, pa) in direction:
            got = (direction[pb, pa], -1)
        else:
            return None
        if image.setdefault(d, got) != got:
            return None
    dirs = list(range(1, graph.ndim + 1))
    if sorted(image) != dirs or sorted(image[d][0] for d in dirs) != dirs:
        return None
    target, sign = np.array([image[d] for d in dirs]).T
    return target - 1, sign


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
    # the grid's masses scale as h^2 and sum to cell_size^2; the pencil's
    # entries scale as 1/h^2 (4/h^2 on the flat grid's diagonal), kept a
    # factor 4 below the largest float.  A huge bubble radius is named by
    # the MAX_BUBBLE_VERTICES check below.
    if not (math.isfinite(cell_size * cell_size) and h * h > 16.0 / sys.float_info.max):
        raise ScaleError(
            f"cell_size {cell_size} with {N} grid cells per side leaves the float range; rescale cell_size"
        )

    # each grid point gets the index of the hole that contains it, or -1.
    # Only points near a hole are tested, with math.hypot: numpy's hypot
    # picks its loop per CPU and can round a boundary point the other way
    x = np.arange(N + 1) * h
    label = np.full((N + 1, N + 1), -1)
    for k, (cx, cy, r, _) in enumerate(holes):
        near_i = np.flatnonzero(np.abs(x - cx) < r + h)
        near_j = np.flatnonzero(np.abs(x - cy) < r + h)
        for i in near_i.tolist():
            for j in near_j.tolist():
                if math.hypot(i * h - cx, j * h - cy) < r:
                    label[i, j] = k

    # square grid vertices in row-major order, minus hole interiors
    alive = label < 0
    idx = np.full((N + 1, N + 1), -1)
    idx[alive] = np.arange(np.count_nonzero(alive))
    f = np.ones(N + 1)  # halved on the faces
    f[[0, N]] = 0.5
    fx, fy = np.meshgrid(f, f, indexing="ij")
    masses = (fx * fy * h * h)[alive]

    # each vertex's x-edge (halved on y-faces), then its y-edge (halved on x-faces)
    target = np.full((N + 1, N + 1, 2), -1)
    target[:-1, :, 0] = idx[1:, :]
    target[:, :-1, 1] = idx[:, 1:]
    conductance = np.stack([fy, fx], axis=-1)
    source = np.broadcast_to(idx[..., None], target.shape)
    is_edge = (source >= 0) & (target >= 0)
    edges = [np.stack([source[is_edge], target[is_edge]], axis=1)]
    weights = [conductance[is_edge]]

    rings = [_hole_ring(idx, label, k, h, cx, cy) for k, (cx, cy, _, _) in enumerate(holes)]
    counts = [max(8, round((math.pi - math.asin(r / b)) * b / h)) for _, _, r, b in holes]
    for k, ((ring, _), P) in enumerate(zip(rings, counts)):
        if P * len(ring) > MAX_BUBBLE_VERTICES:
            raise ResolutionError(
                f"hole {k}: bubble radius {holes[k][3]} needs {P} rings of {len(ring)} vertices,"
                f" more than {MAX_BUBBLE_VERTICES}"
            )
    bubbles = []
    for (ring, phis), P, (_, _, r, b) in zip(rings, counts, holes):
        ids, pole, area, bubble_edges, bubble_weights = _glue_bubble(ring, phis, P, r, b, len(masses))
        masses[ring] += area[: len(ring)]  # ring 0 is the hole's grid ring
        masses = np.concatenate([masses, area[len(ring):]])
        edges.append(bubble_edges)
        weights.append(bubble_weights)
        bubbles.append((ids, pole))

    pairs = [(int(idx[0, j]), int(idx[N, j]), 1) for j in range(N + 1)]
    pairs += [(int(idx[i, 0]), int(idx[i, N]), 2) for i in range(N + 1)]
    return PeriodCellGraph(
        masses=masses,
        edges=np.concatenate(edges),
        weights=np.concatenate(weights),
        boundary_pairs=tuple(pairs),
        ndim=2,
        symmetry_candidates=_square_symmetry_candidates(idx, bubbles, len(masses)),
    )


def _square_symmetry_candidates(idx: np.ndarray, bubbles, nv: int) -> tuple[np.ndarray, ...]:
    """Vertex permutations for the 7 non-trivial symmetries g of the square,
    (i, j) -> g(i, j), under which the live grid vertices are invariant.
    Bubble vertex (hole k, ring p, position q) goes to (k', p, q'), where
    g takes hole k's boundary ring onto hole k''s and its position q to q'.
    Each is only a candidate: ``character_map`` verifies it."""
    N = idx.shape[0] - 1
    I, J = np.indices(idx.shape)
    alive = idx >= 0
    positions = [{v: q for q, v in enumerate(ring_ids[0].tolist())} for ring_ids, _ in bubbles]
    candidates = []
    for swap, flip_i, flip_j in list(product((False, True), repeat=3))[1:]:
        gi, gj = (J, I) if swap else (I, J)
        image = idx[N - gi if flip_i else gi, N - gj if flip_j else gj]
        if not np.array_equal(image >= 0, alive):
            continue
        perm = np.full(nv, -1)
        perm[idx[alive]] = image[alive]
        for ring_ids, pole in bubbles:
            landed = perm[ring_ids[0]].tolist()
            for (ring2, pole2), position in zip(bubbles, positions):
                if ring2.shape == ring_ids.shape and all(v in position for v in landed):
                    perm[ring_ids[1:]] = ring2[1:, [position[v] for v in landed]]
                    perm[pole] = pole2
                    break
            else:
                break
        else:
            candidates.append(perm)
    return tuple(candidates)


def _hole_ring(idx, label, k, h, cx, cy) -> tuple[np.ndarray, np.ndarray]:
    """Live square vertices with a neighbour in hole k (``label`` == k), by
    angle about its centre (cx, cy), and those angles."""
    inside = label == k
    borders = np.zeros_like(inside)
    borders[1:] |= inside[:-1]
    borders[:-1] |= inside[1:]
    borders[:, 1:] |= inside[:, :-1]
    borders[:, :-1] |= inside[:, 1:]
    i, j = np.nonzero(borders & (idx >= 0))
    if len(i) < 4:
        raise ResolutionError("hole boundary ring has fewer than 4 vertices")
    phis = np.array([math.atan2(jj * h - cy, ii * h - cx) for ii, jj in zip(i.tolist(), j.tolist())])
    order = np.argsort(phis)
    return idx[i, j][order], phis[order]


def _glue_bubble(ring, phis, P, r, b, first):
    """Latitude-longitude graph on the truncated sphere of radius b with P
    rings, identified ring-to-ring with the hole-boundary ``ring`` of the
    square grid (angular matching); masses are exact cell areas on the
    sphere.  Returns the (P, Q) vertex ids of the rings (ring 0 is
    ``ring``, the others are numbered from ``first``), the pole's id, the
    areas of the ring vertices and then of the pole, and the bubble's
    edges and weights."""
    Q = len(ring)
    # azimuthal spacing to the next ring vertex, and cell widths (the ring
    # spacing on the square grid is non-uniform)
    gap = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))
    left = np.concatenate([[phis[0] - (phis[-1] - 2 * math.pi)], gap[:-1]])
    dphi = 0.5 * (left + gap)

    theta0 = math.asin(r / b)
    dth = (math.pi - theta0) / P
    angles = [theta0 + p * dth for p in range(P + 1)]

    def area(th_lo, th_hi, dp):  # exact spherical cell area
        return b * b * dp * (math.cos(th_lo) - math.cos(th_hi))

    ids = np.empty((P, Q), dtype=int)
    ids[0] = ring
    ids[1:] = np.arange(first, first + (P - 1) * Q).reshape(P - 1, Q)
    pole = first + (P - 1) * Q
    areas = [area(theta0, theta0 + 0.5 * dth, dphi)]
    areas += [area(angles[p] - 0.5 * dth, angles[p] + 0.5 * dth, dphi) for p in range(1, P)]
    areas.append([area(math.pi - 0.5 * dth, math.pi, 2 * math.pi)])

    # ring p to ring p + 1 (the last ring to the pole), then around rings 1..P-1
    down = np.array([math.sin(a + 0.5 * dth) for a in angles[:-1]])[:, None] * dphi / dth
    down[0] = 2.0 * down[0] / (1.0 + down[0])  # seam: harmonic mean with the flat-grid conductance 1
    around = dth / (np.array([math.sin(a) for a in angles[1:-1]])[:, None] * gap)
    below = np.vstack([ids[1:], np.full(Q, pole)])
    edges = np.concatenate([
        np.stack([ids.ravel(), below.ravel()], axis=1),
        np.stack([ids[1:].ravel(), np.roll(ids[1:], -1, axis=1).ravel()], axis=1),
    ])
    return ids, pole, np.concatenate(areas), edges, np.concatenate([down.ravel(), around.ravel()])


# ---------------------------------------------------------------------------
# theta spectra


def _find_openblas() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS copy bundled in the
    ``numpy.libs`` and ``scipy.libs`` wheel directories; empty when there is
    none (MKL, a system BLAS, another platform)."""
    found = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("lib*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for prefix, suffix in product(("scipy_openblas", "openblas"), ("64_", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    found.append((get, put))
                    break
    return found


_OPENBLAS = _find_openblas()


def _find_malloc_trim():
    """The C library's ``malloc_trim`` (glibc), which returns the free pages
    of the heap to the system, or a no-op where there is none.

    SuperLU sizes its L and U storage as a multiple of nnz(A) and takes it
    with malloc.  Once the first such block is freed, glibc raises its mmap
    threshold past that size, and the later factors come from the heap,
    where freed pages that a factor touched stay resident.  How many depends
    on where each factor lands among the long-lived blocks: the band-sweep
    peak RSS jumped by 7 MB between identical runs.  Trimming after every
    factor of a matrix with more than _TRIM_NNZ stored entries makes the
    next one start from returned pages, at about 3.5% of the demo sweep's
    time for refaulting them.  Smaller factors move the peak by well under
    a megabyte, and trimming after them costs the 16 x 16 bubble cells 8%."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return lambda pad: 0


_MALLOC_TRIM = _find_malloc_trim()
_TRIM_NNZ = 10_000  # the demo cell's folded matrix has 25908


@contextmanager
def _one_blas_thread():
    """Pin every OpenBLAS copy in ``_OPENBLAS`` to one thread and restore the
    counts read on entry.  SuperLU's triangular solves and ARPACK's level-2
    BLAS work on vectors of a few thousand entries, where a second thread
    only costs, and one thread makes the rounding independent of the
    caller's thread count."""
    counts = [get() for get, _ in _OPENBLAS]
    try:
        for _, put in _OPENBLAS:
            put(1)
        yield
    finally:
        for (_, put), n in zip(_OPENBLAS, counts):
            put(n)


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
    K - shift M (Sylvester's law of inertia).  Reading ``lu.U`` builds L and
    U as CSC copies; they go with the factor before this returns."""
    lu = _symmetric_lu(K, M, shift)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise GapForgeError("inertia count needs a symmetric permutation")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _shift_invert_pass(K, M, sigma, basis, v0, want):
    """(nu, vectors) of the ``want`` largest eigenvalues of the standard-form
    operator x -> R (K - sigma M)^{-1} R x, R = sqrt(M), restricted to the
    orthogonal complement of ``basis``.  The factor lives only for the call;
    a first pass, with no columns in ``basis``, projects nothing."""
    lu = _symmetric_lu(K, M, sigma)
    r = np.sqrt(M)
    Q = np.linalg.qr(basis)[0] if basis.shape[1] else None

    def deflate(x):
        return x if Q is None else x - Q @ (Q.conj().T @ x)

    op = spla.LinearOperator(
        K.shape, matvec=lambda x: deflate(r * lu.solve(r * deflate(x.ravel()))), dtype=K.dtype
    )
    return spla.eigsh(op, k=want, which="LA", v0=deflate(v0), tol=1e-10)


def _dense_eigenvalues(K: sp.csr_matrix, M: np.ndarray, k: int) -> np.ndarray:
    """Ascending k smallest eigenvalues of (K, M) by dense ``eigh``, on one
    n x n copy in the order LAPACK takes it, scaled in place."""
    s = 1.0 / np.sqrt(M)
    A = K.toarray(order="F")
    A *= s[:, None]
    A *= s[None, :]
    vals = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=(0, k - 1), overwrite_a=True)
    return np.asarray(vals, dtype=float)


class _LanczosBlock:
    """The eigenpairs of one sparse block (K, M) that shift-invert Lanczos
    has found so far, from a deterministic start vector."""

    def __init__(self, K: sp.csr_matrix, M: np.ndarray, sigma: float):
        self.K, self.M, self.sigma = K, M, sigma
        self.nu = np.empty(0)
        self.vecs = np.empty((K.shape[0], 0), dtype=K.dtype)
        self.v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(K.shape[0])
        self.release = _MALLOC_TRIM if K.nnz > _TRIM_NNZ else (lambda pad: 0)

    def values(self) -> np.ndarray:
        return self.sigma + 1.0 / self.nu

    def extend(self, want: int) -> None:
        """Find ``want`` more eigenpairs, on the complement of those found."""
        nu, vecs = _shift_invert_pass(self.K, self.M, self.sigma, self.vecs, self.v0, want)
        self.release(0)
        self.nu = np.concatenate([self.nu, nu])
        self.vecs = np.hstack([self.vecs, vecs])

    def missing(self, cut: float) -> int:
        """Eigenvalues below ``cut`` by inertia, minus those found below it."""
        count = _count_below(self.K, self.M, cut)
        self.release(0)
        return count - int(np.count_nonzero(self.values() < cut))


def _smallest_eigenvalues(K: sp.csr_matrix, M: np.ndarray, k: int) -> np.ndarray:
    """Ascending k smallest eigenvalues of the pencil (K, M) with diagonal
    mass: ``_block_eigenvalues`` on the one block (K, M)."""
    return _block_eigenvalues([(K, M, 1)], k)


@_one_blas_thread()
def _block_eigenvalues(blocks: Sequence[tuple[sp.csr_matrix, np.ndarray, int]], k: int) -> np.ndarray:
    """Ascending k smallest eigenvalues of a block-diagonal pencil, given as
    (K, M, copies) blocks with diagonal masses: each block stands for
    ``copies`` blocks with its spectrum.  K drops to real arithmetic when
    it has no imaginary part.

    Both bundled OpenBLAS copies run on one thread for the whole call and
    get the caller's counts back afterwards (``_one_blas_thread``).  The
    setting is process-wide: this is a batch tool with one caller at a
    time, and a BLAS call made from another thread during a solve runs on
    one thread too.

    A block is solved by dense ``eigh`` up to DENSE_LIMIT unknowns (and
    whenever it is asked for all but one of its values).  Above it,
    shift-invert Lanczos on the standard-form operator
    x -> R (K - sigma M)^{-1} R x, R = sqrt(M), from a symmetric-ordered
    SuperLU factorization and a deterministic start vector; its largest
    eigenvalues nu give lambda = sigma + 1/nu.  Single-vector Lanczos can
    miss a copy of a multiple eigenvalue, so the count below the cut
    lambda_k (1 - _CERTIFY_GAP) is certified by inertia; eigenvalues it
    shows missing are found by re-running on the complement of the
    eigenvectors found so far, and the cut moves to the new lambda_k.

    One certificate covers all blocks.  A first pass finds
    min(dim_b, ceil(k dim_b / dim) + _FIRST_PASS_EXTRA) values of each
    block (k of a single block; a dense block gives its k smallest, all it
    can contribute), at least k in all; the cut is taken below the k-th
    smallest value found over all blocks, and each sparse block gets one
    inertia count there.
    A block whose count exceeds its values below the cut gets deflated
    top-up passes and a count at the moved cut.  The cut only moves down,
    so a block that matched at a higher cut has all its eigenvalues below
    the lower one.

    At most one factorization is alive at a time: the sigma factor goes
    when Lanczos returns, before the count factors at the cut, and a re-run
    factors at sigma again (the same matrix, so the same factor).  The heap
    is trimmed after each factor of a matrix with more than _TRIM_NNZ
    stored entries goes (``_find_malloc_trim``).
    """
    blocks = [(K.real if np.iscomplexobj(K) and not np.any(K.data.imag) else K, M, n) for K, M, n in blocks]
    dim = sum(K.shape[0] * copies for K, _, copies in blocks)
    if k < 1 or k > dim:
        raise GapForgeError(f"k={k} eigenvalues requested from dimension {dim}")
    scale = float(sum(copies * K.diagonal().real.sum() for K, _, copies in blocks)
                  / sum(copies * M.sum() for _, M, copies in blocks))
    sigma = -1e-3 * scale - 1e-12
    values: list[np.ndarray] = []
    lanczos: dict[int, _LanczosBlock] = {}
    pending: dict[int, int] = {}  # sparse block -> eigenpairs to find next
    for b, (K, M, _) in enumerate(blocks):
        n = K.shape[0]
        want = k if len(blocks) == 1 else min(n, math.ceil(k * n / dim) + _FIRST_PASS_EXTRA)
        if n <= DENSE_LIMIT or want >= n - 1:
            values.append(_dense_eigenvalues(K, M, min(k, n)))
        else:
            values.append(np.empty(0))
            lanczos[b], pending[b] = _LanczosBlock(K, M, sigma), want
    for _ in range(1 + _MAX_DEFLATIONS):
        for b, want in pending.items():
            lanczos[b].extend(want)
            values[b] = lanczos[b].values()
        lam = np.sort(np.concatenate([np.tile(v, c) for v, (_, _, c) in zip(values, blocks)]))[:k]
        # the absolute term keeps the cut below a lambda_k that is zero to
        # rounding (k = 1 at the trivial character, Neumann spectra)
        cut = lam[-1] * (1.0 - _CERTIFY_GAP) - 1e-12 * scale
        short = {}
        for b in pending:
            want = lanczos[b].missing(cut)
            if want < 0 or len(lanczos[b].nu) + want >= blocks[b][0].shape[0] - 1:
                raise GapForgeError(f"shift-invert Lanczos: eigenvalue count below {cut:.6g} not certified")
            if want:
                short[b] = want
        if not short:
            return lam
        pending = short
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
    if not np.all(np.abs(np.abs(theta) - 1.0) <= 1e-12):  # NaN fails too
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


def _moved_character(theta: np.ndarray, target: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """theta' with theta'_target[d] = theta_d (sign +1) or conj theta_d (-1):
    the character a symmetry with character map (target, sign) sends theta
    to."""
    moved = np.empty_like(theta)
    moved[target] = np.where(sign > 0, theta, np.conj(theta))
    return moved


def _involutive(perm: np.ndarray) -> bool:
    return np.array_equal(perm[perm], np.arange(len(perm)))


def _class_map(graph: PeriodCellGraph, perm: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image, phase) of a symmetry on folded vectors at theta: u -> u o perm
    is x -> U x with U[c, image[c]] = phase[c] = phase(perm(r_c)), r_c the
    first vertex of class c (whose shift is 0)."""
    rep, shift, _ = graph.fold_structure()
    q = perm[np.unique(rep, return_index=True)[1]]
    return rep[q], np.prod(np.conj(theta)[None, :] ** shift[q], axis=1)


def _real_form(
    graph: PeriodCellGraph, theta: np.ndarray, K: sp.csr_matrix, M: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix | None]:
    """(A, D, V): the folded pencil (K, M) at theta in real arithmetic
    through the first verified involutive symmetry g of ``graph`` whose
    character map sends theta to conj theta, and the unitary V with
    x = conj(V) y; (K, M, None) if there is none.

    u -> conj(u o g) then maps the theta-periodic functions onto themselves
    and keeps both forms.  On folded vectors it is x -> conj(U x), U the
    monomial of ``_class_map``.  So conj K = U K U^H, and U = U^T because
    g^2 = id.  V is the block-diagonal Takagi factor U = V V^T: sqrt(d) on
    a class that g fixes, and sqrt(d / 2) [[1, i], [1, -i]] on a swapped
    pair c < image[c], d = U[c, image[c]].  In x = conj(V) y the map is
    y -> conj y, so V^T K conj(V) is real symmetric and V^T M conj(V)
    diagonal, up to the verified mismatch.  Their real parts are the pencil
    with every mass and weight averaged with its image under g; by the
    min-max argument of ``band_structure`` each eigenvalue moves by a
    factor of at most (1 + e) / (1 - e).  ``_stabilizer_blocks`` may
    average the result once more, over the symmetries that fix theta."""
    dim = K.shape[0]
    for perm, target, sign in graph.verified_symmetries():
        if not np.array_equal(_moved_character(theta, target, sign), np.conj(theta)) or not _involutive(perm):
            continue
        image, d = _class_map(graph, perm, theta)
        c = np.arange(dim)
        fixed, lo = c == image, c < image
        hi, s = image[lo], np.sqrt(0.5 * d[lo])
        rows = np.concatenate([c[fixed], c[lo], c[lo], hi, hi])
        cols = np.concatenate([c[fixed], c[lo], hi, c[lo], hi])
        data = np.concatenate([np.sqrt(d[fixed]), s, 1j * s, s, -1j * s])
        V = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
        A = (V.T @ K @ V.conj()).real
        A = ((A + A.T) * 0.5).tocsr()
        A.eliminate_zeros()
        return A, 0.5 * (M + M[image]), V
    return K, M, None


def _signed_permutation(S: sp.spmatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """(col, sign) with S[r, col[r]] = sign[r] if S is an involutive real
    signed permutation to _PHASE_TOL, else None.  S is then symmetric, so
    S e_o = sign[o] e_col[o]."""
    S = S.tocsr()
    S.data[np.abs(S.data) <= _PHASE_TOL] = 0
    S.eliminate_zeros()
    n = S.shape[0]
    if not np.all(np.diff(S.indptr) == 1):
        return None
    col, sign = S.indices, np.sign(S.data.real)
    if np.any(np.abs(S.data - sign) > _PHASE_TOL) or not np.array_equal(col[col], np.arange(n)):
        return None
    if np.any(sign * sign[col] != 1.0):
        return None
    return col, sign


def _stabilizer_blocks(
    graph: PeriodCellGraph, theta: np.ndarray, A: sp.csr_matrix, D: np.ndarray, V: sp.csr_matrix | None
) -> list[tuple[sp.csr_matrix, np.ndarray, int]]:
    """The real pencil (A, D) at theta split into (K, M, copies) blocks by
    a commuting set of up to ``graph.ndim`` verified involutive symmetries
    h whose character maps fix theta; [(A, D, 1)] if there is none.

    u -> u o h keeps the theta-periodic functions and both forms, so it
    commutes with the pencil.  In the pencil's coordinates it is the
    monomial U_h of ``_class_map`` at a real theta and V^T U_h conj(V)
    after ``_real_form``; h is used only where that is a real signed
    permutation S_h.  The S_h of commuting h commute, and block eps holds
    the joint eigenvectors with S_h = eps_h: per orbit of coordinates under
    the group they generate, the signed orbit sum with entries
    +-1/sqrt(|orbit|), where the orbit's stabilizer allows it.  These
    sums are the columns of block eps's orthonormal basis P, built as the
    signed sum over the group of each orbit's first coordinate.  The
    block's stiffness is P^T A P and its masses (P o P)^T D, the orbit
    means of D: the block diagonal of the pencil averaged over the group.
    Every group element keeps each form to the verified mismatch e, so by
    the min-max argument of ``band_structure`` the average moves each
    eigenvalue by a factor of at most (1 + e) / (1 - e).

    A verified symmetry s that fixes theta and sends every generator h_i
    to a generator, s h_i s^-1 = h_pi(i), maps block eps onto the block
    with signs eps_pi(i): the two share a spectrum up to the same mismatch,
    so only the first of such twins is kept, with a copy count."""
    fixing = [
        perm for perm, target, sign in graph.verified_symmetries()
        if np.array_equal(_moved_character(theta, target, sign), theta)
    ]
    n = A.shape[0]
    gens: list[np.ndarray] = []
    group = [np.arange(graph.nv)]
    cols, signs = [np.arange(n)], [np.ones(n)]  # group element e sends e_o to signs[e][o] e_cols[e][o]
    for perm in fixing:
        if len(gens) == graph.ndim:
            break
        if not _involutive(perm) or any(np.array_equal(perm, g) for g in group):
            continue
        if any(not np.array_equal(perm[h], h[perm]) for h in gens):
            continue
        image, d = _class_map(graph, perm, theta)
        U = sp.csr_matrix((d, (np.arange(n), image)), shape=(n, n))
        signed = _signed_permutation(U if V is None else V.T @ U @ V.conj())
        if signed is None:
            continue
        col, sgn = signed
        gens.append(perm)
        group += [perm[g] for g in group]
        cols, signs = cols + [col[c] for c in cols], signs + [s * sgn[c] for c, s in zip(cols, signs)]
    if not gens:
        return [(A, D, 1)]

    C, G = np.array(cols), np.array(signs)
    n_el = len(C)
    orbit = np.flatnonzero(C.min(axis=0) == np.arange(n))  # the first coordinate of each orbit
    entries = (C[:, orbit].ravel(), np.tile(np.arange(len(orbit)), n_el))  # (row, column) of P's terms
    # character of block b at element e: the product of its signs eps_i
    # over the generators in e; chi_b(e) chi_b(f) = chi_b(e ^ f)
    chi = np.array([[(-1.0) ** bin(b & e).count("1") for e in range(n_el)] for b in range(n_el)])

    twin = list(range(n_el))
    for s in fixing if len(gens) > 1 else ():
        s_inv = np.empty_like(s)
        s_inv[s] = np.arange(len(s))
        pi = [next((i for i, h in enumerate(gens) if np.array_equal(s[g[s_inv]], h)), None) for g in gens]
        if None in pi:
            continue
        for b in range(n_el):
            b2 = sum(1 << i for i, p in enumerate(pi) if b >> p & 1)
            low = min(twin[b], twin[b2])
            twin = [low if t in (twin[b], twin[b2]) else t for t in twin]

    blocks = []
    for b in range(n_el):
        if twin[b] != b:
            continue
        # column j of P: sum_e chi_b(e) G[e, o] e_C[e, o], o = orbit[j].  Its
        # entries are +-|stabilizer|, or 0 where the stabilizer acts with the
        # wrong sign; the columns keep the order of the orbit representatives
        P = sp.csc_matrix(((chi[b][:, None] * G[:, orbit]).ravel(), entries), shape=(n, len(orbit)))
        P.eliminate_zeros()
        P = P[:, np.diff(P.indptr) > 0]
        P.data = np.sign(P.data) * np.sqrt(np.abs(P.data) / n_el)  # +-1/sqrt(|orbit|)
        # the product may sum (i, j) and (j, i) in another order
        Kb = P.T @ A @ P
        Kb = ((Kb + Kb.T) * 0.5).tocsr()
        blocks.append((Kb, P.multiply(P).T @ D, twin.count(b)))
    return blocks


def theta_spectrum(graph: PeriodCellGraph, theta: Sequence[complex], k: int) -> np.ndarray:
    """First k eigenvalues of the theta-periodic cell problem, ascending,
    repeated by multiplicity.

    A complex pencil is solved in real arithmetic where ``_real_form``
    finds a symmetry for theta, on the pencil averaged over it.  A real
    pencil above DENSE_LIMIT unknowns is solved in the blocks of the
    symmetries that fix theta (``_stabilizer_blocks``), on the pencil
    averaged over them.  Each average stays within the verified mismatch
    SYMMETRY_RTOL of the original (see ``band_structure``), far inside the
    inertia certificate's margin."""
    K, M = folded_matrices(graph, theta)
    theta = np.asarray(theta, dtype=complex)
    V = None
    if np.any(K.data.imag):
        K, M, V = _real_form(graph, theta, K, M)
    if K.shape[0] > DENSE_LIMIT and not np.any(K.data.imag):
        return _block_eigenvalues(_stabilizer_blocks(graph, theta, K.real, M, V), k)
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


def character_orbits(graph: PeriodCellGraph, resolution: int) -> np.ndarray:
    """For each point of ``theta_grid(resolution, graph.ndim)``, the smallest
    grid index in its orbit under conjugation and the graph's verified
    symmetries (``PeriodCellGraph.verified_symmetries``), and so under every
    composition of them."""
    shape = (resolution,) * graph.ndim
    p = np.indices(shape).reshape(graph.ndim, -1)  # theta_grid order
    n = p.shape[1]
    images = [np.ravel_multi_index(-p % resolution, shape)]
    for _, target, sign in graph.verified_symmetries():
        q = np.empty_like(p)
        q[target] = sign[:, None] * p % resolution
        images.append(np.ravel_multi_index(q, shape))
    links = sp.coo_matrix(
        (np.ones(n * len(images)), (np.tile(np.arange(n), len(images)), np.concatenate(images))), shape=(n, n)
    )
    labels = connected_components(links, directed=False)[1]
    return np.unique(labels, return_index=True)[1][labels]


def band_structure(graph: PeriodCellGraph, theta_resolution: int, K: int) -> BandStructure:
    """Sweep the character grid; band k is [min_theta, max_theta] of the
    k-th eigenvalue.  Sampled bands only widen under grid refinement, so
    the detected gaps are conservative.

    Only one character per orbit (``character_orbits``) is solved, the one
    with the smallest grid index, and its row is copied to the rest of the
    orbit.  Real edge weights give K(conj theta) = conj K(theta), so theta
    and conj theta share a spectrum.  A verified symmetry maps the
    theta-periodic functions onto the theta'-periodic ones and keeps every
    mass and weight to a relative e <= SYMMETRY_RTOL.  Every term of the
    folded forms sum w |u_a - phi u_b|^2 and sum m |u|^2 is non-negative,
    so each form moves by a factor in [1 - e, 1 + e], and by min-max each
    eigenvalue by a factor of at most (1 + e) / (1 - e), about 2e-12 per
    map.  A copy reached through j maps moves by at most j times that, and
    an orbit on the square has at most 8 characters: far inside
    _CERTIFY_GAP, so the inertia certificate of the solved row covers the
    copies.  The same bound covers a row that ``theta_spectrum`` solves in
    real form, on the pencil averaged over one symmetry (``_real_form``),
    and in stabilizer blocks, on the pencil averaged over the group of up
    to ndim commuting involutions that fix theta (``_stabilizer_blocks``):
    each map of the group moves every form by a factor in [1 - e, 1 + e],
    so their average does too.  A twin block's values, copied from a block
    that one more symmetry maps onto it, are one map further off.  A row
    so passes through at most three maps before its orbit copies, and the
    bound stays far inside _CERTIFY_GAP.  The demo cell is symmetric to
    4.4e-16 (masses) and 1.2e-15 (weights), the rounding of its ring
    angles.
    """
    points = theta_grid(theta_resolution, graph.ndim)
    orbit = character_orbits(graph, theta_resolution)
    table: list[np.ndarray] = []
    for i, point in enumerate(points):
        table.append(table[orbit[i]] if orbit[i] < i else theta_spectrum(graph, point, K))
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
