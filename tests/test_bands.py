import dataclasses
import math
from itertools import permutations, product
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from gapforge import bands
from gapforge.bands import (
    DENSE_LIMIT,
    GridSpec,
    PeriodCellGraph,
    band_structure,
    build_cell_graph,
    character_map,
    character_orbits,
    detect_gaps,
    dirichlet_spectrum,
    folded_matrices,
    nd_enclosure,
    neumann_spectrum,
    theta_grid,
    theta_spectrum,
)
from gapforge.cell import eps_scale
from gapforge.design import BubbleGeometry
from gapforge.errors import GapForgeError, GeometryError, ResolutionError

from helpers import (
    dense_branch_as_first_written,
    dense_folded_oracle,
    dirichlet_loop_matrix,
    inertia_count,
    random_holes,
    reference_cell_graph,
    reference_fold_structure,
    small_torus_graph,
)


def cycle_cell():
    """Path of 5 unit-weight vertices whose ends are identified: folding
    yields a 4-site ring with a flux twist."""
    return PeriodCellGraph(
        masses=np.array([0.5, 1.0, 1.0, 1.0, 0.5]),
        edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
        weights=np.ones(4),
        boundary_pairs=((0, 4, 1),),
        ndim=1,
    )


class TestThetaSpectrum:
    def test_trivial_character_ground_state(self):
        g = cycle_cell()
        lam = theta_spectrum(g, (1.0 + 0.0j,), 4)
        assert abs(lam[0]) < 1e-10

    def test_constant_eigenvector_at_trivial_character(self):
        g = cycle_cell()
        K, M = folded_matrices(g, (1.0 + 0.0j,))
        s = 1.0 / np.sqrt(M)
        A = K.toarray() * s[:, None] * s[None, :]
        vals, vecs = scipy.linalg.eigh(A)
        u = vecs[:, 0] * s  # back to the pencil eigenvector
        u = u / u[np.argmax(np.abs(u))]
        assert np.max(np.abs(u - u.mean())) < 1e-8

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1, math.pi])
    def test_cycle_closed_form(self, phi):
        g = cycle_cell()
        th = complex(math.cos(phi), math.sin(phi))
        lam = theta_spectrum(g, (th,), 4)
        expect = sorted(2.0 - 2.0 * math.cos((phi + 2 * math.pi * k) / 4.0) for k in range(4))
        assert lam == pytest.approx(expect, abs=1e-10)

    def test_matches_dense_oracle_on_small_graphs(self):
        rng = np.random.default_rng(314)
        for _ in range(8):
            g = small_torus_graph(rng)
            phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
            theta = (complex(math.cos(phi1), math.sin(phi1)), complex(math.cos(phi2), math.sin(phi2)))
            lam = theta_spectrum(g, theta, 4)
            oracle = dense_folded_oracle(g, theta, 4)
            assert np.max(np.abs(lam - oracle)) < 1e-10

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(99)
        g = small_torus_graph(rng)
        theta = (complex(math.cos(0.7), math.sin(0.7)), complex(math.cos(2.1), math.sin(2.1)))
        conj_theta = tuple(np.conj(t) for t in theta)
        lam = theta_spectrum(g, theta, 4)
        lam_c = theta_spectrum(g, conj_theta, 4)
        assert lam == pytest.approx(lam_c, abs=1e-10)

    def test_nonunit_theta_rejected(self):
        with pytest.raises(GapForgeError):
            theta_spectrum(cycle_cell(), (2.0 + 0.0j,), 2)

    @pytest.mark.parametrize("holes, N", [([(0.5, 0.5, 0.2, 0.3)], 16), ([], 4)])
    def test_nan_theta_rejected(self, holes, N):
        # NaN fails every comparison, so the modulus check must accept
        # only what passes it
        g = build_cell_graph(holes=holes, grid=GridSpec(N))
        with pytest.raises(GapForgeError, match="unit modulus"):
            theta_spectrum(g, (complex(math.nan, 0.0), 1.0 + 0.0j), 3)

    def test_hermiticity_exact(self):
        rng = np.random.default_rng(4)
        g = small_torus_graph(rng)
        theta = (complex(math.cos(0.5), math.sin(0.5)), complex(math.cos(1.7), math.sin(1.7)))
        K, _ = folded_matrices(g, theta)
        H = K - K.conj().T
        assert H.nnz == 0 or np.max(np.abs(H.data)) == 0.0


class TestBandStructure:
    def test_k1_band_contains_zero(self):
        bs = band_structure(cycle_cell(), theta_resolution=8, K=1)
        assert bs.bands[0][0] <= 1e-10

    def test_cycle_bands_match_closed_form(self):
        bs = band_structure(cycle_cell(), theta_resolution=32, K=4)
        phis = [2 * math.pi * p / 32 for p in range(32)]
        for k in range(4):
            vals = [sorted(2 - 2 * math.cos((phi + 2 * math.pi * kk) / 4) for kk in range(4))[k] for phi in phis]
            assert bs.bands[k][0] == pytest.approx(min(vals), abs=1e-10)
            assert bs.bands[k][1] == pytest.approx(max(vals), abs=1e-10)

    def test_refinement_only_widens_bands(self):
        rng = np.random.default_rng(21)
        g = small_torus_graph(rng, n=5)
        coarse = band_structure(g, theta_resolution=8, K=5)
        fine = band_structure(g, theta_resolution=16, K=5)
        for (a8, b8), (a16, b16) in zip(coarse.bands, fine.bands):
            assert a16 <= a8 + 1e-12
            assert b16 >= b8 - 1e-12


class TestTimeReversalReuse:
    @pytest.mark.parametrize("res, solves", [(4, 10), (5, 13)])
    def test_one_solve_per_conjugate_pair(self, monkeypatch, res, solves):
        rng = np.random.default_rng(41)
        g = small_torus_graph(rng, n=4)
        solved = []

        def counting(graph, theta, k):
            solved.append(theta)
            return theta_spectrum(graph, theta, k)

        monkeypatch.setattr(bands, "theta_spectrum", counting)
        bs = band_structure(g, theta_resolution=res, K=4)
        assert len(solved) == solves
        points = np.array(bs.theta_points)
        for i, point in enumerate(points):
            j = int(np.argmin(np.abs(points - np.conj(point)).sum(axis=1)))
            assert np.abs(points[j] - np.conj(point)).max() < 1e-15
            assert np.array_equal(bs.eigen_table[i], bs.eigen_table[j])

    def test_grid_is_closed_under_conjugation_and_exact_at_real_characters(self):
        for res in (2, 4, 5, 16):
            roots = [point[0] for point in theta_grid(res, 1)]
            for p in range(res):
                assert roots[-p % res] == roots[p].conjugate()
            assert roots[0] == 1.0
            if res % 2 == 0:
                assert roots[res // 2] == -1.0


def counted_sweep(monkeypatch, graph, res):
    """Characters band_structure solves, with a stub in place of the
    eigensolver."""
    solved = []

    def stub(graph, theta, k):
        solved.append(theta)
        return np.arange(1.0, k + 1.0)

    monkeypatch.setattr(bands, "theta_spectrum", stub)
    band_structure(graph, theta_resolution=res, K=3)
    return len(solved)


TWO_HOLES = [(0.27, 0.5, 0.19, 0.22), (0.73, 0.5, 0.19, 0.30)]
BROKEN = ["mass", "weight", "pair"]


def broken_symmetry(graph, broken):
    """Copy of a square-symmetric ``graph`` that none of its symmetry
    candidates keeps: one mass or weight off by 1e-9, or three pairs moved."""
    perms = graph.symmetry_candidates
    if broken == "mass":
        # a bubble vertex that no symmetry fixes
        v = next(v for v in range(graph.nv - 1, 0, -1) if all(perm[v] != v for perm in perms))
        masses = graph.masses.copy()
        masses[v] *= 1 + 1e-9
        return dataclasses.replace(graph, masses=masses)
    if broken == "weight":
        # a bubble edge that no symmetry maps onto itself
        e = next(e for e in range(len(graph.edges) - 1, 0, -1)
                 if all({perm[a] for a in graph.edges[e]} != set(graph.edges[e]) for perm in perms))
        weights = graph.weights.copy()
        weights[e] *= 1 + 1e-9
        return dataclasses.replace(graph, weights=weights)
    # pair the x-face rows 1, 2, 3 with rows 2, 3, 1: every candidate now
    # sends one of them to a non-pair
    pairs = list(graph.boundary_pairs)
    assert [pairs[j][2] for j in (1, 2, 3)] == [1, 1, 1]
    for j, target in ((1, 2), (2, 3), (3, 1)):
        pairs[j] = (graph.boundary_pairs[j][0], graph.boundary_pairs[target][1], 1)
    return dataclasses.replace(graph, boundary_pairs=tuple(pairs))


class TestSquareSymmetry:
    CELLS = {
        "centred": ([(0.5, 0.5, 0.1, 0.3)], 32),
        "diagonal": ([(0.4, 0.4, 0.1, 0.3)], 32),
        "x_offset": ([(0.27, 0.5, 0.19, 0.22)], 16),
        "two_holes": (TWO_HOLES, 16),
        "holeless": ([], 16),
    }

    @staticmethod
    def cell(name):
        holes, N = TestSquareSymmetry.CELLS[name]
        return build_cell_graph(holes=holes, cell_size=1.0, grid=GridSpec(N))

    @pytest.mark.parametrize(
        "name, res, solves",
        [
            ("centred", 4, 6),  # the whole square group
            ("diagonal", 4, 7),  # the diagonal reflection only
            ("diagonal", 16, 73),
            ("x_offset", 4, 9),  # the y-reflection only
            ("two_holes", 4, 9),  # unequal bubbles: the y-reflection only
            ("holeless", 4, 6),
        ],
    )
    def test_one_solve_per_orbit(self, monkeypatch, name, res, solves):
        assert counted_sweep(monkeypatch, self.cell(name), res) == solves

    def test_ring_shared_by_two_holes(self):
        # the grid vertex at x = 0.5 borders both holes: the ring
        # correspondence must be kept per hole, not per grid vertex
        N = 16
        label = -np.ones((N + 1, N + 1), dtype=int)
        for k, (cx, cy, r, _) in enumerate(TWO_HOLES):
            for i in range(N + 1):
                for j in range(N + 1):
                    if math.hypot(i / N - cx, j / N - cy) < r:
                        label[i, j] = k
        idx = -np.ones((N + 1, N + 1), dtype=int)
        idx[label < 0] = np.arange(np.count_nonzero(label < 0))
        rings = [bands._hole_ring(idx, label, k, 1.0 / N, cx, cy)[0]
                 for k, (cx, cy, _, _) in enumerate(TWO_HOLES)]
        assert set(rings[0]) & set(rings[1])

    def test_demo_cell_counts(self, monkeypatch, demo_graph):
        assert counted_sweep(monkeypatch, demo_graph, 16) == 45
        assert counted_sweep(monkeypatch, demo_graph, 4) == 6

    @pytest.mark.parametrize("name", ["centred", "diagonal", "two_holes"])
    def test_copied_rows_match_direct_solves(self, name):
        graph = self.cell(name)
        bs = band_structure(graph, theta_resolution=4, K=6)
        copied = character_orbits(graph, 4) != np.arange(16)
        assert copied.any()
        for row, point in zip(bs.eigen_table[copied], np.array(bs.theta_points)[copied]):
            direct = theta_spectrum(graph, tuple(point), 6)
            assert np.all(np.abs(row - direct) <= 1e-12 * np.abs(direct))

    @pytest.mark.parametrize("broken", BROKEN)
    def test_broken_symmetry_falls_back(self, monkeypatch, small_demo_graph, broken):
        graph = small_demo_graph
        perms = graph.symmetry_candidates
        assert len(perms) == 7 and all(character_map(graph, perm) is not None for perm in perms)
        graph = broken_symmetry(graph, broken)
        assert all(character_map(graph, perm) is None for perm in perms)
        assert graph.verified_symmetries() == ()
        assert counted_sweep(monkeypatch, graph, 4) == 10

    def test_hand_built_graph_has_no_candidates(self):
        assert cycle_cell().symmetry_candidates == ()
        assert small_torus_graph(np.random.default_rng(41), n=4).symmetry_candidates == ()


class TestDetectGaps:
    def _bs(self, bands):
        return band_structure.__wrapped__ if False else type(
            "BS", (), {"bands": tuple(bands)}
        )()

    def test_simple_gap(self):
        bs = self._bs([(0.0, 1.0), (2.0, 3.0)])
        assert detect_gaps(bs, 5.0).intervals == ((1.0, 2.0),)

    def test_overlap_merged(self):
        bs = self._bs([(0.0, 1.0), (0.5, 3.0)])
        assert detect_gaps(bs, 5.0).intervals == ()

    def test_no_leading_gap_from_rounding_at_zero(self):
        # a trivial-character lambda_1 that rounds to +5e-12 on bands up to
        # ~60 is zero, not the edge of a gap [0, 5e-12]
        bs = self._bs([(5e-12, 10.0), (20.0, 60.0)])
        assert detect_gaps(bs, 100.0).intervals == ((10.0, 20.0),)

    def test_genuine_leading_gap_kept(self):
        bs = self._bs([(1e-3, 10.0), (20.0, 60.0)])
        assert detect_gaps(bs, 100.0).intervals == ((0.0, 1e-3), (10.0, 20.0))

    def test_nothing_reported_above_last_band(self):
        bs = self._bs([(0.0, 1.0), (2.0, 3.0)])
        gaps = detect_gaps(bs, 100.0)
        assert gaps.intervals == ((1.0, 2.0),)

    def test_gap_straddling_L_truncated(self):
        bs = self._bs([(0.0, 1.0), (2.0, 3.0)])
        assert detect_gaps(bs, 1.5).intervals == ((1.0, 1.5),)


class TestBuilder:
    def test_total_mass_near_analytic(self):
        graph = build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.3)], cell_size=1.0, grid=GridSpec(32))
        theta0 = math.asin(0.1 / 0.3)
        analytic = 1.0 - math.pi * 0.1**2 + 2 * math.pi * 0.3**2 * (1 + math.cos(theta0))
        assert abs(graph.masses.sum() - analytic) / analytic < 0.02

    def test_plain_square_mass_is_exact(self):
        graph = build_cell_graph(holes=[], cell_size=1.0, grid=GridSpec(16))
        assert abs(graph.masses.sum() - 1.0) < 1e-12

    def test_perforated_flat_part_mass(self):
        # subtract the analytic bubble area: the remaining flat-part mass
        # approximates the perforated square area 1 - pi r^2
        graph = build_cell_graph(holes=[(0.5, 0.5, 0.2, 0.6)], cell_size=1.0, grid=GridSpec(64))
        theta0 = math.asin(0.2 / 0.6)
        bubble_area = 2 * math.pi * 0.6**2 * (1 + math.cos(theta0))
        flat = graph.masses.sum() - bubble_area
        assert abs(flat - (1.0 - math.pi * 0.2**2)) < 0.02

    def test_unresolvable_hole_rejected(self):
        with pytest.raises(ResolutionError):
            build_cell_graph(holes=[(0.5, 0.5, 0.02, 0.3)], cell_size=1.0, grid=GridSpec(32))

    def test_overlapping_holes_rejected(self):
        with pytest.raises(GeometryError):
            build_cell_graph(
                holes=[(0.4, 0.5, 0.15, 0.4), (0.6, 0.5, 0.15, 0.4)],
                cell_size=1.0,
                grid=GridSpec(64),
            )

    def test_hole_touching_boundary_rejected(self):
        with pytest.raises(GeometryError):
            build_cell_graph(holes=[(0.1, 0.5, 0.15, 0.4)], cell_size=1.0, grid=GridSpec(64))

    def test_hole_must_be_smaller_than_bubble(self):
        with pytest.raises(GeometryError):
            build_cell_graph(holes=[(0.5, 0.5, 0.3, 0.2)], cell_size=1.0, grid=GridSpec(64))

    def test_boundary_pairs_bijection_and_validate(self):
        # checked when made, and frozen: no field is reassigned, no array written
        graph = build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.3)], cell_size=1.0, grid=GridSpec(32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.masses = graph.masses.copy()
        for array in (graph.masses, graph.edges, graph.weights, *graph.fold_structure()[:2]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        for d in (1, 2):
            pairs = [(a, b) for a, b, dd in graph.boundary_pairs if dd == d]
            assert len(pairs) == 33

    def test_oversized_bubble_rejected(self):
        # about 1e7 rings of 28 vertices: refused before anything is allocated
        with pytest.raises(ResolutionError, match="hole 1: bubble radius 100000.0"):
            build_cell_graph(holes=[(0.25, 0.5, 0.1, 0.2), (0.75, 0.5, 0.1, 1e5)], grid=GridSpec(32))

    def test_true_n2_scaling_unresolvable(self):
        base = BubbleGeometry(2, ((1.0, 0.3),), kappa=0.5)
        geom = eps_scale(base, 0.5)  # hole radius exp(-4) ~ 0.018 on a cell of size 0.5
        ch = geom.channels[0]
        with pytest.raises(ResolutionError):
            build_cell_graph(holes=[(0.25, 0.25, ch.d_eps, ch.b_eps)], cell_size=geom.eps, grid=GridSpec(64))


def seeded_oracle_cells():
    """(label, holes, N) for the builder oracle: one- and two-hole cells
    at N = 16-64, one of each at N = 128, the demo cell, the benchmark's
    bubble-scan cells and the square-symmetry cells."""
    rng = np.random.default_rng(1717)
    cells = []
    for m, sizes in ((1, (16, 20, 24, 32, 40, 48, 64, 128)), (2, (16, 24, 32, 48, 64, 128))):
        for N in sizes:
            cells.append((f"seeded-{m}hole-N{N}", random_holes(rng, m, N), N))
    cells.append(("demo", [(0.5, 0.5, 0.05, 0.3)], 64))
    scan = ([(0.5, 0.5, 0.20, 0.28)], [(0.5, 0.5, 0.20, 0.36)],
            [(0.27, 0.5, 0.19, 0.22), (0.73, 0.5, 0.19, 0.30)],
            [(0.30, 0.30, 0.19, 0.26), (0.70, 0.70, 0.19, 0.24)])
    cells += [(f"bubble-scan{c}", holes, 16) for c, holes in enumerate(scan)]
    cells += [(name, holes, N) for name, (holes, N) in TestSquareSymmetry.CELLS.items()]
    return cells


ORACLE_CELLS = seeded_oracle_cells()


@pytest.mark.parametrize("label, holes, N", ORACLE_CELLS, ids=[c[0] for c in ORACLE_CELLS])
def test_builder_matches_frozen_reference(label, holes, N):
    # bit for bit: the band golden files build only one cell
    got = build_cell_graph(holes=holes, cell_size=1.0, grid=GridSpec(N))
    ref = reference_cell_graph(holes, N)
    for name in ("masses", "edges", "weights"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.boundary_pairs == ref.boundary_pairs
    assert len(got.symmetry_candidates) == len(ref.symmetry_candidates)
    for p, q in zip(got.symmetry_candidates, ref.symmetry_candidates):
        assert np.array_equal(p, q)


def path_graph(nv, pairs, ndim):
    """Unit path 0 - 1 - ... - (nv - 1) with the given boundary pairs."""
    return PeriodCellGraph(
        masses=np.ones(nv),
        edges=np.array([[v, v + 1] for v in range(nv - 1)]),
        weights=np.ones(nv - 1),
        boundary_pairs=pairs,
        ndim=ndim,
    )


class TestGraphStructure:
    FOLD_CASES = {
        "demo_cell": lambda: build_cell_graph(holes=[(0.5, 0.5, 0.05, 0.3)], grid=GridSpec(64)),
        "res32_cell": lambda: build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.3)], grid=GridSpec(32)),
        "holeless_res4": lambda: build_cell_graph(holes=[], grid=GridSpec(4)),
        "two_holes": lambda: build_cell_graph(
            holes=[(0.27, 0.5, 0.19, 0.22), (0.73, 0.5, 0.19, 0.30)], grid=GridSpec(16)
        ),
        "small_torus": lambda: small_torus_graph(np.random.default_rng(3), n=4),
        "cycle_cell": cycle_cell,
    }

    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_fold_matches_reference_search(self, name):
        graph = self.FOLD_CASES[name]()
        comp, shift, n_comp = graph.fold_structure()
        ref_comp, ref_shift, ref_n = reference_fold_structure(graph)
        assert n_comp == ref_n and type(n_comp) is int
        assert np.array_equal(comp, ref_comp) and comp.dtype == ref_comp.dtype
        assert np.array_equal(shift, ref_shift) and shift.dtype == ref_shift.dtype

    def test_disconnected_graph_rejected(self):
        g = path_graph(4, ((0, 3, 1),), 1)
        with pytest.raises(GeometryError, match="not connected"):
            dataclasses.replace(g, edges=np.array([[0, 1], [2, 3]]), weights=np.ones(2))

    def test_non_bijective_pairs_rejected(self):
        # direction 1 is a bijection, direction 2 maps 2 and 0 both to 3
        with pytest.raises(GeometryError, match="direction 2 are not a bijection"):
            path_graph(4, ((0, 1, 1), (2, 3, 2), (0, 3, 2)), 2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_mass_rejected(self, bad):
        # both pass a test for masses <= 0
        g = path_graph(4, ((0, 3, 1),), 1)
        with pytest.raises(GeometryError, match="masses must be positive and finite"):
            dataclasses.replace(g, masses=np.array([1.0, bad, 1.0, 1.0]))

    def test_inconsistent_identifications_rejected(self):
        # a bijection, but 0 ~ 1 ~ 2 ~ 0 puts 0 three steps from itself
        with pytest.raises(GeometryError, match="inconsistent"):
            path_graph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)), 1)

    MALFORMED = {
        # np.eye(ndim)[d - 1] reads direction 0 as direction ndim
        "direction-0": ({"boundary_pairs": ((0, 3, 0),)}, "directions in 1..1"),
        "direction-ndim+1": ({"boundary_pairs": ((0, 3, 2),)}, "directions in 1..1"),
        "pair-id-nv": ({"boundary_pairs": ((0, 4, 1),)}, r"ids must be in \[0, 4\)"),
        "weight-count": ({"weights": np.ones(2)}, "2 edge weights for 3 edges"),
        "edge-id-nv": ({"edges": np.array([[0, 1], [1, 2], [2, 4]])}, r"vertex ids in \[0, 4\)"),
        "edge-id-negative": ({"edges": np.array([[0, 1], [1, 2], [-1, 3]])}, r"vertex ids in \[0, 4\)"),
        "edges-not-pairs": ({"edges": np.array([0, 1, 2, 3])}, r"pairs of vertex ids"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_graph_rejected(self, name):
        changes, message = self.MALFORMED[name]
        g = path_graph(4, ((0, 3, 1),), 1)
        with pytest.raises(GeometryError, match=message):
            dataclasses.replace(g, **changes)

    def test_replace_folds_anew(self):
        graph = small_torus_graph(np.random.default_rng(3), n=4)
        old = graph.fold_structure()
        # x-face vertex a = j now pairs with 12 + (j + 1) mod 4: a valid pairing
        # with another fold
        pairs = tuple((a, 12 + (a + 1) % 4, d) if d == 1 else (a, b, d) for a, b, d in graph.boundary_pairs)
        new = dataclasses.replace(graph, boundary_pairs=pairs)
        comp, shift, n_comp = new.fold_structure()
        ref_comp, ref_shift, ref_n = reference_fold_structure(new)
        assert n_comp == ref_n and np.array_equal(comp, ref_comp) and np.array_equal(shift, ref_shift)
        assert not np.array_equal(shift, old[1])


class TestEnclosure:
    def test_neumann_ground_state_zero(self):
        rng = np.random.default_rng(8)
        g = small_torus_graph(rng)
        neu = neumann_spectrum(g, 3)
        assert abs(neu[0]) < 1e-10

    def test_enclosure_on_small_graph(self):
        rng = np.random.default_rng(15)
        g = small_torus_graph(rng, n=5)
        rep = nd_enclosure(g, band_structure(g, 6, 3))
        assert rep.enclosure_ok
        assert rep.neumann[0] <= rep.dirichlet[0]

    def test_enclosure_reuses_the_sweep(self, monkeypatch):
        rng = np.random.default_rng(15)
        g = small_torus_graph(rng, n=5)
        bs = band_structure(g, 8, 3)
        calls = []
        monkeypatch.setattr(bands, "theta_spectrum", lambda *args: calls.append(args))
        assert nd_enclosure(g, bs).enclosure_ok
        assert calls == []

    def test_enclosure_flags_a_row_outside(self):
        rng = np.random.default_rng(15)
        g = small_torus_graph(rng, n=5)
        bs = band_structure(g, 4, 3)
        bs.eigen_table[-1, 1] = dirichlet_spectrum(g, 3)[1] + 1e-6
        assert not nd_enclosure(g, bs).enclosure_ok

    def test_dirichlet_dominates_neumann(self):
        rng = np.random.default_rng(16)
        g = small_torus_graph(rng, n=5)
        neu = neumann_spectrum(g, 3)
        diri = dirichlet_spectrum(g, 3)
        assert np.all(neu[: len(diri)] <= diri + 1e-10)


@pytest.fixture(scope="module")
def small_demo_graph():
    return build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.3)], cell_size=1.0, grid=GridSpec(32))


class TestSmallDemoCell:
    """Half-resolution variant of the documented demo (fast); the full
    64x64 configuration runs in the acceptance suite."""

    def test_detects_resonance_gap(self, small_demo_graph):
        bs = band_structure(small_demo_graph, theta_resolution=2, K=6)
        gaps = detect_gaps(bs, 30.0)
        assert len(gaps) >= 1

    def test_gap_edge_moves_down_with_larger_bubble(self, small_demo_graph):
        bs = band_structure(small_demo_graph, theta_resolution=2, K=6)
        gap_small = detect_gaps(bs, 30.0).intervals[0]
        graph_big = build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.36)], cell_size=1.0, grid=GridSpec(32))
        bs_big = band_structure(graph_big, theta_resolution=2, K=6)
        gap_big = detect_gaps(bs_big, 30.0).intervals[0]
        assert gap_big[0] < gap_small[0]


@pytest.fixture(scope="module")
def demo_graph():
    return build_cell_graph(holes=[(0.5, 0.5, 0.05, 0.3)], cell_size=1.0, grid=GridSpec(64))


def without_symmetries(graph):
    """The same cell graph with no symmetry candidates: every character is
    solved as one pencil."""
    return dataclasses.replace(graph, symmetry_candidates=())


def count_live_factors(monkeypatch, solve):
    """Run ``solve`` and return the number of live SuperLU factors when
    each factorization starts, and the k of each Lanczos call.  SuperLU
    objects take no weak references: a proxy counts the live factors."""
    live = [0]
    at_start = []
    splu, eigsh = bands.spla.splu, bands.spla.eigsh

    class Factor:
        def __init__(self, lu):
            self._lu = lu
            live[0] += 1

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def __del__(self):
            live[0] -= 1

    def counting_splu(*args, **kwargs):
        at_start.append(live[0])
        return Factor(splu(*args, **kwargs))

    calls = []

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(bands.spla, "splu", counting_splu)
    monkeypatch.setattr(bands.spla, "eigsh", counting_eigsh)
    solve()
    assert live[0] == 0
    return at_start, calls


class TestDenseBranch:
    # a real character solves in real arithmetic (8-byte entries), the
    # other in complex (16-byte)
    CHARACTERS = [
        ((1.0 + 0.0j, -1.0 + 0.0j), 8),
        ((complex(math.cos(0.4), math.sin(0.4)), complex(math.cos(2.5), math.sin(2.5))), 16),
    ]

    @pytest.mark.parametrize("N", [8, 15])
    @pytest.mark.parametrize("theta, itemsize", CHARACTERS)
    def test_matches_first_written_branch_bit_for_bit(self, N, theta, itemsize):
        K, M = folded_matrices(build_cell_graph(grid=GridSpec(N)), theta)
        assert K.shape[0] <= DENSE_LIMIT
        lam = bands._smallest_eigenvalues(K, M, 12)
        assert np.array_equal(lam, dense_branch_as_first_written(K, M, 12))

    @pytest.mark.parametrize("theta, itemsize", CHARACTERS)
    def test_one_matrix_copy(self, theta, itemsize):
        K, M = folded_matrices(build_cell_graph(grid=GridSpec(15)), theta)
        dim = K.shape[0]
        tracemalloc.start()
        try:
            bands._smallest_eigenvalues(K, M, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dim * dim * itemsize


class TestSparsePath:
    @pytest.mark.parametrize(
        "theta, dtype",
        [
            ((1.0 + 0.0j, -1.0 + 0.0j), np.float64),
            ((complex(math.cos(0.4), math.sin(0.4)), complex(math.cos(2.5), math.sin(2.5))), np.complex128),
        ],
    )
    def test_matches_dense_oracle_above_dense_limit(self, monkeypatch, theta, dtype):
        # real characters run in real arithmetic, the others in complex
        rng = np.random.default_rng(2718)
        g = small_torus_graph(rng, n=18)
        assert g.fold_structure()[2] > DENSE_LIMIT
        seen = []
        eigsh = bands.spla.eigsh

        def recording(op, **kwargs):
            seen.append(op.dtype)
            return eigsh(op, **kwargs)

        monkeypatch.setattr(bands.spla, "eigsh", recording)
        lam = theta_spectrum(g, theta, 8)
        oracle = dense_folded_oracle(g, theta, 8)
        assert np.all(np.abs(lam - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))
        assert seen and all(d == dtype for d in seen)

    @pytest.mark.parametrize("graph_name, trimmed", [("demo_graph", True), ("small_demo_graph", False)])
    def test_heap_trimmed_after_each_large_factor(self, monkeypatch, request, graph_name, trimmed):
        # the demo cell's folded matrix has 25908 stored entries, above
        # _TRIM_NNZ; the half-resolution cell's 7548 are below it.  The
        # symmetry-free copy keeps the whole pencil in one block
        g = without_symmetries(request.getfixturevalue(graph_name))
        theta = (1j, -1.0 + 0.0j)
        untrimmed = theta_spectrum(g, theta, 12)
        factors, trims = [], []
        lu = bands._symmetric_lu

        def recording(*args):
            factors.append(len(trims))
            return lu(*args)

        monkeypatch.setattr(bands, "_symmetric_lu", recording)
        monkeypatch.setattr(bands, "_MALLOC_TRIM", lambda pad: trims.append(pad) or 0)
        lam = theta_spectrum(g, theta, 12)
        assert factors == (list(range(len(factors))) if trimmed else [0] * len(factors))
        assert trims == ([0] * len(factors) if trimmed else [])
        np.testing.assert_allclose(lam, untrimmed, rtol=1e-12)

    @pytest.mark.parametrize(
        "graph_name, theta, first, double",
        [
            ("demo_graph", (1.0 + 0.0j, 1.0 + 0.0j), 10, 65.7936),
            ("small_demo_graph", (-1.0 + 0.0j, -1.0 + 0.0j), 9, 64.6082),
        ],
    )
    def test_double_eigenvalue_kept(self, request, graph_name, theta, first, double):
        # lambda_{first+1} = lambda_{first+2} is a double eigenvalue;
        # single-vector Lanczos can return one copy and the next eigenvalue
        # in place of the other.  The count is certified by an independent
        # inertia count.
        g = request.getfixturevalue(graph_name)
        lam = theta_spectrum(g, theta, 12)
        assert lam[first] == pytest.approx(double, rel=1e-5)
        assert lam[first + 1] == pytest.approx(lam[first], rel=1e-9)
        K, M = folded_matrices(g, theta)
        assert inertia_count(K, M, lam[11] * (1 - 1e-9)) < 12
        assert inertia_count(K, M, lam[11] * (1 + 1e-9)) >= 12

    @pytest.mark.parametrize(
        "graph_name, theta, passes",
        [
            ("demo_graph", (1j, -1.0 + 0.0j), 1),
            # both cases of test_double_eigenvalue_kept: Lanczos finds both
            # copies at (1, 1) and re-runs for the second at (-1, -1)
            ("demo_graph", (1.0 + 0.0j, 1.0 + 0.0j), 1),
            ("small_demo_graph", (-1.0 + 0.0j, -1.0 + 0.0j), 2),
            ("demo_graph", (-1.0 + 0.0j, -1.0 + 0.0j), 2),
        ],
        ids=["complex", "double-found", "double-rerun-small", "double-rerun"],
    )
    def test_one_factorization_alive_at_a_time(self, monkeypatch, request, graph_name, theta, passes):
        # the single-pencil path, on the symmetry-free copy of the cell
        g = without_symmetries(request.getfixturevalue(graph_name))
        at_start, calls = count_live_factors(monkeypatch, lambda: theta_spectrum(g, theta, 12))
        # one sigma factor and one cut factor per Lanczos pass
        assert len(at_start) == 2 * len(calls) and at_start == [0] * len(at_start)
        assert len(calls) == passes

    @pytest.mark.parametrize(
        "theta",
        [(1.0 + 0.0j, -1.0 + 0.0j), (complex(math.cos(0.4), math.sin(0.4)), complex(math.cos(2.5), math.sin(2.5)))],
        ids=["real", "complex"],
    )
    def test_count_below_matches_dense_oracle(self, theta):
        g = small_torus_graph(np.random.default_rng(2718), n=18)
        assert g.fold_structure()[2] > DENSE_LIMIT
        oracle = dense_folded_oracle(g, theta, 8)
        cuts = [0.5 * oracle[0], *(0.5 * (oracle[:-1] + oracle[1:]))]
        K, M = folded_matrices(g, theta)
        assert [bands._count_below(K, M, x) for x in cuts] == [int(np.count_nonzero(oracle < x)) for x in cuts]

    def test_neumann_spectrum_certified_on_demo_cell(self, demo_graph):
        # lambda_11 = lambda_12 of the free cell is double as well
        lam = neumann_spectrum(demo_graph, 12)
        assert lam[11] == pytest.approx(lam[10], rel=1e-9)
        a, b = demo_graph.edges[:, 0], demo_graph.edges[:, 1]
        W = sp.coo_matrix((demo_graph.weights, (a, b)), shape=(demo_graph.nv,) * 2).tocsr()
        W = W + W.T
        K = sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W
        assert inertia_count(K, demo_graph.masses, lam[11] * (1 - 1e-9)) < 12

    @pytest.mark.parametrize("n, tol", [(5, 1e-12), (20, 1e-9)])
    def test_dirichlet_matches_loop_assembly(self, n, tol):
        # n = 5 stays on the dense branch, n = 20 (324 unknowns) goes sparse
        rng = np.random.default_rng(60 + n)
        g = small_torus_graph(rng, n=n)
        K, M = dirichlet_loop_matrix(g)
        s = 1.0 / np.sqrt(M)
        ref = scipy.linalg.eigvalsh(K * s[:, None] * s[None, :])[:6]
        lam = dirichlet_spectrum(g, 6)
        assert np.all(np.abs(lam - ref) <= tol * np.abs(ref))


OFF_GRID = (complex(math.cos(0.4), math.sin(0.4)), complex(math.cos(2.5), math.sin(2.5)))
I4 = theta_grid(4, 1)[1][0]  # the grid's root i


def recorded_dtypes(monkeypatch, module, name):
    """dtypes of the first argument of every later call of module.name."""
    seen = []
    original = getattr(module, name)

    def recording(A, *args, **kwargs):
        seen.append(A.dtype)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


class TestRealForm:
    """A complex character of a cell with a verified involution that maps
    it to its conjugate (the point inversion does so for every character)
    is solved in real arithmetic."""

    # the complex characters the demo sweep solves on a 4x4 grid, and one
    # off the grid
    @pytest.mark.parametrize(
        "theta", [(1.0 + 0.0j, I4), (I4, I4), (I4, -1.0 + 0.0j), OFF_GRID], ids=["1,i", "i,i", "i,-1", "off-grid"]
    )
    def test_matches_complex_path(self, demo_graph, theta):
        K, M = folded_matrices(demo_graph, theta)
        assert np.any(K.data.imag)
        lam = theta_spectrum(demo_graph, theta, 12)
        complex_path = bands._smallest_eigenvalues(K, M, 12)
        assert np.all(np.abs(lam - complex_path) <= 1e-12 * np.abs(complex_path))
        # an independent count on the complex pencil
        for k in range(12):
            assert inertia_count(K, M, lam[k] * (1 - 1e-9)) == np.count_nonzero(lam < lam[k] * (1 - 1e-9))
        assert inertia_count(K, M, lam[11] * (1 + 1e-9)) >= 12

    def test_every_factor_real_on_demo_sweep(self, monkeypatch, demo_graph):
        factored = recorded_dtypes(monkeypatch, bands.spla, "splu")
        band_structure(demo_graph, theta_resolution=4, K=12)
        # six characters, a Lanczos factor and a count factor each
        assert len(factored) >= 12 and set(factored) == {np.dtype(np.float64)}

    def test_dense_branch(self, monkeypatch):
        graph = build_cell_graph(grid=GridSpec(8))
        oracle = dense_folded_oracle(graph, OFF_GRID, 12)
        solved = recorded_dtypes(monkeypatch, bands.scipy.linalg, "eigh")
        lam = theta_spectrum(graph, OFF_GRID, 12)
        assert solved == [np.dtype(np.float64)]
        assert np.all(np.abs(lam - oracle) <= 1e-12 * np.abs(oracle))

    @pytest.mark.parametrize("cell, dtype", [
        ("centred", np.float64),
        ("jittered", np.complex128),
        *((broken, np.complex128) for broken in BROKEN),
    ])
    def test_only_symmetric_cells_go_real(self, monkeypatch, small_demo_graph, cell, dtype):
        if cell == "centred":
            graph = small_demo_graph
        elif cell == "jittered":
            graph = build_cell_graph(holes=[(0.513, 0.479, 0.1, 0.3)], grid=GridSpec(32))
            assert graph.verified_symmetries() == ()
        else:
            graph = broken_symmetry(small_demo_graph, cell)
        assert graph.fold_structure()[2] > DENSE_LIMIT
        complex_path = bands._smallest_eigenvalues(*folded_matrices(graph, OFF_GRID), 6)
        factored = recorded_dtypes(monkeypatch, bands.spla, "splu")
        lam = theta_spectrum(graph, OFF_GRID, 6)
        assert factored and set(factored) == {np.dtype(dtype)}
        assert np.all(np.abs(lam - complex_path) <= 1e-12 * np.abs(complex_path))

    def test_candidates_verified_once(self, monkeypatch):
        calls = []
        verify = bands.character_map
        monkeypatch.setattr(bands, "character_map", lambda graph, perm: calls.append(perm) or verify(graph, perm))
        graph = build_cell_graph(grid=GridSpec(8))
        assert len(calls) == len(graph.symmetry_candidates) == len(graph.verified_symmetries()) == 7
        band_structure(graph, theta_resolution=4, K=4)
        character_orbits(graph, 4)
        theta_spectrum(graph, OFF_GRID, 4)
        assert len(calls) == 7


ORBIT_CHARACTERS = [
    (1.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j, I4), (1.0 + 0.0j, -1.0 + 0.0j),
    (I4, I4), (I4, -1.0 + 0.0j), (-1.0 + 0.0j, -1.0 + 0.0j),
]
ORBIT_IDS = ["1,1", "1,i", "1,-1", "i,i", "i,-1", "-1,-1"]


def stabilizer_blocks(graph, theta):
    """The stabilizer blocks of graph's pencil at theta, made real first
    as ``theta_spectrum`` does."""
    theta = np.asarray(theta, dtype=complex)
    K, M = folded_matrices(graph, theta)
    V = None
    if np.any(K.data.imag):
        K, M, V = bands._real_form(graph, theta, K, M)
    return bands._stabilizer_blocks(graph, theta, K.real, M, V)


def block_shapes(graph, theta):
    """(dim, copies) of each stabilizer block of graph's pencil at theta."""
    return [(Kb.shape[0], copies) for Kb, _, copies in stabilizer_blocks(graph, theta)]


class TestStabilizerBlocks:
    """A real pencil above DENSE_LIMIT is solved in the joint +-1
    eigenspaces of the verified involutions that fix its character."""

    # TestRealForm.test_matches_complex_path checks the complex orbit
    # characters against the unsplit complex pencil
    @pytest.mark.parametrize(
        "theta",
        [(1.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j, -1.0 + 0.0j), (-1.0 + 0.0j, -1.0 + 0.0j)],
        ids=["1,1", "1,-1", "-1,-1"],
    )
    def test_matches_unsplit_solve(self, demo_graph, theta):
        lam = theta_spectrum(demo_graph, theta, 12)
        unsplit = theta_spectrum(without_symmetries(demo_graph), theta, 12)
        # the ground state at theta = 1 is zero to rounding
        assert np.all(np.abs(lam - unsplit) <= 1e-11 * np.maximum(np.abs(unsplit), 1.0))
        # the inertia check of the benchmark's oracle, on the original pencil
        K, M = folded_matrices(demo_graph, theta)
        assert inertia_count(K, M, lam[11] * (1 - 1e-9)) < 12 <= inertia_count(K, M, lam[11] * (1 + 1e-9))

    @pytest.mark.parametrize("theta", ORBIT_CHARACTERS, ids=ORBIT_IDS)
    def test_block_count(self, demo_graph, theta):
        # the real characters split by both mirrors, the complex ones by the
        # one mirror that fixes them; the blocks add up to the pencil
        shapes = block_shapes(demo_graph, theta)
        assert len(shapes) + sum(c - 1 for _, c in shapes) == (4 if np.isrealobj(np.real_if_close(theta)) else 2)
        assert sum(d * c for d, c in shapes) == demo_graph.fold_structure()[2]

    @pytest.mark.parametrize("theta, twins", [
        ((1.0 + 0.0j, 1.0 + 0.0j), True),
        ((-1.0 + 0.0j, -1.0 + 0.0j), True),
        ((1.0 + 0.0j, -1.0 + 0.0j), False),
    ], ids=["1,1", "-1,-1", "1,-1"])
    def test_twins(self, small_demo_graph, theta, twins):
        # the diagonal mirror swaps the two axis mirrors only where it
        # fixes theta
        shapes = block_shapes(small_demo_graph, theta)
        assert [c for _, c in shapes] == ([1, 2, 1] if twins else [1, 1, 1, 1])

    def test_top_up_then_uncertified(self, monkeypatch, small_demo_graph):
        # one block's count reports one value more than Lanczos can find:
        # that block gets top-up passes, the others one pass and one count
        theta = (1.0 + 0.0j, -1.0 + 0.0j)
        first = block_shapes(small_demo_graph, theta)[0][0]
        true_count = bands._count_below
        counted, passes = [], []
        monkeypatch.setattr(
            bands, "_count_below",
            lambda K, M, shift: counted.append(K.shape[0]) or true_count(K, M, shift) + (K.shape[0] == first),
        )
        sweep = bands._shift_invert_pass
        monkeypatch.setattr(
            bands, "_shift_invert_pass", lambda K, *args: passes.append(K.shape[0]) or sweep(K, *args)
        )
        with pytest.raises(GapForgeError, match="not certified"):
            theta_spectrum(small_demo_graph, theta, 12)
        assert passes.count(first) == counted.count(first) == 1 + bands._MAX_DEFLATIONS
        assert len(passes) == len(counted) == 3 + 1 + bands._MAX_DEFLATIONS

    @pytest.mark.parametrize("theta", [(1.0 + 0.0j, -1.0 + 0.0j), OFF_GRID], ids=["real", "complex"])
    def test_graph_without_symmetry_unchanged(self, theta):
        graph = build_cell_graph(holes=[(0.513, 0.479, 0.1, 0.3)], grid=GridSpec(32))
        assert graph.verified_symmetries() == () and graph.fold_structure()[2] > DENSE_LIMIT
        lam = theta_spectrum(graph, theta, 6)
        assert np.array_equal(lam, bands._smallest_eigenvalues(*folded_matrices(graph, theta), 6))

    def test_small_pencil_not_split(self, monkeypatch):
        graph = build_cell_graph(grid=GridSpec(15))
        theta = (1.0 + 0.0j, 1.0 + 0.0j)
        assert len(graph.verified_symmetries()) == 7 and graph.fold_structure()[2] <= DENSE_LIMIT
        expected = bands._smallest_eigenvalues(*folded_matrices(graph, theta), 12)
        monkeypatch.setattr(bands, "_stabilizer_blocks", None)
        assert np.array_equal(theta_spectrum(graph, theta, 12), expected)

    @pytest.mark.parametrize("theta, blocks", [((-1.0 + 0.0j, -1.0 + 0.0j), 3), ((I4, -1.0 + 0.0j), 2)])
    def test_one_factorization_alive_at_a_time(self, monkeypatch, demo_graph, theta, blocks):
        at_start, calls = count_live_factors(monkeypatch, lambda: theta_spectrum(demo_graph, theta, 12))
        # a first pass and a count for each solved block, none topped up
        assert len(calls) == blocks and at_start == [0] * (2 * blocks)

    @pytest.mark.parametrize("theta", [(-1.0 + 0.0j, -1.0 + 0.0j), (I4, -1.0 + 0.0j)], ids=["-1,-1", "i,-1"])
    def test_heap_trimmed_after_each_large_factor(self, monkeypatch, demo_graph, theta):
        # the real characters' blocks hold about 6000 stored entries, the
        # complex ones' about 12500: only the latter pass _TRIM_NNZ
        untrimmed = theta_spectrum(demo_graph, theta, 12)
        factors, trims = [], []
        lu = bands._symmetric_lu

        def recording(K, *args):
            factors.append((len(trims), K.nnz > bands._TRIM_NNZ))
            return lu(K, *args)

        monkeypatch.setattr(bands, "_symmetric_lu", recording)
        monkeypatch.setattr(bands, "_MALLOC_TRIM", lambda pad: trims.append(pad) or 0)
        lam = theta_spectrum(demo_graph, theta, 12)
        large = [big for _, big in factors]
        assert [t for t, _ in factors] == [sum(large[:i]) for i in range(len(factors))]
        assert trims == [0] * sum(large) and any(large) == (theta[0] == I4)
        np.testing.assert_allclose(lam, untrimmed, rtol=1e-12)


def flat_cube_graph(N):
    """The periodic N x N x N flat grid of the unit cube: (N + 1)^3
    vertices, masses h^3 and conductances h, halved on every face they lie
    on, with the 47 non-identity symmetries of the cube as candidates."""
    h = 1.0 / N
    shape = (N + 1,) * 3
    idx = np.arange((N + 1) ** 3).reshape(shape)
    x = np.indices(shape).reshape(3, -1)
    on_face = (x == 0) | (x == N)
    edges, weights = [], []
    for d in range(3):
        lo = np.take(idx, np.arange(N), axis=d).ravel()
        edges.append(np.stack([lo, np.take(idx, np.arange(1, N + 1), axis=d).ravel()], axis=1))
        # an edge along d lies on the faces of the other directions at its ends
        weights.append(h * 0.5 ** np.delete(on_face, d, axis=0)[:, lo].sum(axis=0))
    boundary_pairs = tuple(
        (int(a), int(b), d + 1)
        for d in range(3)
        for a, b in zip(np.take(idx, 0, axis=d).ravel(), np.take(idx, N, axis=d).ravel())
    )
    candidates = tuple(
        idx[tuple(np.where(np.array(signs)[:, None] > 0, x[list(axes)], N - x[list(axes)]))]
        for axes in permutations(range(3))
        for signs in product((1, -1), repeat=3)
        if axes != (0, 1, 2) or signs != (1, 1, 1)
    )
    return PeriodCellGraph(
        masses=h**3 * 0.5 ** on_face.sum(axis=0),
        edges=np.concatenate(edges),
        weights=np.concatenate(weights),
        boundary_pairs=boundary_pairs,
        ndim=3,
        symmetry_candidates=candidates,
    )


class TestCubeSplit:
    """Three commuting mirrors and twin classes of three on the flat 3-D
    torus, whose spectrum is known in closed form."""

    N = 8

    @pytest.fixture(scope="class")
    def cube(self):
        graph = flat_cube_graph(self.N)
        assert len(graph.verified_symmetries()) == 47
        return graph

    def exact(self, theta):
        """(4/h^2) sum_d sin^2((2 pi m_d + phi_d) / 2N) over all m, ascending."""
        m = np.indices((self.N,) * 3).reshape(3, -1)
        phi = np.angle(np.asarray(theta))[:, None]
        return np.sort(4 * self.N**2 * np.sum(np.sin((2 * np.pi * m + phi) / (2 * self.N)) ** 2, axis=0))

    def orbit_characters(self, graph):
        points = theta_grid(4, 3)
        orbit = character_orbits(graph, 4)
        return [p for i, p in enumerate(points) if orbit[i] == i]

    def test_blocks_match_closed_form(self, cube):
        points = self.orbit_characters(cube)
        assert len(points) == 10
        for theta in points:
            blocks = stabilizer_blocks(cube, theta)
            lam = np.sort(np.concatenate([
                np.repeat(scipy.linalg.eigh(Kb.toarray(), np.diag(Mb), eigvals_only=True), copies)
                for Kb, Mb, copies in blocks
            ]))
            exact = self.exact(theta)
            assert np.max(np.abs(lam - exact)) <= 1e-13 * exact[-1], theta

    def test_theta_spectrum_matches_closed_form(self, cube):
        for theta in self.orbit_characters(cube):
            lam = theta_spectrum(cube, theta, 10)
            exact = self.exact(theta)[:10]
            assert np.all(np.abs(lam - exact) <= 1e-11 * np.maximum(exact, 1.0)), theta

    @pytest.mark.parametrize("theta, shapes", [
        ((1.0 + 0.0j,) * 3, [(125, 1), (75, 3), (45, 3), (27, 1)]),
        ((-1.0 + 0.0j,) * 3, [(64, 1), (64, 3), (64, 3), (64, 1)]),
    ], ids=["1,1,1", "-1,-1,-1"])
    def test_block_shapes(self, cube, theta, shapes):
        # the three axis mirrors generate the group; the axis permutations
        # make twins of the blocks with as many minus signs
        assert block_shapes(cube, theta) == shapes


class TestSignedPermutation:
    def test_rounded_phases_come_back_exact(self):
        S = sp.csr_matrix(np.array([[0, 1 + 4.4e-16, 0], [1 - 1.1e-16j, 0, 0], [0, 0, -1 + 2.2e-16]]))
        col, sign = bands._signed_permutation(S)
        assert col.tolist() == [1, 0, 2]
        assert sign.dtype == np.float64 and sign.tolist() == [1.0, 1.0, -1.0]

    def test_stray_entry_dropped(self):
        S = sp.csr_matrix(np.array([[0.0, 1.0, 1e-15], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
        col, sign = bands._signed_permutation(S)
        assert col.tolist() == [1, 0, 2] and sign.tolist() == [1.0, 1.0, -1.0]

    @pytest.mark.parametrize("S", [
        [[0.6, 0.8], [0.8, -0.6]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1j]],
    ], ids=["reflection", "3-cycle", "rotation", "phase-i"])
    def test_not_a_signed_involution(self, S):
        assert bands._signed_permutation(sp.csr_matrix(np.array(S))) is None


def blas_counts():
    return [get() for get, _ in bands._OPENBLAS]


def set_blas_counts(libs, counts):
    for (_, put), n in zip(libs, counts):
        put(n)


@pytest.fixture
def caller_threads():
    """Every OpenBLAS copy the lookup found runs 2 threads in the test and
    gets its own count back afterwards; skips when the lookup found none."""
    if not bands._OPENBLAS:
        pytest.skip("no bundled OpenBLAS found")
    saved = blas_counts()
    set_blas_counts(bands._OPENBLAS, [2] * len(saved))
    yield [2] * len(saved)
    set_blas_counts(bands._OPENBLAS, saved)


class TestOneBlasThread:
    THETA = (complex(math.cos(0.4), math.sin(0.4)), -1.0 + 0.0j)

    def test_sparse_solve_runs_on_one_thread(self, monkeypatch, caller_threads):
        g = small_torus_graph(np.random.default_rng(2718), n=18)
        assert g.fold_structure()[2] > DENSE_LIMIT
        seen = []
        lu = bands._symmetric_lu

        def recording(*args):
            seen.append(blas_counts())
            return lu(*args)

        monkeypatch.setattr(bands, "_symmetric_lu", recording)
        theta_spectrum(g, self.THETA, 8)
        assert seen and all(c == [1] * len(caller_threads) for c in seen)
        assert blas_counts() == caller_threads

    def test_counts_restored_after_error(self, caller_threads):
        with pytest.raises(GapForgeError):
            theta_spectrum(cycle_cell(), (1.0 + 0.0j,), 40)
        assert blas_counts() == caller_threads

    def test_solves_without_openblas(self, monkeypatch):
        # the caller at one thread: without a lookup the solve runs at the
        # caller's count, so the rows match to the last bit
        g = small_torus_graph(np.random.default_rng(2718), n=18)
        libs = bands._OPENBLAS
        saved = blas_counts()
        set_blas_counts(libs, [1] * len(saved))
        try:
            pinned = theta_spectrum(g, self.THETA, 8)
            monkeypatch.setattr(bands, "_OPENBLAS", [])
            unpinned = theta_spectrum(g, self.THETA, 8)
        finally:
            set_blas_counts(libs, saved)
        assert np.array_equal(unpinned, pinned)


class TestMonitoredLimits:
    def test_upper_band_neumann_trend(self):
        # lambda_{m+2}^N of the unit cell approaches min(pi^2, n/b^2) as the
        # hole shrinks (the remaining gaps escape to infinity in the eps
        # scaling; here the shrinking hole plays the eps role)
        b = 0.3
        limit = min(math.pi**2, 2 / b**2)
        devs = []
        for r, N in ((0.1, 32), (0.05, 64), (0.025, 128)):
            g = build_cell_graph(holes=[(0.5, 0.5, r, b)], cell_size=1.0, grid=GridSpec(N))
            lam3 = neumann_spectrum(g, 3)[2]
            devs.append(abs(lam3 - limit) / limit)
        assert all(new < old for old, new in zip(devs[:-1], devs[1:]))
        assert devs[-1] < 0.05

    def test_band_continuity_monitored(self):
        # empirical theta-modulus of the band functions: adjacent-sample
        # jumps shrink under grid refinement (no constant is asserted)
        g = cycle_cell()
        jumps = {}
        for res in (8, 16):
            bs = band_structure(g, theta_resolution=res, K=3)
            table = np.vstack([bs.eigen_table, bs.eigen_table[:1]])
            jumps[res] = float(np.max(np.abs(np.diff(table, axis=0))))
        assert jumps[16] <= 0.75 * jumps[8]


class TestErrorPaths:
    def test_k_exceeding_folded_dimension(self):
        with pytest.raises(GapForgeError):
            theta_spectrum(cycle_cell(), (1.0 + 0.0j,), 40)

    @pytest.mark.parametrize("excess", ["one_more", "all"])
    def test_uncertified_count_raises(self, monkeypatch, excess):
        # an inertia count that deflation cannot match is an error, not a
        # silently short spectrum
        rng = np.random.default_rng(5)
        g = small_torus_graph(rng, n=18)
        true_count = bands._count_below
        if excess == "one_more":
            stub = lambda K, M, shift: true_count(K, M, shift) + 1
        else:
            stub = lambda K, M, shift: K.shape[0]
        monkeypatch.setattr(bands, "_count_below", stub)
        with pytest.raises(GapForgeError, match="not certified"):
            theta_spectrum(g, (1.0 + 0.0j, 1.0 + 0.0j), 4)

    def test_k_near_dimension_uses_dense_branch(self):
        # shift-invert Lanczos needs k < dim - 1; the dense branch covers
        # the rest even above DENSE_LIMIT
        rng = np.random.default_rng(5)
        g = small_torus_graph(rng, n=18)
        dim = g.fold_structure()[2]
        assert dim > DENSE_LIMIT
        theta = (1.0 + 0.0j, 1.0 + 0.0j)
        lam = theta_spectrum(g, theta, dim)
        oracle = dense_folded_oracle(g, theta, dim)
        assert np.max(np.abs(lam - oracle)) < 1e-9


def test_demo_gap_matches_homogenized_prediction(small_demo_graph):
    # documented tolerances at desk scale: the resonance (lower edge) is
    # predicted by the radial cell solver to ~10%; the upper edge, which
    # assumes the homogenization regime, to ~30%
    from gapforge.cell import RadialCell, _graded_arc, radial_eigenvalues
    from gapforge.design import HomogenizedModel
    from gapforge.dispersion import mu_roots

    r_hole, b, outer = 0.1, 0.3, 0.5
    theta0 = math.asin(r_hole / b)
    cell = RadialCell(2, np.geomspace(r_hole, outer, 512), _graded_arc(theta0, 512), b)
    sigma_pred = radial_eigenvalues(cell, 1)[0]
    rho_eff = 2 * math.pi * b * b * (1 + math.cos(theta0))
    mu_pred = mu_roots(HomogenizedModel(2, (float(sigma_pred),), (rho_eff,)))[0]

    bs = band_structure(small_demo_graph, theta_resolution=2, K=6)
    lo, hi = detect_gaps(bs, 30.0).intervals[0]
    assert abs(lo - sigma_pred) / sigma_pred < 0.10
    assert abs(hi - mu_pred) / mu_pred < 0.30
