import math

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
    dense_folded_oracle,
    dirichlet_loop_matrix,
    inertia_count,
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
        graph = build_cell_graph(holes=[(0.5, 0.5, 0.1, 0.3)], cell_size=1.0, grid=GridSpec(32))
        graph.validate()
        for d in (1, 2):
            pairs = [(a, b) for a, b, dd in graph.boundary_pairs if dd == d]
            assert len(pairs) == 33

    def test_true_n2_scaling_unresolvable(self):
        base = BubbleGeometry(2, ((1.0, 0.3),), kappa=0.5)
        geom = eps_scale(base, 0.5)  # hole radius exp(-4) ~ 0.018 on a cell of size 0.5
        ch = geom.channels[0]
        with pytest.raises(ResolutionError):
            build_cell_graph(holes=[(0.25, 0.25, ch.d_eps, ch.b_eps)], cell_size=geom.eps, grid=GridSpec(64))


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
        g.edges = np.array([[0, 1], [2, 3]])
        g.weights = np.ones(2)
        with pytest.raises(GeometryError, match="not connected"):
            g.validate()

    def test_non_bijective_pairs_rejected(self):
        # direction 1 is a bijection, direction 2 maps 2 and 0 both to 3
        g = path_graph(4, ((0, 1, 1), (2, 3, 2), (0, 3, 2)), 2)
        with pytest.raises(GeometryError, match="direction 2 are not a bijection"):
            g.validate()

    def test_inconsistent_identifications_rejected(self):
        # 0 ~ 1 and 1 ~ 2 put 2 two steps from 0; (0, 2, 1) says one
        g = path_graph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)), 1)
        with pytest.raises(GeometryError, match="inconsistent"):
            g.fold_structure()


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


class TestMonitoredLimits:
    def test_upper_band_neumann_trend(self):
        # lambda_{m+2}^N of the unit cell approaches min(pi^2, n/b^2) as the
        # hole shrinks (the remaining gaps escape to infinity in the eps
        # scaling; here the shrinking hole plays the eps role)
        from gapforge.cell import reference_limits
        from gapforge.design import BubbleGeometry

        b = 0.3
        ref = reference_limits(BubbleGeometry(2, ((0.1, b),), kappa=0.5), 0)
        devs = []
        for r, N in ((0.1, 32), (0.05, 64), (0.025, 128)):
            g = build_cell_graph(holes=[(0.5, 0.5, r, b)], cell_size=1.0, grid=GridSpec(N))
            lam3 = neumann_spectrum(g, 3)[2]
            devs.append(abs(lam3 - ref.L_lambda_m_plus_2) / ref.L_lambda_m_plus_2)
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
