import math

import numpy as np
import pytest
from scipy.special import jn_zeros

import gapforge.cell as cell_module
from gapforge.cell import (
    RadialCell,
    angular_integral_F,
    build_radial_cell,
    convergence_rows_csv,
    convergence_table,
    cutoff_profile,
    disk_cell,
    eps_scale,
    junction_flux,
    radial_eigenvalues,
    reference_limits,
    richardson_lambda1,
    trial_constants,
    trial_rayleigh,
)
from gapforge.design import BubbleGeometry, design_geometry
from gapforge.errors import GeometryError, ResolutionError, ScaleError
from gapforge.intervals import validate_gap_spec

from helpers import (
    angular_integral_F_quad,
    bubble_cap_cell,
    random_gap_spec,
    reference_radial_eigenvalues,
)


def designed_geometry(n=3, kappa=0.5):
    spec = validate_gap_spec([(1, 2)], n)
    geom, model = design_geometry(spec, kappa)
    return geom, model


def mesh_limit_lambda1(geom, resolution):
    """Richardson limit and gauge of channel 0 over (resolution, 2 * resolution)."""
    lams = [radial_eigenvalues(build_radial_cell(geom, 0, r), 1)[0] for r in (resolution, 2 * resolution)]
    return richardson_lambda1(*lams)


class TestEpsScale:
    def test_n3_powers(self):
        base = BubbleGeometry(3, ((1.0, 1.0),), kappa=0.5)
        geom = eps_scale(base, 0.1)
        ch = geom.channels[0]
        assert ch.d_eps == pytest.approx(1e-3, rel=1e-15)
        assert ch.b_eps == pytest.approx(0.1, rel=1e-15)
        assert ch.theta == pytest.approx(math.asin(0.01), rel=1e-12)

    def test_n2_exponential(self):
        base = BubbleGeometry(2, ((1.0, 1.0),), kappa=0.5)
        geom = eps_scale(base, 0.5)
        assert geom.channels[0].d_eps == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_half_ratio_angle(self):
        base = BubbleGeometry(3, ((1.0, 2.0),), kappa=0.5)
        geom = eps_scale(base, 1.0)
        assert geom.channels[0].theta == pytest.approx(math.pi / 6, rel=1e-14)

    def test_underflow_raises_scale_error(self):
        base = BubbleGeometry(2, ((1.0, 1.0),), kappa=0.5)
        with pytest.raises(ScaleError):
            eps_scale(base, 0.01)

    def test_hole_must_fit_in_bubble(self):
        base = BubbleGeometry(3, ((2.0, 0.5),), kappa=0.5)
        with pytest.raises(GeometryError):
            eps_scale(base, 0.9)

    def test_outer_radius(self):
        base = BubbleGeometry(3, ((1.0, 1.0),), kappa=0.5)
        geom = eps_scale(base, 0.1)
        assert geom.outer_radius(0) == pytest.approx(1e-3 + 0.025, rel=1e-15)


class TestAngularIntegral:
    def test_vanishes_at_half_pi(self):
        for n in (2, 3, 4, 7):
            assert angular_integral_F(math.pi / 2, n) == 0.0

    def test_n3_closed_form(self):
        assert angular_integral_F(3 * math.pi / 4, 3) == pytest.approx(1.0, rel=1e-10)

    def test_n2_closed_form(self):
        got = angular_integral_F(math.pi / 3, 2)
        assert got == pytest.approx(math.log(math.tan(math.pi / 6)), rel=1e-10)

    @pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.3, 1.2, 2.3, math.pi - 1e-3])
    def test_oracles_across_range(self, theta):
        got2 = angular_integral_F(theta, 2)
        assert got2 == pytest.approx(math.log(math.tan(theta / 2)), rel=1e-10)
        got3 = angular_integral_F(theta, 3)
        assert got3 == pytest.approx(-1.0 / math.tan(theta), rel=1e-10, abs=1e-12)

    def test_endpoints_rejected(self):
        for theta in (0.0, math.pi):
            with pytest.raises(GeometryError):
                angular_integral_F(theta, 3)
        with pytest.raises(GeometryError):
            angular_integral_F(np.array([0.3, math.pi]), 3)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_adaptive_quadrature(self, n):
        # the quadrature starts at the float pi/2, the closed form at pi/2
        # itself: the two differ by about cos(float pi/2) = 6e-17 absolute
        thetas = np.concatenate([np.geomspace(1e-12, 1.5, 40), np.linspace(1.5, math.pi - 1e-3, 40)])
        got = angular_integral_F(thetas, n)
        for theta, value in zip(thetas, got):
            assert value == pytest.approx(angular_integral_F_quad(theta, n), rel=1e-11, abs=1e-15)

    def test_array_input(self):
        thetas = np.array([[1e-9, 0.4], [math.pi / 2, 2.9]])
        for n in (2, 5, 8):
            got = angular_integral_F(thetas, n)
            assert got.shape == thetas.shape
            assert got[1, 0] == 0.0
            scalars = [angular_integral_F(float(t), n) for t in thetas.ravel()]
            assert all(isinstance(v, float) for v in scalars)
            assert got.ravel().tolist() == scalars


class TestTrialFunction:
    def test_c_identity_exact(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        tf = trial_constants(geom, 0)
        assert tf.C == pytest.approx((3 - 2) * tf.A / tf.b_eps ** (3 - 2), rel=1e-14)

    def test_b_identity_asymptotic(self):
        # B = -A (kappa eps / 2)^(2-n) holds in the limit; the exact outer
        # Dirichlet condition shifts it by O(d_eps / eps) at finite eps
        base, _ = designed_geometry()
        ratios = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            geom = eps_scale(base, eps)
            tf = trial_constants(geom, 0)
            paper_B = -tf.A / (0.5 * base.kappa * eps) ** (3 - 2)
            ratios.append(abs(tf.B / paper_B - 1.0))
        assert all(b < a for a, b in zip(ratios[:-1], ratios[1:]))
        assert ratios[-1] < 5e-4

    def test_boundary_conditions_to_1e12(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        tf = trial_constants(geom, 0)
        outer, jump = tf.boundary_residuals()
        assert abs(outer) < 1e-12
        assert abs(jump) < 1e-12
        assert tf.cap_hat_value(0.0) == 1.0  # theta = pi/2 => F = 0

    def test_n2_extension_boundary_conditions(self):
        base, _ = designed_geometry(n=2)
        geom = eps_scale(base, 0.5)
        tf = trial_constants(geom, 0)
        outer, jump = tf.boundary_residuals()
        assert abs(outer) < 1e-12 and abs(jump) < 1e-12
        assert tf.C == pytest.approx(-tf.A, rel=1e-14)

    def test_cutoff_profile_support(self):
        theta = np.linspace(0, math.pi, 101)
        phi = cutoff_profile(theta)
        assert np.all(phi[theta <= math.pi / 4] == 1.0)
        assert np.all(phi[theta >= math.pi / 2] == 0.0)
        assert np.all((phi >= 0) & (phi <= 1))


class TestRayleighAndFlux:
    def test_quotient_bounds_lambda1(self):
        # compare against the mesh limit: the raw discrete value approaches
        # the eigenvalue from above and can sit above the continuum bound
        base, _ = designed_geometry()
        for eps in (0.2, 0.1, 0.05):
            geom = eps_scale(base, eps)
            bound = trial_rayleigh(geom, 0)
            lam1, _ = mesh_limit_lambda1(geom, 256)
            assert bound.quotient >= lam1 - 1e-10

    def test_asymptotic_ratios(self):
        base, model = designed_geometry()
        sigma, rho = model.sigma[0], model.rho[0]
        prev = None
        for eps in (0.2, 0.1, 0.05, 0.025):
            geom = eps_scale(base, eps)
            bound = trial_rayleigh(geom, 0)
            num_ratio = bound.numerator / (sigma * rho * eps**3)
            den_ratio = bound.denominator / (rho * eps**3)
            dev = abs(num_ratio - 1) + abs(den_ratio - 1)
            if prev is not None:
                assert dev < prev
            prev = dev
        assert abs(num_ratio - 1) < 0.05 and abs(den_ratio - 1) < 0.05

    def test_n2_tiny_hole_bound_is_finite(self):
        # d_eps 3.2e-190 and 4.4e-303: the gradient next to the hole squares
        # past the float range, its weighted square does not
        base, model = design_geometry(validate_gap_spec([(1, 2), (3, 4)], 2))
        for eps in (0.12, 0.095):
            geom = eps_scale(base, eps)
            assert trial_constants(geom, 1).d_eps < 1e-154
            bound = trial_rayleigh(geom, 1)
            assert math.isfinite(bound.numerator) and math.isfinite(bound.denominator)
            assert bound.quotient == pytest.approx(model.sigma[1], rel=0.05)

    def test_flux_closed_form_n3(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        tf = trial_constants(geom, 0)
        flux = junction_flux(geom, 0)
        assert flux.flux == pytest.approx(4 * math.pi * tf.A, rel=1e-14)

    def test_flux_ratio_tends_to_one(self):
        base, _ = designed_geometry()
        ratios = [abs(junction_flux(eps_scale(base, e), 0).ratio - 1.0) for e in (0.2, 0.1, 0.05, 0.025)]
        assert all(b < a for a, b in zip(ratios[:-1], ratios[1:]))
        assert ratios[-1] < 0.01

    def test_flux_scales_with_d_coefficient(self):
        # leading order: flux ~ (n-2)/2 * omega_{n-1} d_eps^{n-2}, linear in d^{n-2}
        eps = 0.05
        g1 = eps_scale(BubbleGeometry(3, ((0.1, 0.4),), kappa=0.5), eps)
        g2 = eps_scale(BubbleGeometry(3, ((0.2, 0.4),), kappa=0.5), eps)
        f1 = junction_flux(g1, 0).flux
        f2 = junction_flux(g2, 0).flux
        assert f2 / f1 == pytest.approx(2.0, rel=0.05)

    def test_n2_flux_ratio(self):
        base, _ = designed_geometry(n=2)
        ratios = [abs(junction_flux(eps_scale(base, e), 0).ratio - 1.0) for e in (0.7, 0.5, 0.35)]
        assert all(b < a for a, b in zip(ratios[:-1], ratios[1:]))


class TestRadialEigenvalues:
    def test_disk_n2_bessel(self):
        lam = radial_eigenvalues(disk_cell(2, 0.5, 2048), 1)[0]
        expect = (jn_zeros(0, 1)[0] / 0.5) ** 2
        assert lam == pytest.approx(expect, rel=1e-6)

    def test_ball_n3_pi_squared(self):
        lam = radial_eigenvalues(disk_cell(3, 1.0, 2048), 1)[0]
        assert lam == pytest.approx(math.pi**2, rel=1e-6)

    def test_eigenvalues_positive_and_ascending(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        lam = radial_eigenvalues(build_radial_cell(geom, 0, 128), 4)
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) > 0)

    def test_cap_cell_self_convergence(self):
        coarse = radial_eigenvalues(bubble_cap_cell(3, 1.0, 0.3, 512), 1)[0]
        fine = radial_eigenvalues(bubble_cap_cell(3, 1.0, 0.3, 1024), 1)[0]
        assert abs(coarse - fine) / fine < 1e-4

    def test_lambda1_converges_to_sigma(self):
        base, model = designed_geometry()
        errs = []
        for eps in (0.2, 0.1, 0.05):
            lam1, _ = mesh_limit_lambda1(eps_scale(base, eps), 256)
            errs.append(abs(lam1 - model.sigma[0]))
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]))

    def test_second_order_in_mesh(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        lams = [radial_eigenvalues(build_radial_cell(geom, 0, n), 1)[0] for n in (128, 256, 512)]
        richardson = lams[2] + (lams[2] - lams[1]) / 3.0
        ratio = (lams[0] - richardson) / (lams[1] - richardson)
        assert ratio == pytest.approx(4.0, rel=0.4)

    def test_homothety_exact_for_dyadic_scale(self):
        # a power-of-two rescale keeps every assembly operation exactly
        # equivariant, isolating the solver's eps^-2 consistency
        base, _ = designed_geometry()
        eps = 0.125
        geom = eps_scale(base, eps)
        cell = build_radial_cell(geom, 0, 256)
        lam = radial_eigenvalues(cell, 2)
        unit = RadialCell(cell.n, cell.annulus_nodes / eps, cell.arc_nodes, cell.b_eps / eps)
        lam_unit = radial_eigenvalues(unit, 2)
        assert np.max(np.abs(lam - lam_unit * eps**-2) / lam) < 1e-12

    def test_homothety_generic_scale_near_representation_floor(self):
        base, _ = designed_geometry()
        eps = 0.1
        geom = eps_scale(base, eps)
        cell = build_radial_cell(geom, 0, 256)
        lam = radial_eigenvalues(cell, 2)
        unit = RadialCell(cell.n, cell.annulus_nodes / eps, cell.arc_nodes, cell.b_eps / eps)
        lam_unit = radial_eigenvalues(unit, 2)
        assert np.max(np.abs(lam - lam_unit * eps**-2) / lam) < 1e-9

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ResolutionError):
            radial_eigenvalues(disk_cell(2, 1.0, 32), 1)

    def test_k_exceeding_unknowns_rejected(self):
        with pytest.raises(ResolutionError):
            radial_eigenvalues(disk_cell(2, 1.0, 64), 100)

    def test_deterministic(self):
        base, _ = designed_geometry()
        geom = eps_scale(base, 0.1)
        a = radial_eigenvalues(build_radial_cell(geom, 0, 128), 2)
        b = radial_eigenvalues(build_radial_cell(geom, 0, 128), 2)
        assert np.array_equal(a, b)


def seeded_radial_cells():
    """(label, cell, k) over n = 2, 3, 4 down to the smallest eps each
    pencil represents, two-gap designs from seeded targets, the 40-eigenvalue
    cell-eigs job and the 4096-node disks of ``reference_limits``."""
    rng = np.random.default_rng(606)
    ladders = {2: (0.4, 0.3, 0.2, 0.15, 0.13, 0.1), 3: (0.2, 0.1, 0.05, 0.025, 0.01, 0.001),
               4: (0.2, 0.1, 0.05, 0.025)}
    cases = []
    for n, eps_list in ladders.items():
        spec = validate_gap_spec([(1, 2)], 2) if n == 2 else random_gap_spec(rng, 2, n, 0.5, 8.0, 0.3)
        base, _ = design_geometry(spec, 0.5)
        for eps in eps_list:
            j = int(rng.integers(0, base.m))
            res = int(rng.choice([128, 192, 256]))
            cases.append((f"n{n}-eps{eps}-j{j}-res{res}", build_radial_cell(eps_scale(base, eps), j, res), 2))
    base, _ = design_geometry(validate_gap_spec([(1, 2)], 3), 0.5)
    cases.append(("n3-k40", build_radial_cell(eps_scale(base, 0.025), 0, 128), 40))
    cases.append(("n3-eps0.001-res768", build_radial_cell(eps_scale(base, 0.001), 0, 768), 2))
    for n in (2, 3, 4):
        cases.append((f"disk-n{n}", disk_cell(n, 0.25, 4096), 1))
    return cases


SEEDED_CELLS = seeded_radial_cells()


def designed_cell(eps=0.05, resolution=384):
    base, _ = designed_geometry()
    return build_radial_cell(eps_scale(base, eps), 0, resolution)


class TestRadialEngine:
    @pytest.mark.parametrize("label,cell,k", SEEDED_CELLS, ids=[c[0] for c in SEEDED_CELLS])
    def test_matches_frozen_reference(self, label, cell, k):
        got = radial_eigenvalues(cell, k)
        ref = reference_radial_eigenvalues(cell, k)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("fault", ["nan", "next_eigenvalue", "off_by_1e-3"])
    def test_predictor_faults_fall_back(self, monkeypatch, fault):
        # each fault hits the last prediction only, so the call falls back
        # after certifying the others; the fallback is the reference loop
        real_predict = cell_module._predict_eigenvalues
        real_bisect = cell_module._bisect_eigenvalues

        def faulty(diag, off, mass, k):
            w = real_predict(diag, off, mass, k + 1).copy()
            if fault == "nan":
                w[k - 1] = math.nan
            elif fault == "next_eigenvalue":
                w[k - 1] = w[k]
            else:
                w[k - 1] *= 1.0 + 1e-3
            return w[:k]

        fallbacks = []

        def counted_bisect(*args):
            fallbacks.append(args[-1])
            return real_bisect(*args)

        monkeypatch.setattr(cell_module, "_predict_eigenvalues", faulty)
        monkeypatch.setattr(cell_module, "_bisect_eigenvalues", counted_bisect)
        for cell, k in ((designed_cell(0.05, 128), 3), (disk_cell(2, 0.25, 1024), 2)):
            got = radial_eigenvalues(cell, k)
            assert np.array_equal(got, reference_radial_eigenvalues(cell, k))
        assert fallbacks == [3, 2]

    def test_fast_path_takes_two_counts_per_eigenvalue(self, monkeypatch):
        counts = []
        real_count = cell_module._sturm_count

        def counted(*args):
            counts.append(args[-1])
            return real_count(*args)

        monkeypatch.setattr(cell_module, "_sturm_count", counted)
        for resolution in (384, 768):
            counts.clear()
            lam = radial_eigenvalues(designed_cell(0.05, resolution), 2)
            assert len(counts) <= 2 * len(lam)

    def test_certified_window_encloses_each_eigenvalue(self):
        cell = designed_cell(0.05, 384)
        diag, off, mass = cell_module._assemble_path(cell)
        Kd, Ke, Md = diag[1:].tolist(), off[1:].tolist(), mass[1:].tolist()
        eta = cell_module.REFINE_WINDOW
        for kk, lam in enumerate(radial_eigenvalues(cell, 5), start=1):
            assert cell_module._sturm_count(Kd, Ke, Md, lam * (1 - eta)) == kk - 1
            assert cell_module._sturm_count(Kd, Ke, Md, lam * (1 + eta)) >= kk


class TestReferenceLimits:
    def test_disk_reference_n2(self):
        base = BubbleGeometry(2, ((1.0, 1.0),), kappa=1.0)
        ref = reference_limits(base, 0)
        expect = (jn_zeros(0, 1)[0] / 0.5) ** 2
        assert ref.lambda1_D_disk == pytest.approx(expect, rel=1e-6)

    def test_ball_reference_n3(self):
        base = BubbleGeometry(3, ((1.0, 1.0),), kappa=2.0)
        ref = reference_limits(base, 0)
        assert ref.lambda1_D_disk == pytest.approx(math.pi**2, rel=1e-6)

    def test_sphere_second_eigenvalue(self):
        base = BubbleGeometry(2, ((0.5, 1.0),), kappa=1.0)
        ref = reference_limits(base, 0)
        assert ref.lambda2_sphere == pytest.approx(2.0, rel=1e-14)

    def test_cube_neumann(self):
        base = BubbleGeometry(3, ((1.0, 1.0),), kappa=0.5)
        ref = reference_limits(base, 0)
        assert ref.lambda2_N_cube == pytest.approx(math.pi**2, rel=1e-15)

    def test_minima(self):
        base, _ = designed_geometry()
        ref = reference_limits(base, 0)
        assert ref.Lj_lambda2 == min(ref.lambda1_D_disk, ref.lambda2_sphere)
        assert ref.L_lambda_m_plus_2 == min(ref.lambda2_N_cube, ref.lambda2_sphere)


class TestConvergenceTable:
    def test_columns_and_trends(self):
        base, model = designed_geometry()
        rows = convergence_table(base, 0, [0.2, 0.1, 0.05], resolution=128)
        assert [r.eps for r in rows] == [0.2, 0.1, 0.05]
        for r in rows:
            assert r.lambda1 <= r.rayleigh_upper + 1e-10
            assert r.sigma_target == pytest.approx(model.sigma[0], rel=1e-12)
        errs = [abs(r.lambda1 - r.sigma_target) for r in rows]
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
        devs = [abs(r.eps2_lambda2 - r.Lj_lambda2) / r.Lj_lambda2 for r in rows]
        assert devs[-1] < 0.05

    def test_requires_decreasing_eps(self):
        base, _ = designed_geometry()
        with pytest.raises(GeometryError):
            convergence_table(base, 0, [0.1, 0.2], resolution=128)

    def test_csv_header(self):
        base, _ = designed_geometry()
        rows = convergence_table(base, 0, [0.2], resolution=128)
        lines = convergence_rows_csv(rows)
        assert lines[0] == "eps,lambda1,lambda2,rayleigh_upper,eps2_lambda2,sigma_target,Lj_lambda2,resolution"
        assert len(lines) == 2
