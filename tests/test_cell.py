import gc
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jn_zeros

import gapforge.cell as cell_module
from gapforge import cli
from gapforge.cell import (
    RadialCell,
    angular_integral_F,
    build_radial_cell,
    convergence_table,
    cutoff_profile,
    eps_scale,
    junction_flux,
    radial_eigenvalues,
    radial_row,
    reference_limits,
    trial_constants,
    trial_rayleigh,
)
from gapforge.design import BubbleGeometry, design_geometry
from gapforge.errors import GeometryError, ResolutionError, ScaleError
from gapforge.intervals import validate_gap_spec

from helpers import (
    angular_integral_F_quad,
    bessel_zero_oracle,
    disk_cell,
    exact_rayleigh_quotient,
    random_gap_spec,
    reference_radial_eigenvalues,
    sturm_count_as_first_written,
)


def designed_geometry(n=3, kappa=0.5):
    spec = validate_gap_spec([(1, 2)], n)
    geom, model = design_geometry(spec, kappa)
    return geom, model


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
        # exp(-1/(d eps^2)) at n = 2 and d eps^(n/(n-2)) above it reach 0.0
        for n, eps in ((2, 0.01), (3, 1e-300), (4, 1e-200)):
            base = BubbleGeometry(n, ((1.0, 1.0),), kappa=0.5)
            with pytest.raises(ScaleError, match="increase eps"):
                eps_scale(base, eps)

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


# (n, eps) at which the junction angle of the [1,2] design passes pi/4
WIDE_JUNCTIONS = ((24, 0.1), (40, 0.1), (72, 0.9))


class TestWideJunction:
    """Past Theta = pi/4 the cutoff window starts at Theta, so the cap value
    1 + C F phi meets the annulus value 1 + C F at the junction."""

    @pytest.mark.parametrize("n, eps", WIDE_JUNCTIONS)
    def test_cutoff_is_one_at_the_junction(self, n, eps):
        base, _ = design_geometry(validate_gap_spec([(1, 2)], n), 0.5)
        theta = eps_scale(base, eps).channels[0].theta
        assert theta > math.pi / 4
        assert cutoff_profile(theta, theta) == 1.0
        assert cell_module.cutoff_profile_deriv(theta, theta) == 0.0
        assert cutoff_profile(0.5 * math.pi, theta) == 0.0

    def test_narrow_junction_keeps_the_quarter_window(self):
        theta = np.linspace(0.0, math.pi, 101)
        for junction in (0.0, 0.1, math.pi / 4):
            assert np.array_equal(cutoff_profile(theta, junction), cutoff_profile(theta))
            assert np.array_equal(cell_module.cutoff_profile_deriv(theta, junction),
                                  cell_module.cutoff_profile_deriv(theta))

    @pytest.mark.parametrize("n, eps", WIDE_JUNCTIONS)
    def test_bound_lies_above_the_fine_mesh(self, n, eps):
        # the raw discrete value at 1536 nodes per segment sits above the
        # eigenvalue; the bound must lie above it too
        base, _ = design_geometry(validate_gap_spec([(1, 2)], n), 0.5)
        geom = eps_scale(base, eps)
        mesh = radial_eigenvalues(build_radial_cell(geom, 0, 1536), 1)[0]
        assert trial_rayleigh(geom, 0).quotient >= mesh

    def test_cell_eigs_dim_40_passes(self, tmp_path):
        argv = ["cell-eigs", "--intervals", "1,2", "--dim", "40", "--eps", "0.1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0


class TestRayleighAndFlux:
    def test_quotient_bounds_lambda1(self):
        # compare against the mesh limit: the raw discrete value approaches
        # the eigenvalue from above and can sit above the continuum bound
        base, _ = designed_geometry()
        for eps in (0.2, 0.1, 0.05):
            geom = eps_scale(base, eps)
            bound = trial_rayleigh(geom, 0)
            assert bound.quotient >= radial_row(geom, 0, 256, 1).lambda1 - 1e-10

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

    def test_lambda1_converges_to_sigma(self):
        base, model = designed_geometry()
        errs = []
        for eps in (0.2, 0.1, 0.05):
            errs.append(abs(radial_row(eps_scale(base, eps), 0, 256, 1).lambda1 - model.sigma[0]))
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
    cell-eigs job and 4096-node disks."""
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
# seeded cells on which a float vector near each of the first two
# eigenvectors has an exact Rayleigh quotient within 1e-16 of the eigenvalue
ORACLE_CELLS = [c for c in SEEDED_CELLS if c[0].startswith(
    ("n2-eps0.13-", "n3-eps0.025-", "n3-eps0.001-j", "n4-eps0.025-", "disk-n3"))]


def count_sturm_passes(monkeypatch):
    """The shifts of every cell._sturm_count call from here on."""
    counts = []
    real_count = cell_module._sturm_count

    def counted(*args):
        counts.append(args[-1])
        return real_count(*args)

    monkeypatch.setattr(cell_module, "_sturm_count", counted)
    return counts


def designed_cell(eps=0.05, resolution=384):
    base, _ = designed_geometry()
    return build_radial_cell(eps_scale(base, eps), 0, resolution)


class TestRadialEngine:
    @pytest.mark.parametrize("label,cell,k", SEEDED_CELLS, ids=[c[0] for c in SEEDED_CELLS])
    def test_matches_frozen_reference(self, label, cell, k):
        got = radial_eigenvalues(cell, k)
        ref = reference_radial_eigenvalues(cell, k)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12
        # lambda1 does not depend on k: radial_row reads it from a k = 2 solve
        assert radial_eigenvalues(cell, 1)[0] == got[0]

    @pytest.mark.parametrize("label,cell,k", ORACLE_CELLS, ids=[c[0] for c in ORACLE_CELLS])
    def test_matches_exact_rayleigh_quotient(self, label, cell, k):
        # the exact rational quotient of a float vector near the eigenvector
        # is within rounding of the eigenvalue; a quotient that keeps
        # rounding noise in its energy sits above it by 1e-10 to 1e-6
        for lam in radial_eigenvalues(cell, 2):
            exact = exact_rayleigh_quotient(cell, lam)
            assert abs(lam - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("fault", ["nan", "next_eigenvalue", "off_by_1e-3", "negative", "all_nan"])
    def test_predictor_faults_fall_back(self, monkeypatch, fault):
        # every fault but all_nan hits the last prediction only; its bracket
        # grows from the refined fault or from the previous eigenvalue, and
        # bisects
        real_predict = cell_module._predict_eigenvalues

        def faulty(diag, off, mass, k):
            w = real_predict(diag, off, mass, k + 1).copy()
            if fault == "nan":
                w[k - 1] = math.nan
            elif fault == "next_eigenvalue":
                w[k - 1] = w[k]
            elif fault == "off_by_1e-3":
                w[k - 1] *= 1.0 + 1e-3
            elif fault == "negative":
                w[k - 1] = -w[k - 1]
            else:
                w[:] = math.nan
            return w[:k]

        monkeypatch.setattr(cell_module, "_predict_eigenvalues", faulty)
        counts = count_sturm_passes(monkeypatch)
        for cell, k in ((designed_cell(0.05, 128), 3), (disk_cell(2, 0.25, 1024), 2)):
            counts.clear()
            got = radial_eigenvalues(cell, k)
            ref = reference_radial_eigenvalues(cell, k)
            assert np.max(np.abs(got - ref) / ref) <= 1e-12
            assert 2 * k < len(counts) <= 64 * k

    def test_n2_cell_without_prediction_takes_few_counts(self, monkeypatch):
        # dstebz fails on this cell; the Gershgorin bisection this replaced
        # took 941.5 counts per eigenvalue
        base, _ = designed_geometry(n=2)
        cell = build_radial_cell(eps_scale(base, 0.1), 0, 384)
        cond, mass = cell_module._assemble_path(cell)
        diag, off = cell_module._tridiagonal(cond)
        assert np.all(np.isnan(cell_module._predict_eigenvalues(diag, off, mass, 2)))
        counts = count_sturm_passes(monkeypatch)
        got = radial_eigenvalues(cell, 2)
        assert len(counts) <= 64 * 2
        ref = reference_radial_eigenvalues(cell, 2)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_singular_refinement_is_bisected(self, monkeypatch):
        # the first solve at the prediction and the first one ulp above it
        # are singular, as at a prediction that is an exact eigenvalue of
        # both shifted pencils: the refinement of the prediction fails, that
        # of the bisection midpoint (two solves) does not.  dgtsv reports a
        # singular pivot as info > 0
        real_solve = cell_module.dgtsv
        calls = []

        def singular_first(*args, **kwargs):
            calls.append(None)
            if len(calls) % 4 in (1, 2):
                du2, d, du, x, _ = real_solve(*args, **kwargs)
                return du2, d, du, x, 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cell_module, "dgtsv", singular_first)
        for cell, k in ((designed_cell(0.05, 128), 3), (disk_cell(2, 0.25, 1024), 2)):
            calls.clear()
            got = radial_eigenvalues(cell, k)
            assert len(calls) == 4 * k
            ref = reference_radial_eigenvalues(cell, k)
            assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_fast_path_takes_two_counts_per_eigenvalue(self, monkeypatch):
        counts = count_sturm_passes(monkeypatch)
        for resolution in (384, 768):
            counts.clear()
            lam = radial_eigenvalues(designed_cell(0.05, resolution), 2)
            assert len(counts) <= 2 * len(lam)

    def test_singular_prediction_is_refined_one_ulp_up(self, monkeypatch):
        # K - rM is exactly singular at one dstebz prediction of this cell;
        # refining at the next float up keeps the two-count certificate,
        # where a bracket and bisection took 125 counts for the 40 values
        counts = count_sturm_passes(monkeypatch)
        cell = designed_cell(0.025, 128)
        got = radial_eigenvalues(cell, 40)
        assert len(counts) <= 2 * 40
        ref = reference_radial_eigenvalues(cell, 40)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_certified_window_encloses_each_eigenvalue(self):
        cell = designed_cell(0.05, 384)
        pencil = cell_module._SturmPencil(*pencil_arrays(cell))
        eta = cell_module.REFINE_WINDOW
        for kk, lam in enumerate(radial_eigenvalues(cell, 5), start=1):
            assert cell_module._sturm_count(pencil, lam * (1 - eta)) == kk - 1
            assert cell_module._sturm_count(pencil, lam * (1 + eta)) >= kk


def golden_radial_cells():
    """(label, cell, k) of every radial solve behind tests/golden: [1,2] at
    n = 3, kappa 0.5 and 2, eps 0.2 and 0.1, at N = 128 and 2N."""
    cases = []
    for kappa in (0.5, 2.0):
        base, _ = design_geometry(validate_gap_spec([(1, 2)], 3), kappa)
        for eps in (0.2, 0.1):
            for res in (128, 256):
                cases.append((f"golden-kappa{kappa}-eps{eps}-res{res}",
                              build_radial_cell(eps_scale(base, eps), 0, res), 3))
    return cases


COUNT_CELLS = SEEDED_CELLS + golden_radial_cells()


def pencil_arrays(cell):
    cond, mass = cell_module._assemble_path(cell)
    diag, off = cell_module._tridiagonal(cond)
    return diag, off, mass


def count_shifts(cell, k, rng):
    """Shifts at r(1 -+ REFINE_WINDOW) around the first k eigenvalues r, at
    the eigenvalues, random ones up to twice the k-th, 0, negatives and
    +-1e300."""
    lam = radial_eigenvalues(cell, k)
    eta = cell_module.REFINE_WINDOW
    return [*(lam * (1 - eta)), *(lam * (1 + eta)), *lam, *rng.uniform(0.0, 2.0 * lam[-1], 8),
            0.0, -0.0, -1.0, -lam[0], 1e300, -1e300]


class TestSturmCount:
    @pytest.mark.parametrize("label,cell,k", COUNT_CELLS, ids=[c[0] for c in COUNT_CELLS])
    def test_matches_python_recurrence(self, label, cell, k):
        diag, off, mass = pencil_arrays(cell)
        pencil = cell_module._SturmPencil(diag, off, mass)
        lists = diag.tolist(), off.tolist(), mass.tolist()
        for lam in count_shifts(cell, k, np.random.default_rng(len(diag))):
            assert cell_module._sturm_count(pencil, lam) == sturm_count_as_first_written(*lists, lam), lam

    # every guarded pivot but the first is followed by a zero coupling, so
    # the guard alone decides whether it counts
    @pytest.mark.parametrize("diag, off, lam, expect", [
        # p1 = 1 - 1/1 is exactly 0: guarded to -PIVMIN and counted
        ([1.0, 1.0, 1.0], [-1.0, -1.0], 0.0, 1),
        ([1.0, 1.0, 1.0], [-1.0, 0.0], 0.0, 1),
        # pivots in 0 < |p| < PIVMIN, normal and subnormal: counted as -PIVMIN
        ([1e-301, 2.0], [0.0], 0.0, 1),
        ([1.0, 1e-305, 3.0], [0.0, 0.0], 0.0, 1),
        ([1.0, 5e-324, 3.0], [0.0, 0.0], 0.0, 1),
        # a pivot of exactly PIVMIN is not guarded
        ([1.0, 1e-300, 3.0], [0.0, 0.0], 0.0, 0),
        # (1 - 2) - 0/p at the shift 2: both pivots negative
        ([1.0, 1.0], [0.0], 2.0, 2),
    ])
    def test_guarded_pivots(self, diag, off, lam, expect):
        diag, off = np.array(diag), np.array(off)
        mass = np.ones(len(diag))
        pencil = cell_module._SturmPencil(diag, off, mass)
        assert sturm_count_as_first_written(diag.tolist(), off.tolist(), mass.tolist(), lam) == expect
        assert cell_module._sturm_count(pencil, lam) == expect

    def test_overflowing_shift_counts_without_a_warning(self):
        # lam * mass overflows to inf in the first entry, as in Python floats;
        # the tier-1 run turns a RuntimeWarning into an error
        diag, off, mass = np.ones(2), np.zeros(1), np.array([1e10, 1.0])
        lists = diag.tolist(), off.tolist(), mass.tolist()
        for lam in (1e300, -1e300):
            expect = sturm_count_as_first_written(*lists, lam)
            assert cell_module._sturm_count(cell_module._SturmPencil(diag, off, mass), lam) == expect
        assert expect == 0

    def test_rejects_mismatched_shapes(self):
        # dlaebz reads E2 by address: a short off-diagonal would be read past its end
        for diag, off, mass in ((3, 3, 3), (3, 1, 3), (3, 2, 2)):
            with pytest.raises(ValueError, match="pencil of shapes"):
                cell_module._SturmPencil(np.ones(diag), np.ones(off), np.ones(mass))

    def test_counts_after_garbage_collection(self):
        # the pencil holds every array dlaebz reads by address: its inputs
        # are temporaries here, collected and their memory reused before the
        # counts
        cases = [(label, cell, k) for label, cell, k in SEEDED_CELLS if label.startswith(("n2-", "disk-"))]
        pencils = [cell_module._SturmPencil(*pencil_arrays(cell)) for _, cell, _ in cases]
        gc.collect()
        junk = [np.full(len(p.diag), np.nan) for p in pencils for _ in range(4)]
        for pencil, (_, cell, k) in zip(pencils, cases):
            lists = [a.tolist() for a in pencil_arrays(cell)]
            for lam in count_shifts(cell, k, np.random.default_rng(7)):
                assert cell_module._sturm_count(pencil, lam) == sturm_count_as_first_written(*lists, lam)
        assert all(np.isnan(a).all() for a in junk)


def load_workloads(monkeypatch):
    """perfbench/workloads.py, registered for the run of one test (its
    dataclasses look their module up by name)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class OraclePencil:
    """A pencil counted by the Python recurrence."""

    def __init__(self, diag, off, mass):
        self.lists = diag.tolist(), off.tolist(), mass.tolist()


def test_radial_ladder_bit_identical_to_python_counts(tmp_path, monkeypatch):
    # the five jobs of one benchmark round (seed 1): their artifacts, every
    # eigenvalue in full precision, are the same bytes with either count
    jobs = load_workloads(monkeypatch).build("radial-ladder", 1).jobs
    assert len(jobs) == 5

    def run(root):
        for job in jobs:
            cfg = cli.load_config(None, {**job.config, "out": str(root / job.key)})
            assert all(check["pass"] for check in cli.run_pipeline(cfg).checks)
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    compiled = run(tmp_path / "dlaebz")
    monkeypatch.setattr(cell_module, "_SturmPencil", OraclePencil)
    monkeypatch.setattr(cell_module, "_sturm_count",
                        lambda pencil, lam: sturm_count_as_first_written(*pencil.lists, lam))
    assert run(tmp_path / "python") == compiled
    assert len(compiled) == 5


def log_radial_solves(monkeypatch):
    """One dict per cell.radial_eigenvalues call from here on: its cell, its
    shifts, its values and the number of bisect calls it made."""
    solves = []
    real_solve, real_bisect = cell_module.radial_eigenvalues, cell_module.bisect

    def solve(cell, k, shifts=None):
        solves.append({"cell": cell, "shifts": shifts, "bisections": 0})
        solves[-1]["values"] = real_solve(cell, k, shifts)
        return solves[-1]["values"]

    def bisect(*args):
        solves[-1]["bisections"] += 1
        return real_bisect(*args)

    monkeypatch.setattr(cell_module, "radial_eigenvalues", solve)
    monkeypatch.setattr(cell_module, "bisect", bisect)
    return solves


def golden_rows():
    """(geometry, resolution, k) of every radial record behind tests/golden:
    the convergence rows of [1,2] at n = 3, kappa 0.5 and 2, eps 0.2 and
    0.1, and the cell-eigs job."""
    rows = []
    for kappa in (0.5, 2.0):
        base, _ = design_geometry(validate_gap_spec([(1, 2)], 3), kappa)
        rows += [(eps_scale(base, eps), 128, 1) for eps in (0.2, 0.1)]
    return [*rows, (rows[1][0], 128, 3)]


class TestMeshTransfer:
    """radial_row predicts the 2N eigenvalues from the N ones."""

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_one_dstebz_prediction_per_row(self, monkeypatch, k):
        calls = []
        real_predict = cell_module._predict_eigenvalues
        monkeypatch.setattr(cell_module, "_predict_eigenvalues", lambda *a: calls.append(a[-1]) or real_predict(*a))
        radial_row(eps_scale(designed_geometry()[0], 0.025), 0, 128, k)
        assert calls == [max(k, 2)]

    def test_row_keeps_k_eigenvalues(self):
        geom = eps_scale(designed_geometry()[0], 0.1)
        cell = build_radial_cell(geom, 0, 128)
        for k in (1, 2, 3):
            row = radial_row(geom, 0, 128, k)
            assert len(row.eigenvalues) == k
            assert row.eigenvalues == tuple(radial_eigenvalues(cell, k).tolist())

    def test_golden_fine_meshes_certified_and_exact(self, monkeypatch):
        # certified by the first window (no bisection), and each 2N value
        # within 1e-14 of the exact Rayleigh quotient of its near-eigenvector
        solves = log_radial_solves(monkeypatch)
        for geom, resolution, k in golden_rows():
            row = radial_row(geom, 0, resolution, k)
            fine = solves[-1]
            assert fine["shifts"] is not None and fine["bisections"] == 0
            assert row.lambda2 == fine["values"][1]
            for lam in fine["values"]:
                exact = exact_rayleigh_quotient(fine["cell"], lam)
                assert abs(lam - exact) <= 1e-14 * exact

    def test_radial_ladder_fine_meshes_certified_by_the_first_window(self, tmp_path, monkeypatch):
        # every job of one benchmark round (seed 1): 15 convergence rows and
        # the 40-eigenvalue cell-eigs job
        jobs = load_workloads(monkeypatch).build("radial-ladder", 1).jobs
        solves = log_radial_solves(monkeypatch)
        for job in jobs:
            cli.run_pipeline(cli.load_config(None, {**job.config, "out": str(tmp_path / job.key)}))
        fine = [s for s in solves if s["shifts"] is not None]
        assert len(fine) == 16 and len(solves) == 32
        assert all(s["bisections"] == 0 for s in fine)

    @pytest.mark.parametrize("fault", ["nan", "negative", "next_eigenvalue", "off_by_1e-3"])
    def test_shift_faults_fall_back(self, monkeypatch, fault):
        # the fault hits the last shift; a shift off by 1e-3 (a coarse-mesh
        # error) still converges, the others cost a bracket and bisection
        counts = count_sturm_passes(monkeypatch)
        for coarse, fine, k in ((designed_cell(0.05, 128), designed_cell(0.05, 256), 3),
                                (disk_cell(2, 0.25, 1024), disk_cell(2, 0.25, 2048), 2)):
            shifts = radial_eigenvalues(coarse, k + 1).tolist()
            if fault == "nan":
                shifts[k - 1] = math.nan
            elif fault == "negative":
                shifts[k - 1] = -shifts[k - 1]
            elif fault == "next_eigenvalue":
                shifts[k - 1] = shifts[k]
            else:
                shifts[k - 1] *= 1.0 + 1e-3
            counts.clear()
            got = radial_eigenvalues(fine, k, shifts[:k])
            ref = reference_radial_eigenvalues(fine, k)
            assert np.max(np.abs(got - ref) / ref) <= 1e-12
            if fault == "off_by_1e-3":
                assert len(counts) == 2 * k
            else:
                assert 2 * k < len(counts) <= 64 * k

    def test_shift_count_must_match_k(self):
        with pytest.raises(ValueError, match="shifts"):
            radial_eigenvalues(designed_cell(0.05, 128), 2, [1.0])


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

    def test_minima(self):
        base, _ = designed_geometry()
        ref = reference_limits(base, 0)
        assert ref.Lj_lambda2 == min(ref.lambda1_D_disk, ref.lambda2_sphere)

    # j_{n/2-1,1} for n = 2 ... 6
    FROZEN_ZEROS = (2.404825557695773, math.pi, 3.8317059702075125, 4.493409457909064, 5.135622301840683)

    @pytest.mark.parametrize("n, zero", list(zip(range(2, 7), FROZEN_ZEROS)))
    def test_disk_term_frozen_zeros(self, n, zero):
        ref = reference_limits(BubbleGeometry(n, ((1.0, 1.0),), kappa=2.0), 0)
        assert math.sqrt(ref.lambda1_D_disk) == pytest.approx(zero, rel=1e-15)

    def test_disk_term_matches_scipy_special(self):
        # radius 1, so the term is the squared zero; its square root adds
        # at most one ulp
        for n in range(2, 343):
            nu = 0.5 * n - 1.0
            zero = math.sqrt(reference_limits(BubbleGeometry(n, ((1.0, 1.0),), kappa=2.0), 0).lambda1_D_disk)
            assert zero == pytest.approx(bessel_zero_oracle(nu)[0], rel=1e-15), n
            if n % 2 == 0:
                assert zero == pytest.approx(jn_zeros(int(nu), 1)[0], rel=1e-15), n

    def test_solves_no_mesh(self, monkeypatch):
        calls = []
        solve = cell_module.radial_eigenvalues
        monkeypatch.setattr(cell_module, "radial_eigenvalues", lambda *a: calls.append(a) or solve(*a))
        for n in (2, 3, 72, 150):
            reference_limits(BubbleGeometry(n, ((1.0, 1.0),), kappa=0.5), 0)
        assert calls == []


class TestConvergenceTable:
    def test_columns_and_trends(self):
        base, model = designed_geometry()
        rows = convergence_table(base, 0, [0.2, 0.1, 0.05], resolution=128)
        assert [r.eps for r in rows] == [0.2, 0.1, 0.05]
        for r in rows:
            assert r.lambda1 <= r.rayleigh_upper + 1e-10
        errs = [abs(r.lambda1 - model.sigma[0]) for r in rows]
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
        Lj = reference_limits(base, 0).Lj_lambda2
        devs = [abs(r.eps * r.eps * r.lambda2 - Lj) / Lj for r in rows]
        assert devs[-1] < 0.05

    def test_requires_decreasing_eps(self):
        base, _ = designed_geometry()
        with pytest.raises(GeometryError):
            convergence_table(base, 0, [0.1, 0.2], resolution=128)
