import math

import numpy as np
import pytest

from gapforge.design import (
    BubbleGeometry,
    HomogenizedModel,
    design_geometry,
    forward_model,
    solve_weight_system,
    sphere_measure,
    weights_closed_form,
)
from gapforge.dispersion import mu_roots
from gapforge.errors import GeometryError
from gapforge.intervals import validate_gap_spec

from helpers import random_gap_spec, sphere_measure_oracle


class TestSphereMeasure:
    @pytest.mark.parametrize("k,expected", [(1, 2 * math.pi), (2, 4 * math.pi), (3, 2 * math.pi**2)])
    def test_closed_forms(self, k, expected):
        assert sphere_measure(k) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_against_quadrature_recursion(self, k):
        assert sphere_measure(k) == pytest.approx(sphere_measure_oracle(k), rel=1e-10)

    def test_rejects_k_below_one(self):
        with pytest.raises(GeometryError):
            sphere_measure(0)


class TestForwardModel:
    def test_unit_resonance_n3(self):
        geom = BubbleGeometry(3, ((1 / (2 * math.pi), (1 / (2 * math.pi**2)) ** (1 / 3)),))
        model = forward_model(geom)
        assert model.sigma[0] == pytest.approx(1.0, rel=1e-12)
        assert model.rho[0] == pytest.approx(1.0, rel=1e-12)

    def test_unit_resonance_n2(self):
        geom = BubbleGeometry(2, ((1 / math.pi, (4 * math.pi) ** -0.5),))
        model = forward_model(geom)
        assert model.sigma[0] == pytest.approx(1.0, rel=1e-12)
        assert model.rho[0] == pytest.approx(1.0, rel=1e-12)

    def test_duplicate_resonances_rejected(self):
        geom = BubbleGeometry(3, ((0.1, 0.2), (0.1, 0.2)))
        with pytest.raises(GeometryError):
            forward_model(geom)

    def test_output_sorted_by_sigma(self):
        geom = BubbleGeometry(3, ((0.05, 0.1), (0.4, 0.12)))
        model = forward_model(geom)
        assert model.sigma[0] < model.sigma[1]


class TestWeights:
    def test_single_interval(self):
        spec = validate_gap_spec([(1, 2)], 3)
        assert weights_closed_form(spec) == pytest.approx((1.0,))
        assert solve_weight_system(spec) == pytest.approx((1.0,))

    def test_two_intervals(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3)
        assert weights_closed_form(spec) == pytest.approx((1.5, 1 / 6), rel=1e-14)
        assert solve_weight_system(spec) == pytest.approx((1.5, 1 / 6), rel=1e-12)

    def test_half_weight(self):
        spec = validate_gap_spec([(2, 3)], 3)
        assert weights_closed_form(spec) == pytest.approx((0.5,))

    def test_closed_form_satisfies_linear_system(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3)
        rho = weights_closed_form(spec)
        for beta in spec.betas:
            total = sum(a * r / (beta - a) for a, r in zip(spec.alphas, rho))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_solver_matches_closed_form_randomly(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            spec = random_gap_spec(rng, m=int(rng.integers(1, 9)), n=3)
            wc = np.array(weights_closed_form(spec))
            ws = np.array(solve_weight_system(spec))
            assert np.max(np.abs(wc - ws) / np.abs(wc)) < 1e-9

    def test_weights_positive(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            spec = random_gap_spec(rng, m=int(rng.integers(1, 7)), n=2)
            assert all(r > 0 for r in weights_closed_form(spec))


class TestDesignGeometry:
    def test_single_gap_n3_closed_form(self):
        spec = validate_gap_spec([(1, 2)], 3)
        geom, model = design_geometry(spec)
        d, b = geom.channels[0]
        assert d == pytest.approx(1 / (2 * math.pi), rel=1e-14)
        assert b == pytest.approx((1 / (2 * math.pi**2)) ** (1 / 3), rel=1e-14)
        assert d == pytest.approx(0.1591549, rel=1e-6)
        assert b == pytest.approx(0.37003, rel=1e-4)

    def test_two_gaps_n3(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3)
        geom, model = design_geometry(spec)
        d = [c[0] for c in geom.channels]
        assert d == pytest.approx([3 / (4 * math.pi), 1 / (4 * math.pi)], rel=1e-14)
        assert model.rho == pytest.approx((1.5, 1 / 6), rel=1e-12)
        b = [c[1] for c in geom.channels]
        assert b == pytest.approx([(1.5 / (2 * math.pi**2)) ** (1 / 3), (0.5 / (6 * math.pi**2)) ** (1 / 3)], rel=1e-13)

    def test_single_gap_n2(self):
        spec = validate_gap_spec([(1, 2)], 2)
        geom, _ = design_geometry(spec)
        d, b = geom.channels[0]
        assert d == pytest.approx(1 / math.pi, rel=1e-14)
        assert b == pytest.approx((4 * math.pi) ** -0.5, rel=1e-14)

    def test_round_trip_sigma_exact_mu_to_tolerance(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.choice([2, 3, 4]))
            spec = random_gap_spec(rng, m=int(rng.integers(1, 6)), n=n)
            geom, model = design_geometry(spec)
            sig = np.array(model.sigma)
            alf = np.array(spec.alphas)
            assert np.max(np.abs(sig - alf) / alf) < 1e-12
            mu = np.array(mu_roots(model))
            bet = np.array(spec.betas)
            assert np.max(np.abs(mu - bet) / bet) < 1e-9

    def test_scaling_property(self):
        # scaling all edges by c scales sigma and mu by c, leaves rho fixed
        spec = validate_gap_spec([(1, 2), (3, 4)], 3)
        c = 7.5
        scaled = validate_gap_spec([(c * 1, c * 2), (c * 3, c * 4)], 3)
        _, m1 = design_geometry(spec)
        _, m2 = design_geometry(scaled)
        assert np.asarray(m2.sigma) == pytest.approx(c * np.asarray(m1.sigma), rel=1e-12)
        assert np.asarray(m2.rho) == pytest.approx(np.asarray(m1.rho), rel=1e-12)
        assert np.asarray(mu_roots(m2)) == pytest.approx(c * np.asarray(mu_roots(m1)), rel=1e-10)


class TestHomogenizedModel:
    def test_requires_increasing_sigma(self):
        with pytest.raises(GeometryError):
            HomogenizedModel(3, (2.0, 1.0), (1.0, 1.0))

    def test_requires_positive_rho(self):
        with pytest.raises(GeometryError):
            HomogenizedModel(3, (1.0,), (0.0,))

    def test_requires_dimension_at_least_two(self):
        with pytest.raises(GeometryError, match="dimension n=1"):
            HomogenizedModel(1, (1.0,), (1.0,))

    @pytest.mark.parametrize("sigma, rho", [
        ((math.nan,), (1.0,)),
        ((math.inf,), (1.0,)),
        ((1.0, 2.0), (1.0, math.nan)),
        ((1.0,), (math.inf,)),
        ((1e300,), (1e300,)),  # each value finite, sigma * rho is not
        ((1e308, 1.5e308), (1.0, 1.0)),  # each product finite, their sum is not
    ])
    def test_rejects_non_finite_values(self, sigma, rho):
        with pytest.raises(GeometryError):
            HomogenizedModel(3, sigma, rho)
