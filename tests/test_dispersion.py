import math

import numpy as np
import pytest

from gapforge.design import HomogenizedModel, design_geometry
from gapforge.dispersion import (
    dispersion_eval,
    f_eval,
    level_set_roots,
    limit_spectrum,
    mu_roots,
    sample_curve,
)
from gapforge.errors import GapForgeError, PoleError

from helpers import level_set_roots_via_polynomial, random_gap_spec


def unit_model():
    return HomogenizedModel(3, (1.0,), (1.0,))


def random_model(rng, m):
    sigma = np.sort(rng.uniform(0.1, 50.0, size=m))
    while np.any(np.diff(sigma) < 1e-3):
        sigma = np.sort(rng.uniform(0.1, 50.0, size=m))
    rho = rng.uniform(0.05, 5.0, size=m)
    return HomogenizedModel(3, tuple(sigma), tuple(rho))


class TestFEval:
    def test_at_zero(self):
        assert f_eval(unit_model(), 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_root_at_sigma_plus_sigma_rho(self):
        assert f_eval(unit_model(), 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            f_eval(unit_model(), 1.0)


class TestDispersionEval:
    def test_zero_factor(self):
        assert dispersion_eval(unit_model(), 0.0) == 0.0

    def test_left_branch_value(self):
        assert dispersion_eval(unit_model(), 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_right_branch_value(self):
        assert dispersion_eval(unit_model(), 3.0) == pytest.approx(1.5, rel=1e-14)


class TestMuRoots:
    def test_m1_closed_form(self):
        assert mu_roots(unit_model()) == pytest.approx((2.0,), rel=1e-12)

    def test_m1_closed_form_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s = float(rng.uniform(0.01, 100.0))
            r = float(rng.uniform(0.01, 10.0))
            model = HomogenizedModel(3, (s,), (r,))
            mu = mu_roots(model)[0]
            assert abs(mu - s * (1 + r)) / (s * (1 + r)) < 1e-12

    def test_designed_two_gap_model(self):
        model = HomogenizedModel(3, (1.0, 3.0), (1.5, 1 / 6))
        assert mu_roots(model) == pytest.approx((2.0, 4.0), rel=1e-12)

    def test_residual_small_unit_model(self):
        mu = mu_roots(unit_model())[0]
        assert abs(f_eval(unit_model(), mu)) < 1e-10

    def test_residual_at_conditioned_floor(self):
        # |F(mu_hat)| <= F'(mu) * |mu_hat - mu| with the solver at the
        # float-spacing limit, so budget a few hundred ulps of mu * F'
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(1, 6)))
            for mu in mu_roots(model):
                fprime = sum(s * r / (s - mu) ** 2 for s, r in zip(model.sigma, model.rho))
                assert abs(f_eval(model, mu)) < 500 * np.finfo(float).eps * mu * fprime + 1e-13

    def test_interlacing(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            model = random_model(rng, int(rng.integers(1, 7)))
            mu = mu_roots(model)
            for j in range(model.m):
                assert model.sigma[j] < mu[j]
                if j + 1 < model.m:
                    assert mu[j] < model.sigma[j + 1]

    def test_cached_into_model(self):
        model = unit_model()
        mu_roots(model)
        assert model.mu == pytest.approx((2.0,))


class TestLevelSets:
    def test_zero_level_gives_zero_and_mu(self):
        assert level_set_roots(unit_model(), 0.0) == pytest.approx((0.0, 2.0), rel=1e-12)

    def test_quadratic_level(self):
        roots = level_set_roots(unit_model(), 5.0)
        expect = ((7 - math.sqrt(29)) / 2, (7 + math.sqrt(29)) / 2)
        assert roots == pytest.approx(expect, rel=1e-12)

    def test_two_channel_zero_level(self):
        model = HomogenizedModel(3, (1.0, 3.0), (1.5, 1 / 6))
        assert level_set_roots(model, 0.0) == pytest.approx((0.0, 2.0, 4.0), rel=1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(GapForgeError):
            level_set_roots(unit_model(), -1.0)

    def test_count_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(1, 6)))
            mu_max = mu_roots(model)[-1]
            for a in rng.uniform(0.0, 10.0 * mu_max, size=5):
                roots = level_set_roots(model, float(a))
                assert len(roots) == model.m + 1
                assert all(r >= 0.0 for r in roots)

    def test_matches_polynomial_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(1, 5)))
            a = float(rng.uniform(0.0, 5.0 * mu_roots(model)[-1]))
            primary = np.array(level_set_roots(model, a))
            oracle = np.array(level_set_roots_via_polynomial(model, a))
            assert len(oracle) == len(primary)
            assert np.max(np.abs(primary - oracle) / (1.0 + np.abs(primary))) < 1e-8


class TestLimitSpectrum:
    def test_unit_model(self):
        bands, gaps = limit_spectrum(unit_model(), 10.0)
        np.testing.assert_allclose(np.array(gaps.intervals), [[1.0, 2.0]], rtol=1e-12)
        np.testing.assert_allclose(np.array(bands.intervals), [[0.0, 1.0], [2.0, 10.0]], rtol=1e-12)

    def test_designed_two_gap_model(self):
        model = HomogenizedModel(3, (1.0, 3.0), (1.5, 1 / 6))
        bands, gaps = limit_spectrum(model, 50.0)
        np.testing.assert_allclose(np.array(gaps.intervals), [[1.0, 2.0], [3.0, 4.0]], rtol=1e-11)

    def test_empty_model(self):
        model = HomogenizedModel(3, (), ())
        bands, gaps = limit_spectrum(model, 5.0)
        assert bands.intervals == ((0.0, 5.0),)
        assert gaps.intervals == ()

    def test_small_horizon_rejected(self):
        with pytest.raises(GapForgeError):
            limit_spectrum(unit_model(), 1.5)

    def test_sign_duality_on_samples(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 3)
        L = 2.0 * mu_roots(model)[-1]
        bands, gaps = limit_spectrum(model, L)
        for lo, hi in bands:
            for lam in np.linspace(lo + 1e-6, hi - 1e-6, 40):
                if min(abs(lam - s) for s in model.sigma) > 1e-6:
                    assert dispersion_eval(model, float(lam)) >= -1e-9
        for lo, hi in gaps:
            for lam in np.linspace(lo + 1e-9 * (1 + lo), hi - 1e-9 * (1 + hi), 40):
                assert dispersion_eval(model, float(lam)) < 0.0


class TestMonotonicity:
    def test_strictly_increasing_per_branch(self):
        rng = np.random.default_rng(77)
        model = random_model(rng, 4)
        mu = mu_roots(model)
        breakpoints = [0.0, *model.sigma, 1.5 * mu[-1]]
        for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
            pad = 1e-4 * (hi - lo)
            grid = np.linspace(lo + pad, hi - pad, 1000)
            vals = np.array([dispersion_eval(model, float(x)) for x in grid])
            assert np.all(np.diff(vals) > 0)


class TestSampleCurve:
    def test_grid_and_pole_flag(self):
        curve = sample_curve(unit_model(), (0.0, 3.0), 7)
        assert len(curve.samples) == 7
        lams = [s[0] for s in curve.samples]
        assert lams == pytest.approx(list(np.linspace(0, 3, 7)))
        flagged = [s for s in curve.samples if s[2]]
        assert len(flagged) == 1 and flagged[0][0] == 1.0
        assert math.isnan(flagged[0][1])

    def test_values_match_dispersion_eval(self):
        model = unit_model()
        curve = sample_curve(model, (0.0, 3.0), 13)
        for lam, val, flag in curve.samples:
            if not flag:
                assert val == dispersion_eval(model, lam)

    def test_sign_pattern_matches_gap(self):
        model = unit_model()
        curve = sample_curve(model, (0.0, 3.0), 301)
        bands, gaps = limit_spectrum(model, 10.0)
        for lam, val, flag in curve.samples:
            if flag or lam in (0.0,):
                continue
            edge_tol = 1e-9
            in_gap = any(lo + edge_tol < lam < hi - edge_tol for lo, hi in gaps)
            if in_gap:
                assert val < 0
            elif lam < 3.0 - 1e-9:
                assert val >= 0

    def test_csv_lines(self):
        lines = sample_curve(unit_model(), (0.0, 3.0), 4).to_csv_lines()
        assert lines[0] == "lambda,value,pole_adjacent"
        assert len(lines) == 5
        assert lines[1].split(",")[2] == "0"

    def test_count_too_small(self):
        with pytest.raises(GapForgeError):
            sample_curve(unit_model(), (0.0, 1.0), 1)


def test_round_trip_spec_to_spectrum():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        spec = random_gap_spec(rng, m=int(rng.integers(1, 5)), n=3)
        _, model = design_geometry(spec)
        bands, gaps = limit_spectrum(model, spec.horizon)
        got = np.array(gaps.intervals)
        want = np.array(spec.targets.intervals)
        assert np.max(np.abs(got - want) / want) < 1e-9
