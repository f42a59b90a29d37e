import math

import numpy as np
import pytest

from gapforge import dispersion
from gapforge.design import HomogenizedModel, design_geometry
from gapforge.dispersion import (
    POLE_FLAG_ATOL,
    POLE_RTOL,
    ROOT_RTOL,
    dispersion_eval,
    f_eval,
    level_set_roots,
    limit_spectrum,
    mu_roots,
    sample_curve,
)
from gapforge.errors import GapForgeError, PoleError, ScaleError

from helpers import level_set_roots_via_polynomial, random_gap_spec, reference_level_set_roots


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


@pytest.fixture(scope="module")
def corpus():
    """960 seeded designs (n 2-4, m 1-8, 40 each) at the levels 0,
    0.37 sigma_m and 3.1 sigma_1: a (model, level) list."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in (2, 3, 4):
        for m in range(1, 9):
            for _ in range(40):
                _, model = design_geometry(random_gap_spec(rng, m, n))
                for a in (0.0, 0.37 * model.sigma[-1], 3.1 * model.sigma[0]):
                    cases.append((model, a))
    return cases


def count_f_evals(monkeypatch):
    """Count the calls of dispersion.f_eval from here on."""
    calls = [0]
    original = dispersion.f_eval

    def counted(model, lam):
        calls[0] += 1
        return original(model, lam)

    monkeypatch.setattr(dispersion, "f_eval", counted)
    return calls


class TestPredictedRoots:
    """Each root is bracketed from its arrowhead prediction: the prediction
    changes how often F is evaluated, not which sign change is bisected."""

    def test_within_two_root_rtol_of_plain_bisection(self, corpus):
        # both solvers return the midpoint of a bracket of relative width
        # <= 2 ROOT_RTOL around the same sign change
        assert len(corpus) == 3 * 960
        for model, a in corpus:
            got = np.array(level_set_roots(model, a))
            want = np.array(reference_level_set_roots(model, a))
            assert np.all(np.abs(got - want) <= 2 * ROOT_RTOL * want), (model, a)

    def test_f_evals_per_root(self, corpus, monkeypatch):
        # the plain bisection makes about 55 per root on this corpus, the
        # certified window walk 9.4; a bracket that starts anywhere but at
        # the prediction makes many more
        calls = count_f_evals(monkeypatch)
        roots = 0
        for model, a in corpus:
            roots += len(level_set_roots(model, a)) - (a == 0.0)
        assert calls[0] <= 8 * roots

    @pytest.mark.parametrize("fault", [
        lambda p, k, sig: math.nan,
        lambda p, k, sig: math.inf,
        lambda p, k, sig: -math.inf,
        lambda p, k, sig: -1.0,
        lambda p, k, sig: sig[k] if k < len(sig) else sig[k - 1],  # on a pole
        lambda p, k, sig: p[k + 1] if k + 1 < len(p) else p[k - 1],  # the next branch's root
        lambda p, k, sig: p[k] * (1.0 + 1e-9),
    ], ids=["nan", "inf", "-inf", "-1", "on-pole", "wrong-branch", "1e-9-off"])
    def test_faulty_prediction_falls_back(self, fault, monkeypatch):
        rng = np.random.default_rng(61)
        predict = dispersion._predicted_roots
        calls = count_f_evals(monkeypatch)
        for m in (1, 3, 6):
            _, model = design_geometry(random_gap_spec(rng, m, 3))
            for a in (0.0, 0.37 * model.sigma[-1]):
                expect = np.array(reference_level_set_roots(model, a))
                calls[0] = 0
                level_set_roots(model, a)
                clean = calls[0]
                for k in range(int(a == 0.0), m + 1):

                    def faulty(model, head, k=k):
                        p = predict(model, head).tolist()
                        p[k] = fault(p, k, model.sigma)
                        return np.array(p)

                    monkeypatch.setattr(dispersion, "_predicted_roots", faulty)
                    calls[0] = 0
                    got = np.array(level_set_roots(model, a))
                    assert np.all(np.abs(got - expect) <= 2 * ROOT_RTOL * expect), (m, a, k)
                    # widening from a faulty start costs 20 or more evaluations
                    assert calls[0] > clean + 20, (m, a, k)
                    monkeypatch.setattr(dispersion, "_predicted_roots", predict)

    def test_overflowing_last_bracket(self):
        # sigma (1 + rho) = 1.00000001e308 is representable; the old bracket
        # sigma (1 + rho) + sigma rho was not
        assert mu_roots(HomogenizedModel(3, (1e300,), (1e8,))) == pytest.approx((1e300 * (1 + 1e8),), rel=1e-15)
        # sigma (1 + rho) = 2.5e308 is not
        with pytest.raises(ScaleError):
            mu_roots(HomogenizedModel(3, (1e308,), (1.5,)))

    def test_roots_of_widely_spread_poles(self):
        # poles 2^996 apart: the pole-to-pole walk could not bracket the first
        # root, whose prediction (0) lies outside its branch
        model = HomogenizedModel(3, (1.0, 1e300), (1.0, 1.0))
        for mu in mu_roots(model):
            assert f_eval(model, mu * (1 - 1e-14)) < 0.0 < f_eval(model, mu * (1 + 1e-14))

    def test_lost_bracket_and_no_sign_change_are_errors(self):
        # GapForgeError, not assert: the CLI exits 2 and python -O keeps them.
        # g > 0 on the whole branch loses the bracket at its left end, g < 0
        # at its right end
        for g in (lambda x: 1.0, lambda x: -1.0):
            for p in (0.5, math.nan):
                with pytest.raises(GapForgeError, match="no sign change"):
                    dispersion._branch_root(g, p, 0.0, 1.0)

    def test_interlacing_violation_is_an_error(self, monkeypatch):
        monkeypatch.setattr(dispersion, "level_set_roots", lambda model, a: (0.0, 0.5))
        with pytest.raises(GapForgeError, match="interlacing"):
            mu_roots(unit_model())


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

    def test_band_below_a_tiny_first_gap_kept(self):
        # [0, sigma_1] is a band however small sigma_1 is next to L
        model = HomogenizedModel(3, (1e-12, 2.0), (1.5e12, 0.25))
        bands, gaps = limit_spectrum(model, 100.0)
        mu = mu_roots(model)
        assert bands.intervals == ((0.0, 1e-12), (mu[0], 2.0), (mu[1], 100.0))
        assert gaps.intervals == ((1e-12, mu[0]), (2.0, mu[1]))

    def test_non_finite_horizon_rejected(self):
        with pytest.raises(ScaleError):
            limit_spectrum(unit_model(), math.inf)

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

    def test_bit_equal_to_scalar_eval_across_poles(self):
        rng = np.random.default_rng(71)
        for m in range(1, 7):
            for _ in range(4):
                model = random_model(rng, m)
                top = 1.5 * mu_roots(model)[-1]
                # the first grid also puts samples on the poles' flag zones
                for rng_ in ((0.0, top), (0.5 * model.sigma[0], float(rng.uniform(1.01, 2.0)) * top)):
                    curve = sample_curve(model, rng_, 257)
                    assert [s[0] for s in curve.samples] == np.linspace(*rng_, 257).tolist()
                    for lam, val, flag in curve.samples:
                        assert flag == any(abs(lam - s) < POLE_FLAG_ATOL for s in model.sigma)
                        if flag:
                            assert math.isnan(val)
                        else:
                            assert val == dispersion_eval(model, lam), (lam, val)

    def test_unflagged_sample_at_pole_raises(self):
        # POLE_RTOL * sigma passes POLE_FLAG_ATOL only for sigma > 1e8
        sigma = 1e10
        assert POLE_RTOL * sigma > 10 * POLE_FLAG_ATOL
        model = HomogenizedModel(3, (1.0, sigma), (1.0, 1.0))
        near = sigma + 2e-5  # outside the flag zone, inside the pole check
        curve_range = (near - 1.0, near + 1.0)
        lam = np.linspace(*curve_range, 3).tolist()[1]
        assert POLE_FLAG_ATOL < abs(lam - sigma) < POLE_RTOL * sigma
        with pytest.raises(PoleError) as scalar:
            dispersion_eval(model, lam)
        with pytest.raises(PoleError) as curve:
            sample_curve(model, curve_range, 3)
        assert str(curve.value) == str(scalar.value)

    def test_non_finite_range_rejected(self):
        with pytest.raises(GapForgeError):
            sample_curve(unit_model(), (0.0, math.inf), 5)

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
