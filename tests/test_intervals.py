import math

import numpy as np
import pytest

from gapforge.errors import GapSpecError, IntervalError
from gapforge.intervals import (
    IntervalSet,
    complement_on,
    gap_match_report,
    hausdorff_distance,
    validate_gap_spec,
)

from helpers import (
    hausdorff_grid_oracle,
    random_band_table,
    random_gap_spec,
    reference_complement_of_bands,
)


class TestIntervalSet:
    def test_sorted_disjoint_ok(self):
        s = IntervalSet(((0.0, 1.0), (2.0, 3.0)))
        assert len(s) == 2

    def test_rejects_overlap(self):
        with pytest.raises(IntervalError):
            IntervalSet(((0.0, 2.0), (1.0, 3.0)))

    def test_rejects_empty_interval(self):
        with pytest.raises(IntervalError):
            IntervalSet(((1.0, 1.0),))

    def test_rejects_negative(self):
        with pytest.raises(IntervalError):
            IntervalSet(((-1.0, 1.0),))

    def test_inner_interval_cannot_be_unbounded(self):
        with pytest.raises(IntervalError):
            IntervalSet(((0.0, math.inf), (5.0, 6.0)))

    def test_json_round_shape(self):
        s = IntervalSet(((0.5, 1.0),))
        assert s.to_json() == [[0.5, 1.0]]


class TestValidateGapSpec:
    def test_sorts_raw_input(self):
        spec = validate_gap_spec([(3, 4), (1, 2)], n=3, delta=0.01, horizon=50)
        assert spec.targets.intervals == ((1.0, 2.0), (3.0, 4.0))
        assert spec.m == 2

    def test_single_interval(self):
        spec = validate_gap_spec([(1, 2)], n=2)
        assert spec.m == 1 and spec.n == 2

    def test_default_horizon_is_ten_beta_m(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], n=3)
        assert spec.horizon == 40.0

    @pytest.mark.parametrize(
        "raw,n,delta,code",
        [
            ([(1, 3), (2, 4)], 3, 0.01, "overlap"),
            ([(1, 2), (2, 3)], 3, 0.01, "overlap"),  # touching closures rejected
            ([(0.0, 1.0)], 3, 0.01, "nonpositive_edge"),
            ([(2, 1)], 3, 0.01, "empty_interval"),
            ([(1, 2)], 1, 0.01, "bad_dimension"),
            ([(1, 2)], 3, 0.0, "bad_delta"),
            ([(1, 2)], 3, -1.0, "bad_delta"),
        ],
    )
    def test_distinct_error_codes(self, raw, n, delta, code):
        with pytest.raises(GapSpecError) as err:
            validate_gap_spec(raw, n, delta)
        assert err.value.code == code

    def test_bad_horizon(self):
        with pytest.raises(GapSpecError) as err:
            validate_gap_spec([(1, 2)], 3, 0.01, horizon=-5.0)
        assert err.value.code == "bad_horizon"

    @pytest.mark.parametrize("raw, horizon", [
        ([(1, 2)], math.inf),
        ([(1, 2)], math.nan),
        ([(1, 2), (3, 2e307)], None),  # the default horizon 10 beta_m overflows
    ], ids=["inf", "nan", "default-overflow"])
    def test_non_finite_horizon(self, raw, horizon):
        with pytest.raises(GapSpecError) as err:
            validate_gap_spec(raw, 3, 0.01, horizon=horizon)
        assert err.value.code == "bad_horizon"


class TestComplement:
    def test_between_bands(self):
        bands = IntervalSet(((0.0, 1.0), (2.0, 10.0)))
        assert complement_on(bands, 10.0).intervals == ((1.0, 2.0),)

    def test_full_cover_is_empty(self):
        assert complement_on(IntervalSet(((0.0, 10.0),)), 10.0).intervals == ()

    def test_trailing_gap(self):
        bands = IntervalSet(((0.0, 1.0), (2.0, 3.0)))
        assert complement_on(bands, 5.0).intervals == ((1.0, 2.0), (3.0, 5.0))

    def test_empty_input(self):
        assert complement_on(IntervalSet(()), 4.0).intervals == ((0.0, 4.0),)

    def test_degenerate_band_splits_gap(self):
        bands = [(0.0, 1.0), (2.5, 2.5), (4.0, 6.0)]
        assert complement_on(bands, 6.0).intervals == ((1.0, 2.5), (2.5, 4.0))

    def test_overlapping_pairs_merged(self):
        bands = [(2.0, 5.0), (0.0, 1.0), (0.5, 1.5), (3.0, 4.0)]
        assert complement_on(bands, 6.0).intervals == ((1.5, 2.0), (5.0, 6.0))

    def test_matches_band_module_reference(self):
        # the band table rule that complement_on absorbed, on tables with
        # L = b_K or L inside a band (where the two must agree exactly)
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            bands = random_band_table(rng)
            top = bands[-1][1]
            lo, hi = bands[int(rng.integers(0, len(bands)))]
            for L in (top, float(rng.uniform(max(lo, 1e-3), max(hi, 1e-3)))):
                assert complement_on(bands, L) == reference_complement_of_bands(bands, L)

    def test_double_complement_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = np.sort(rng.uniform(0.0, 9.0, size=6))
            s = IntervalSet(tuple((pts[2 * i], pts[2 * i + 1]) for i in range(3)))
            back = complement_on(complement_on(s, 10.0), 10.0)
            got = np.array(back.clipped(1e-12, 10.0 - 1e-12).intervals)
            want = np.array(s.clipped(1e-12, 10.0 - 1e-12).intervals)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestHausdorff:
    def test_identical_sets(self):
        s = IntervalSet(((0.0, 1.0),))
        assert hausdorff_distance(s, s, (0.0, 1.0)) == 0.0

    def test_endpoint_excess(self):
        a = IntervalSet(((0.0, 1.0),))
        b = IntervalSet(((0.0, 2.0),))
        assert hausdorff_distance(a, b, (0.0, 2.0)) == 1.0

    def test_two_component_case_against_grid_oracle(self):
        a = IntervalSet(((0.0, 1.0), (3.0, 4.0)))
        b = IntervalSet(((0.0, 1.5), (3.0, 4.0)))
        d = hausdorff_distance(a, b, (0.0, 4.0))
        assert d == pytest.approx(0.5, abs=1e-12)
        assert d == pytest.approx(hausdorff_grid_oracle(a, b, (0.0, 4.0)), abs=2e-4)

    def test_symmetry_nonnegativity_zero_iff(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pa = np.sort(rng.uniform(0, 10, size=4))
            pb = np.sort(rng.uniform(0, 10, size=4))
            a = IntervalSet(((pa[0], pa[1]), (pa[2], pa[3])))
            b = IntervalSet(((pb[0], pb[1]), (pb[2], pb[3])))
            d_ab = hausdorff_distance(a, b, (0.0, 10.0))
            d_ba = hausdorff_distance(b, a, (0.0, 10.0))
            assert d_ab == d_ba >= 0.0
            assert hausdorff_distance(a, a, (0.0, 10.0)) == 0.0
            if d_ab == 0.0:
                assert a.clipped(0, 10).merged_closed().intervals == b.clipped(0, 10).merged_closed().intervals

    def test_random_against_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pa = np.sort(rng.uniform(0, 8, size=4))
            pb = np.sort(rng.uniform(0, 8, size=4))
            a = IntervalSet(((pa[0], pa[1]), (pa[2], pa[3])))
            b = IntervalSet(((pb[0], pb[1]), (pb[2], pb[3])))
            d = hausdorff_distance(a, b, (0.0, 8.0))
            assert d == pytest.approx(hausdorff_grid_oracle(a, b, (0.0, 8.0)), abs=2e-4)

    def test_empty_window_error(self):
        a = IntervalSet(((5.0, 6.0),))
        b = IntervalSet(((0.0, 1.0),))
        with pytest.raises(IntervalError):
            hausdorff_distance(a, b, (0.0, 2.0))


class TestGapMatch:
    def test_near_match_passes(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3, delta=0.01, horizon=50)
        rep = gap_match_report([(1.001, 1.999), (3.0, 4.0)], spec)
        assert rep.passed
        assert rep.per_gap[0].edge_error == pytest.approx(0.002)
        assert rep.per_gap[1].edge_error == 0.0

    def test_count_mismatch_fails_without_raising(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3, delta=0.01, horizon=50)
        rep = gap_match_report([(1.0, 2.0)], spec)
        assert not rep.passed
        assert rep.per_gap[1].computed is None

    def test_extra_gap_beyond_horizon_accepted(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3, delta=0.01, horizon=50)
        rep = gap_match_report([(1, 2), (3, 4), (60, 70)], spec)
        assert rep.passed and rep.extra_gaps == ((60.0, 70.0),)

    def test_extra_gap_inside_horizon_fails(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3, delta=0.01, horizon=50)
        rep = gap_match_report([(1, 2), (3, 4), (40, 60)], spec)
        assert not rep.passed and not rep.extra_ok

    def test_order_insensitive(self):
        spec = validate_gap_spec([(1, 2), (3, 4)], 3, delta=0.01, horizon=50)
        a = gap_match_report([(3, 4), (1, 2)], spec)
        b = gap_match_report([(1, 2), (3, 4)], spec)
        assert a == b and a.passed

    def test_json_shape(self):
        spec = validate_gap_spec([(1, 2)], 3, delta=0.1, horizon=50)
        doc = gap_match_report([(1.0, 2.05)], spec).to_json()
        assert set(doc) == {"pass", "per_gap", "extra_gaps"}
        assert doc["per_gap"][0]["target"] == [1.0, 2.0]
        assert doc["per_gap"][0]["edge_error"] == pytest.approx(0.05)


def test_random_spec_generator_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_gap_spec(rng, m=int(rng.integers(1, 6)), n=3)
        a, b = spec.alphas, spec.betas
        assert a[0] > 0
        assert all(x < y for x, y in zip(a, b))
        assert all(b[i] < a[i + 1] for i in range(spec.m - 1))
