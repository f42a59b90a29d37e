"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The heavy shared artifacts (design ladder, demo band sweep) are computed
once, inside the budget of the first criterion that needs them.
"""

import math
import time

import numpy as np
import pytest

from gapforge.bands import (
    GridSpec,
    band_structure,
    build_cell_graph,
    detect_gaps,
    folded_matrices,
    nd_enclosure,
    theta_spectrum,
)
from gapforge.cell import (
    convergence_table,
    eps_scale,
    junction_flux,
    reference_limits,
    trial_rayleigh,
)
from gapforge.design import HomogenizedModel, design_geometry, solve_weight_system, weights_closed_form
from gapforge.dispersion import dispersion_eval, level_set_roots, limit_spectrum, mu_roots
from gapforge.intervals import (
    IntervalSet,
    complement_on,
    gap_match_report,
    hausdorff_distance,
    validate_gap_spec,
)

from helpers import dense_folded_oracle, random_gap_spec, small_torus_graph

EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
KAPPA = 0.5
DEMO_HOLES = [(0.5, 0.5, 0.05, 0.3)]
DEMO_GRID = GridSpec(64)
DEMO_THETA = 16
DEMO_BANDS = 12

_cache: dict = {}


def _report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {name}  ({elapsed:.2f}s / {budget:g}s budget)  {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.2f}s over budget {budget}s"


def designed_specs():
    """Criterion 1 corpus: 200 random valid specs with their designs."""
    if "specs" not in _cache:
        rng = np.random.default_rng(0xACCE55)
        out = []
        for _ in range(200):
            m = int(rng.integers(1, 6))
            n = int(rng.choice([2, 3, 4]))
            spec = random_gap_spec(rng, m=m, n=n)
            geom, model = design_geometry(spec, KAPPA)
            mu = mu_roots(model)
            out.append((spec, geom, model, mu))
        _cache["specs"] = out
    return _cache["specs"]


def design_ladder():
    """Criterion 5-8 shared ladder for targets (1, 2), n = 3, kappa = 0.5."""
    if "ladder" not in _cache:
        spec = validate_gap_spec([(1, 2)], 3)
        base, model = design_geometry(spec, KAPPA)
        rows = convergence_table(base, 0, EPS_LADDER, resolution=384)
        gauges = [r.mesh_gauge for r in rows]
        _cache["ladder"] = (base, model, rows, gauges)
    return _cache["ladder"]


def demo_band_structure():
    """Criterion 9 documented demo cell: one bubble, 64x64 grid, 16 theta
    per direction, 12 bands."""
    if "demo" not in _cache:
        graph = build_cell_graph(holes=DEMO_HOLES, cell_size=1.0, grid=DEMO_GRID)
        bs = band_structure(graph, DEMO_THETA, DEMO_BANDS)
        _cache["demo"] = (graph, bs)
    return _cache["demo"]


def test_criterion_01_design_round_trip():
    t0 = time.perf_counter()
    worst_sigma, worst_mu = 0.0, 0.0
    for spec, geom, model, mu in designed_specs():
        sig_err = max(abs(s - a) / a for s, a in zip(model.sigma, spec.alphas))
        mu_err = max(abs(m - b) / b for m, b in zip(mu, spec.betas))
        worst_sigma = max(worst_sigma, sig_err)
        worst_mu = max(worst_mu, mu_err)
    elapsed = time.perf_counter() - t0
    ok = worst_sigma < 1e-12 and worst_mu < 1e-9
    _report(1, "design round trip (200 random specs)", ok, elapsed, 1.0,
            f"max sigma rel err {worst_sigma:.2e}, max mu rel err {worst_mu:.2e}")


def test_criterion_02_m1_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x5EEDED)
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.01, 100.0))
        r = float(rng.uniform(0.01, 10.0))
        mu = mu_roots(HomogenizedModel(3, (s,), (r,)))[0]
        exact = s * (1.0 + r)
        worst = max(worst, abs(mu - exact) / exact)
    elapsed = time.perf_counter() - t0
    _report(2, "m=1 closed form mu = sigma(1+rho)", worst < 1e-12, elapsed, 0.1,
            f"max rel err {worst:.2e}")


def test_criterion_03_weight_system_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xCAFE)
    worst = 0.0
    for _ in range(200):
        spec = random_gap_spec(rng, m=int(rng.integers(1, 9)), n=3)
        wc = np.array(weights_closed_form(spec))
        ws = np.array(solve_weight_system(spec))
        worst = max(worst, float(np.max(np.abs(wc - ws) / np.abs(wc))))
    elapsed = time.perf_counter() - t0
    _report(3, "weight system vs closed form (200 random specs, m<=8)", worst < 1e-9,
            elapsed, 1.0, f"max rel err {worst:.2e}")


def test_criterion_04_dispersion_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xD15C0)
    interlace_ok = True
    count_ok = True
    sign_ok = True
    levels_checked = 0
    samples_checked = 0
    for _ in range(50):
        m = int(rng.integers(1, 6))
        sigma = np.sort(rng.uniform(0.1, 50.0, size=m))
        while np.any(np.diff(sigma) < 1e-2):
            sigma = np.sort(rng.uniform(0.1, 50.0, size=m))
        rho = rng.uniform(0.05, 5.0, size=m)
        model = HomogenizedModel(3, tuple(sigma), tuple(rho))
        mu = mu_roots(model)
        for j in range(m):
            hi = sigma[j + 1] if j + 1 < m else math.inf
            interlace_ok &= sigma[j] < mu[j] < hi
        for a in rng.uniform(0.0, 10.0 * mu[-1], size=2):
            roots = level_set_roots(model, float(a))
            count_ok &= len(roots) == m + 1 and all(r >= 0.0 for r in roots)
            levels_checked += 1
        # vectorized sign check on band/gap interiors
        L = 1.5 * mu[-1]
        bands, gaps = limit_spectrum(model, mu, L)
        lam = rng.uniform(0.0, L, size=200)
        for x in lam:
            x = float(x)
            if min(abs(x - s) for s in sigma) < 1e-6 * L:
                continue
            val = dispersion_eval(model, x)
            in_gap = any(lo + 1e-9 * L < x < hi - 1e-9 * L for lo, hi in gaps)
            on_band = any(lo + 1e-9 * L <= x <= hi - 1e-9 * L for lo, hi in bands)
            if in_gap:
                sign_ok &= val < 0.0
            elif on_band:
                sign_ok &= val >= -1e-12
            samples_checked += 1
    elapsed = time.perf_counter() - t0
    ok = interlace_ok and count_ok and sign_ok and levels_checked >= 100 and samples_checked >= 1e4 * 0.8
    _report(4, "dispersion structure (interlacing, level sets, sign duality)", ok,
            elapsed, 5.0, f"levels={levels_checked}, samples={samples_checked}")


def test_criterion_05_cell_lambda1_convergence():
    t0 = time.perf_counter()
    base, model, rows, gauges = design_ladder()
    sigma = model.sigma[0]
    errs = [abs(r.lambda1 - sigma) for r in rows]
    monotone = all(b < a for a, b in zip(errs[:-1], errs[1:]))
    mesh_verified = all(g / sigma < 1e-3 for g in gauges)
    # Aitken extrapolation of the eps ladder
    l1, l2, l3 = rows[-3].lambda1, rows[-2].lambda1, rows[-1].lambda1
    extrap = l3 - (l3 - l2) ** 2 / ((l3 - l2) - (l2 - l1))
    extrap_ok = abs(extrap - sigma) / sigma < 0.01
    elapsed = time.perf_counter() - t0
    _report(5, "cell lambda1 -> sigma (n=3 ladder, Richardson-verified)",
            monotone and mesh_verified and extrap_ok, elapsed, 30.0,
            f"errs={['%.2e' % e for e in errs]}, extrapolated={extrap:.6f}")


def test_criterion_06_min_max_bound():
    t0 = time.perf_counter()
    base, model, rows, _ = design_ladder()
    sigma, rho = model.sigma[0], model.rho[0]
    bound_ok = all(r.rayleigh_upper >= r.lambda1 - 1e-10 for r in rows)
    margins = [r.rayleigh_upper - r.lambda1 for r in rows]
    margins_shrink = all(b < a for a, b in zip(margins[:-1], margins[1:]))
    eps = rows[-1].eps
    geom = eps_scale(base, eps)
    bound = trial_rayleigh(geom, 0)
    num_ratio = bound.numerator / (sigma * rho * eps**3)
    den_ratio = bound.denominator / (rho * eps**3)
    ratios_ok = abs(num_ratio - 1.0) < 0.05 and abs(den_ratio - 1.0) < 0.05
    elapsed = time.perf_counter() - t0
    _report(6, "min-max bound with vanishing margin and energy asymptotics",
            bound_ok and margins_shrink and ratios_ok, elapsed, 30.0,
            f"margins={['%.1e' % m for m in margins]}, num/(srho e^3)={num_ratio:.4f}, den/(rho e^3)={den_ratio:.4f}")


def test_criterion_07_rescaled_second_eigenvalue():
    t0 = time.perf_counter()
    base, model, rows, _ = design_ladder()
    ref = reference_limits(base, 0).Lj_lambda2
    eps2_lambda2 = rows[-1].eps * rows[-1].eps * rows[-1].lambda2
    dev = abs(eps2_lambda2 - ref) / ref
    elapsed = time.perf_counter() - t0
    # zonal caveat: the 1-D reduction enumerates zonal modes only; both
    # candidates for the limit are zonal, so the comparison is meaningful
    _report(7, "eps^2 lambda2 -> min(disk, sphere) reference (zonal modes)",
            dev < 0.05, elapsed, 30.0,
            f"eps^2 lambda2 = {eps2_lambda2:.4f} vs {ref:.4f} (rel dev {dev:.2e})")


def test_criterion_08_flux_identity():
    t0 = time.perf_counter()
    base, model, rows, _ = design_ladder()
    flux = junction_flux(eps_scale(base, 0.025), 0)
    dev = abs(flux.ratio - 1.0)
    elapsed = time.perf_counter() - t0
    _report(8, "junction flux (n-2) A omega_{n-1} vs sigma rho eps^n at eps=0.025",
            dev < 0.01, elapsed, 30.0, f"ratio = {flux.ratio:.6f}")


def test_criterion_09_floquet_property_suite():
    t0 = time.perf_counter()
    graph, bs = demo_band_structure()

    # (a) exact Hermiticity of a folded stiffness matrix
    theta = (complex(math.cos(0.7), math.sin(0.7)), complex(math.cos(2.1), math.sin(2.1)))
    K, _ = folded_matrices(graph, theta)
    H = K - K.conj().T
    hermitian_ok = H.nnz == 0 or float(np.max(np.abs(H.data))) == 0.0

    # (b) ground state at the trivial character
    lam_triv = theta_spectrum(graph, (1.0 + 0.0j, 1.0 + 0.0j), 1)[0]
    trivial_ok = abs(lam_triv) < 1e-10

    # (c) Neumann/Dirichlet enclosure across the full sweep, k <= 12
    enclosure_ok = nd_enclosure(graph, bs).enclosure_ok

    # (d) a detected gap whose lower edge drops when the bubble grows
    gaps = detect_gaps(bs, 50.0)
    graph_big = build_cell_graph(holes=[(0.5, 0.5, 0.05, 0.36)], cell_size=1.0, grid=DEMO_GRID)
    bs_big = band_structure(graph_big, DEMO_THETA, DEMO_BANDS)
    gaps_big = detect_gaps(bs_big, 50.0)
    gap_ok = len(gaps) >= 1 and len(gaps_big) >= 1 and gaps_big.intervals[0][0] < gaps.intervals[0][0]

    # (e) brute-force spectral equivalence on <= 12-vertex graphs
    rng = np.random.default_rng(0xFACADE)
    brute_ok = True
    for _ in range(5):
        g = small_torus_graph(rng)  # 9 vertices
        phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
        th = (complex(math.cos(phi1), math.sin(phi1)), complex(math.cos(phi2), math.sin(phi2)))
        lam = theta_spectrum(g, th, 4)
        oracle = dense_folded_oracle(g, th, 4)
        brute_ok &= bool(np.max(np.abs(lam - oracle)) < 1e-10)

    elapsed = time.perf_counter() - t0
    ok = hermitian_ok and trivial_ok and enclosure_ok and gap_ok and brute_ok
    _report(9, "Floquet property suite on the documented demo cell", ok, elapsed, 120.0,
            f"gap={gaps.intervals[:1]}, enlarged gap={gaps_big.intervals[:1]}, "
            f"hermitian={hermitian_ok}, trivial={trivial_ok}, enclosure={enclosure_ok}, brute={brute_ok}")


def test_criterion_10_interval_suite_and_matching():
    t0 = time.perf_counter()
    # interval_core examples, exact
    spec = validate_gap_spec([(3, 4), (1, 2)], 3, 0.01, 50.0)
    ex_ok = spec.targets.intervals == ((1.0, 2.0), (3.0, 4.0))
    bands = IntervalSet(((0.0, 1.0), (2.0, 10.0)))
    ex_ok &= complement_on(bands, 10.0).intervals == ((1.0, 2.0),)
    ex_ok &= complement_on(IntervalSet(((0.0, 10.0),)), 10.0).intervals == ()
    ex_ok &= complement_on(IntervalSet(((0.0, 1.0), (2.0, 3.0))), 5.0).intervals == ((1.0, 2.0), (3.0, 5.0))
    s1 = IntervalSet(((0.0, 1.0),))
    ex_ok &= hausdorff_distance(s1, s1, (0.0, 1.0)) == 0.0
    ex_ok &= hausdorff_distance(s1, IntervalSet(((0.0, 2.0),)), (0.0, 2.0)) == 1.0
    ex_ok &= hausdorff_distance(
        IntervalSet(((0.0, 1.0), (3.0, 4.0))), IntervalSet(((0.0, 1.5), (3.0, 4.0))), (0.0, 4.0)
    ) == pytest.approx(0.5, abs=1e-12)

    # gap matching of criterion 1's outputs at delta = 1e-6
    match_ok = True
    for spec, geom, model, mu in designed_specs():
        tight = validate_gap_spec(
            [list(t) for t in spec.targets.intervals], spec.n, 1e-6, spec.horizon
        )
        _, gaps = limit_spectrum(model, mu, spec.horizon)
        match_ok &= gap_match_report(gaps, tight).passed
    elapsed = time.perf_counter() - t0
    _report(10, "interval-core examples exact + gap match at delta=1e-6",
            ex_ok and match_ok, elapsed, 30.0, "")
