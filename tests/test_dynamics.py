import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fatou.maps import MapEscapeError, rank0_map, rank1_map, rotation_map
from fatou.dynamics import (
    EMPIRICAL_MIN_N,
    Grid2D,
    RegionUNM,
    check_equivariance,
    check_growth_bounds,
    estimate_limit_map,
    find_min_invariant_N,
    from_transformed,
    invariant_curve,
    iterate,
    orbit_csv_rows,
    sample_region,
    to_transformed,
    track_product_sum,
    track_product_sum_batch,
    verify_forward_invariance,
    waxis_coverage,
)

H0 = rank0_map(2)
H1 = rank1_map()
GOLD = 0.6180339887498949


def tr(x):
    return complex(from_transformed(np.complex128(complex(x))))


# -- chart ---------------------------------------------------------------


def test_transform_involution():
    z = np.array([0.3 + 0.4j, -2.0 + 1j, 1e-8 + 0j])
    back = to_transformed(to_transformed(z))
    assert np.max(np.abs(back - z) / np.abs(z)) < 1e-16


def test_region_membership():
    reg = RegionUNM(50.0, 10.0)
    assert reg.contains(51 + 5j, 9.9)
    assert not reg.contains(49 + 0j, 1.0)
    assert not reg.contains(51 + 0j, 10.0)
    with pytest.raises(ValueError):
        RegionUNM(0.0, 1.0)


# -- iterate -------------------------------------------------------------


def test_constant_orbit_on_axis():
    rec = iterate(H0, (0.0, 5.0 + 1j), 50, record_every=10)
    assert not rec.escaped
    for s in rec.steps:
        assert s.z == 0.0 and s.w == 5.0 + 1j
    assert rec.stop_reason == "converged"  # step delta is exactly 0


def test_first_step_grows_real_part():
    rec = iterate(H0, (100.0, 1.0), 1, transformed=True, stop_tol=None)
    assert rec.steps[-1].zhat.real > 100.0


def test_orbit_growth_sandwich():
    reg = RegionUNM(6.0, 10.0)
    zhat, w = sample_region(reg, 20, re_span=1.0, im_span=1.0)
    rep = check_growth_bounds(H0, zhat, w, 1000)
    assert rep["ok"], rep


def test_orbit_record_transformed_consistency():
    rec = iterate(H0, (30.0, 0.5), 100, record_every=25, transformed=True,
                  region=RegionUNM(6.0, 10.0), stop_tol=None)
    for s in rec.steps:
        if s.z != 0:
            assert abs(s.zhat + 1.0 / s.z) < 1e-12 * max(1.0, abs(s.zhat))
        assert s.in_region is True
    rows = list(orbit_csv_rows(rec))
    assert rows[0][0] == 0 and len(rows[0]) == 8


def test_orbit_escape_is_data():
    rec = iterate(H0, (0.9, 600.0), 50, stop_tol=None)
    assert rec.escaped and rec.stop_reason == "escaped"


def test_product_sum_identity_along_orbit():
    rec = iterate(H0, (20.0, 2.0), 500, transformed=True, stop_tol=None)
    final = rec.steps[-1]
    recon = rec.seed[1] * rec.product_acc + rec.sum_acc
    assert abs(final.w - recon) < 1e-12 * max(1.0, abs(final.w))


# -- invariance ----------------------------------------------------------


def test_forward_invariance_at_recorded_N():
    N = EMPIRICAL_MIN_N[("rank0", 10.0)]
    rep = verify_forward_invariance(H0, RegionUNM(N, 10.0), 400, 500)
    assert rep.ok


def test_invariance_violated_for_small_N():
    rep = verify_forward_invariance(H0, RegionUNM(1.0, 10.0), 200, 200)
    assert not rep.ok
    idx, step, zh, w = rep.violations[0]
    assert step >= 1


def test_invariance_rejects_degenerate_region():
    with pytest.raises(ValueError):
        verify_forward_invariance(H0, RegionUNM(5.0, 0.0), 10, 10)


def test_find_min_invariant_N():
    N = find_min_invariant_N(H0, 10.0, [2, 6], samples=200, n_steps=300)
    assert N == 6.0


def test_sampler_boundary_bias():
    reg = RegionUNM(10.0, 10.0)
    zhat, w = sample_region(reg, 100, boundary_biased=True)
    assert np.all(reg.contains(zhat, w))
    near_re = np.sum(zhat.real <= 10.0 + 0.01 * 10.0)
    near_w = np.sum(np.abs(w) >= 9.9)
    assert near_re >= 20 and near_w >= 20


# -- limit maps ------------------------------------------------------------


def test_rank0_limit_estimate():
    grid = Grid2D(6.0 + 0j, 0.4 + 0j, 5, 5, 1e-3)
    est = estimate_limit_map(H0, grid, tol=1e-10, n_max=2 * 10**5)
    assert est.numerical_rank == 0
    assert np.abs(est.limits_z).max() < 1e-4
    assert np.abs(est.limits_w).max() < 1e-3
    assert float(est.s1.max()) < est.tau1


def test_rank1_limit_estimate():
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 5, 5, 1e-3)
    est = estimate_limit_map(H1, grid, tol=1e-10, n_max=10**5)
    assert est.numerical_rank == 1
    assert float(np.median(est.s1)) > est.tau1
    assert float(est.s2.max()) < est.tau2
    assert np.abs(est.limits_z).max() < 1e-4
    # distinct w-limits across distinct seeds
    assert len(np.unique(np.round(est.limits_w, 9))) > 20


def test_equivariance_defects():
    grid0 = Grid2D(6.0 + 0j, 0.4 + 0j, 3, 3, 1e-3)
    est0 = estimate_limit_map(H0, grid0, tol=1e-10, n_max=10**5)
    assert check_equivariance(H0, est0, tol=1e-10, n_max=10**5) < 1e-8
    grid1 = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est1 = estimate_limit_map(H1, grid1, tol=1e-10, n_max=10**5)
    assert check_equivariance(H1, est1, tol=1e-10, n_max=10**5) < 1e-6


def test_rotation_rational_subsequence():
    HR3 = rotation_map(2 * math.pi / 3, theta_frac=Fraction(1, 3))
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = estimate_limit_map(HR3, grid, tol=1e-10, n_max=3 * 10**5)
    assert est.rotation_order == 3
    assert est.sup_step_delta < 1e-10 and est.stop_reason == "converged"
    # exactly three limit maps, each the map applied to the previous one
    h0 = (est.limits_z, est.limits_w)
    h1 = HR3.eval_batch(*h0)
    h2 = HR3.eval_batch(*h1)
    h3 = HR3.eval_batch(*h2)
    assert np.abs(h1[1] - h0[1]).max() > 0.1
    assert np.abs(h2[1] - h0[1]).max() > 0.1
    assert np.abs(h3[1] - h0[1]).max() < 1e-8
    assert check_equivariance(HR3, est, tol=1e-10, n_max=3 * 10**5) < 1e-6


def test_rotation_irrational_oscillation():
    HRg = rotation_map(2 * math.pi * GOLD)
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = estimate_limit_map(HRg, grid, tol=1e-12, n_max=3 * 10**4)
    assert est.stop_reason == "no_limit_full_sequence"
    assert not est.converged.any()
    assert est.oscillation["modulus_tail_variation"] < 1e-4
    assert est.oscillation["distinct_arguments"] >= 100


# -- product and sum ----------------------------------------------------------


def test_track_product_sum_rank1():
    trk = track_product_sum(H1, (55.0, 0.5), 10**4)
    assert abs(trk.P) > 0.1
    assert trk.identity_defect < 1e-12
    assert trk.cauchy_ok


def test_track_product_sum_zero_w0():
    trk = track_product_sum(H1, (55.0, 0.0), 10**4)
    # w_0 = 0 kills the product term: w_n = S_n exactly
    assert trk.identity_defect < 1e-12
    assert abs(trk.S) > 0


def test_track_product_sum_batch_matches_scalar():
    P, S, defect, _ = track_product_sum_batch(H1, np.array([55.0 + 0j]),
                                              np.array([0.5 + 0j]), 2000)
    trk = track_product_sum(H1, (55.0, 0.5), 2000)
    assert abs(P[0] - trk.P) < 1e-12
    assert abs(S[0] - trk.S) < 1e-12
    assert defect < 1e-12


# -- coverage -------------------------------------------------------------------


def test_waxis_coverage_R1():
    z0 = tr(200.0)
    cov = waxis_coverage(H1, 1.0, z0, ring_samples=128, targets=20,
                         tol=1e-8, n_max=10**5)
    assert cov.covered
    assert set(cov.windings.tolist()) == {1}
    assert cov.windings[0] == 1  # target zeta = 0
    assert cov.precondition_sup < 1.0


def test_waxis_coverage_precondition_failure():
    # a shallow z0 (Re(-1/z0) = 5) leaves h far from the identity in w
    z0 = tr(5.0)
    with pytest.raises(ValueError):
        waxis_coverage(H1, 10.0, z0, ring_samples=64, tol=1e-6, n_max=2 * 10**4)


# -- invariant curve ---------------------------------------------------------------


def test_invariant_curve_hits_accumulate():
    p = (tr(60.0), 0.0)
    counts = []
    for nm in (100, 1000):
        cur = invariant_curve(H0, p, (0, 0), 16, nm, 1e-2)
        counts.append(len(cur.sphere_hits))
        assert cur.invariance_defect < 1e-10
    assert counts[0] >= 1
    assert counts == sorted(counts)


def test_invariant_curve_trivial():
    p = (tr(60.0), 0.0)
    cur = invariant_curve(H0, p, (0, 0), 16, 0, 1e-2)
    assert cur.polyline_z.shape == (1, 17)
    assert not cur.sphere_hits


def test_invariant_curve_bisection_accuracy():
    p = (tr(60.0), 0.0)
    cur = invariant_curve(H0, p, (0, 0), 16, 200, 1e-2)
    assert cur.sphere_hits
    for (zh, wh) in cur.sphere_hits:
        r = math.sqrt(abs(zh) ** 2 + abs(wh) ** 2)
        assert abs(r - 1e-2) < 1e-8  # hit located on the sphere


# -- decay/stabilization invariants ------------------------------------------------


def test_rank0_weak_decade_decay_and_monotonicity():
    # |w_{10n}| < |w_n| past the burn-in, and |w| decreases monotonically
    reg = RegionUNM(6.0, 10.0)
    zhat, w = sample_region(reg, 20, re_span=1.0, im_span=1.0)
    z = np.asarray(from_transformed(zhat))
    prev_abs = np.abs(w)
    mono_violations = 0
    snap = {}
    for n in range(1, 10**4 + 1):
        z, w = H0.eval_batch(z, w)
        cur = np.abs(w)
        if n > 100:  # burn-in
            mono_violations += int(np.sum(cur > prev_abs))
        prev_abs = cur
        if n in (10**3, 10**4):
            snap[n] = cur.copy()
    assert mono_violations == 0
    assert np.all(snap[10**4] < snap[10**3])


def test_rank1_step_differences_summable():
    # partial sums of |w_n - w_{n-1}| are Cauchy (dyadic tails decreasing)
    z = np.array([tr(50.0)])
    w = np.array([0.5 + 0j])
    checkpoints = []
    total = 0.0
    prev_w = w.copy()
    for n in range(1, 2**13 + 1):
        z, w = H1.eval_batch(z, w)
        total += float(np.abs(w - prev_w)[0])
        prev_w = w.copy()
        if n & (n - 1) == 0:  # powers of two
            checkpoints.append(total)
    tails = np.diff(checkpoints)
    # dyadic window sums rise until n reaches the seed depth (~50), then fall
    assert np.all(tails[6:] < tails[5:-1])


def test_rotation_argument_gap():
    # golden rotation: arguments of w_n for n in [1e3, 2e3] pack the circle
    HRg = rotation_map(2 * math.pi * GOLD)
    z = np.array([tr(50.0)])
    w = np.array([0.5 + 0j])
    args = []
    for n in range(1, 2000 + 1):
        z, w = HRg.eval_batch(z, w)
        if n > 1000:
            args.append(float(np.angle(w[0])))
    args = np.sort(np.array(args))
    gaps = np.diff(args)
    assert gaps.min() < 2 * math.pi / 100


# -- floating-point state -----------------------------------------------------------


def test_escaping_seeds_leave_no_warning_and_errstate_unchanged():
    # overflow is data or a typed error: no RuntimeWarning reaches the
    # caller, and the caller's numpy error state is left as it was
    esc_z = np.array([0.9, 1.0, -1 / 6.5])
    esc_w = np.array([600, 700, 0.5 + 0j])
    zh = to_transformed(esc_z)
    grid = Grid2D(complex(zh[0]), 600 + 0j, 2, 2, 1e-3)
    calls = [
        lambda: H0.eval_batch(esc_z, esc_w),
        lambda: iterate(H0, (0.9, 600.0), 50),
        lambda: check_growth_bounds(H0, zh, esc_w, 50),
        lambda: verify_forward_invariance(H0, RegionUNM(0.5, 1000.0), 50, 50),
        lambda: check_equivariance(
            H0, estimate_limit_map(H0, grid, tol=1e-12, n_max=200), n_max=200),
        lambda: track_product_sum_batch(H0, zh, esc_w, 50),
        lambda: track_product_sum(H0, (complex(zh[0]), 600.0), 50),
        lambda: waxis_coverage(H0, 600.0, 0.9, ring_samples=16, n_max=100),
        lambda: invariant_curve(H0, (0.3, 5.0), (0, 0), 4, 50, 1e-2),
    ]
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            before = np.geterr()
            try:
                call()
            except (ArithmeticError, ValueError):
                pass
            assert np.geterr() == before


# -- halton determinism --------------------------------------------------------------


def test_sampler_deterministic():
    reg = RegionUNM(5.0, 2.0)
    a = sample_region(reg, 50, offset=7)
    b = sample_region(reg, 50, offset=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_region(reg, 50, offset=8)
    assert not np.array_equal(a[0], c[0])


# -- escapes are named -------------------------------------------------------------


def test_limit_map_escape_names_seeds_and_step():
    # every seed of this grid overflows at the first step; the SVD of the
    # rank verdict used to fail on the NaN limits instead
    grid = Grid2D(-1 / 0.9, 600, 3, 3, 1e-3)
    with pytest.raises(MapEscapeError,
                       match=r"9 of 9 grid seeds escaped.*node \(0, 0\).*at step 1"):
        estimate_limit_map(H0, grid, n_max=200)


def test_product_sum_escape_names_step():
    with pytest.raises(ArithmeticError, match="not finite at step 1"):
        track_product_sum(H0, (-1 / 0.9, 600), 50)
