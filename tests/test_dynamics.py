import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import engine_oracle
from fatou import dynamics as dyn
from fatou.maps import AutoMap, MapEscapeError, rank0_map, rank1_map, rotation_map
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
    for n, m in ((math.nan, 10.0), (math.inf, 10.0), (6.0, math.nan), (6.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            RegionUNM(n, m)


# -- iterate -------------------------------------------------------------


def test_constant_orbit_on_axis():
    rec = iterate(H0, (0.0, 5.0 + 1j), 50, record_every=10)
    assert not rec.escaped
    assert np.all(rec.z == 0.0) and np.all(rec.w == 5.0 + 1j)
    assert rec.stop_reason == "converged"  # step delta is exactly 0


def test_first_step_grows_real_part():
    rec = iterate(H0, (100.0, 1.0), 1, transformed=True, stop_tol=None)
    assert rec.zhat[-1].real > 100.0


def test_orbit_growth_sandwich():
    reg = RegionUNM(6.0, 10.0)
    zhat, w = sample_region(reg, 20, re_span=1.0, im_span=1.0)
    rep = check_growth_bounds(H0, zhat, w, 1000)
    assert rep["ok"], rep


def test_orbit_record_transformed_consistency():
    rec = iterate(H0, (30.0, 0.5), 100, record_every=25, transformed=True,
                  region=RegionUNM(6.0, 10.0), stop_tol=None)
    assert np.all(rec.z != 0)
    assert np.all(np.abs(rec.zhat + 1.0 / rec.z) < 1e-12 * np.maximum(1.0, np.abs(rec.zhat)))
    assert rec.in_region.all()
    rows = "".join(orbit_csv_rows(rec)).splitlines()
    assert len(rows) == 5 and rows[0].split(",")[0] == "0" and len(rows[0].split(",")) == 8


def test_iterate_memory_per_recorded_row():
    # the columns take 8 + 3 * 16 + 1 = 57 bytes per recorded row; one
    # Python object per row peaked at about 250 here
    tracemalloc.start()
    try:
        rec = iterate(H0, (100.0, 1.0), 2 * 10**4, transformed=True,
                      region=RegionUNM(6.0, 10.0), stop_tol=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.n.size == 2 * 10**4 + 1
    assert peak < 200 * rec.n.size, f"{peak / rec.n.size:.0f} bytes per row"


def test_orbit_escape_is_data():
    rec = iterate(H0, (0.9, 600.0), 50, stop_tol=None)
    assert rec.escaped and rec.stop_reason == "escaped"


def test_product_sum_identity_along_orbit():
    # w_0 P + S from the products path meets the plain orbit's final w
    rec = iterate(H0, (20.0, 2.0), 500, transformed=True, stop_tol=None)
    P, S, _, n = track_product_sum_batch(H0, [20.0], [2.0], 500)
    assert n == rec.n[-1] == 500
    recon = 2.0 * P[0] + S[0]
    assert abs(rec.w[-1] - recon) < 1e-12 * max(1.0, abs(rec.w[-1]))


# -- invariance ----------------------------------------------------------


def test_forward_invariance_at_recorded_N():
    N = EMPIRICAL_MIN_N[("rank0", 10.0)]
    rep = verify_forward_invariance(H0, RegionUNM(N, 10.0), 400, 500)
    assert rep.ok


@pytest.mark.parametrize("m", [H1, rotation_map(2 * math.pi * GOLD)])
def test_recorded_N_of_rank1_and_rotation_is_not_sufficient(m):
    # EMPIRICAL_MIN_N is sampled, not proven: this point of U_{50,10}
    # leaves it in one step, which the sampled check does not find
    N = EMPIRICAL_MIN_N[("rank1", 10.0)]
    assert N == EMPIRICAL_MIN_N[("rotation", 10.0)] == 50.0
    zhat, w = 50.0001 + 49j, 10 * (1 - 1e-12) * np.exp(2.33j)
    assert RegionUNM(N, 10.0).contains(zhat, w)
    _, w1 = m.eval(tr(zhat), w)
    assert abs(abs(w1) - 10.000779) < 1e-6


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
    assert float(est.s1.max()) < dyn.TAU1


def test_rank1_limit_estimate():
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 5, 5, 1e-3)
    est = estimate_limit_map(H1, grid, tol=1e-10, n_max=10**5)
    assert est.numerical_rank == 1
    assert float(np.median(est.s1)) > dyn.TAU1
    assert float(est.s2.max()) < dyn.TAU2
    assert np.abs(est.limits_z).max() < 1e-4
    # distinct w-limits across distinct seeds
    assert len(np.unique(np.round(est.limits_w, 9))) > 20


@pytest.mark.parametrize("m", [H0, rotation_map(2 * math.pi * GOLD),
                               rotation_map(2 * math.pi / 3, theta_frac=Fraction(1, 3))],
                         ids=["rank0", "golden", "rotation_1_3"])
def test_limit_map_needs_a_step(m):
    # the golden path used to run one step for n_max = 0 and report it used
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            estimate_limit_map(m, grid, n_max=n_max)


def test_equivariance_defects():
    grid0 = Grid2D(6.0 + 0j, 0.4 + 0j, 3, 3, 1e-3)
    est0 = estimate_limit_map(H0, grid0, tol=1e-10, n_max=10**5)
    assert check_equivariance(H0, est0) < 1e-8
    grid1 = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est1 = estimate_limit_map(H1, grid1, tol=1e-10, n_max=10**5)
    defect = check_equivariance(H1, est1)
    assert defect < 1e-6
    # F(h) - h is one more step of the orbit, so about the last step delta;
    # re-estimating h at F(p) from the same orbit would read 0 by construction
    assert 0.5 * est1.sup_step_delta <= defect <= 2 * est1.sup_step_delta
    # limits moved 1e-3 off the w-axis are no longer fixed by F
    moved = dataclasses.replace(est1, limits_z=est1.limits_z + 1e-3)
    assert check_equivariance(H1, moved) > 1e-7


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
    assert check_equivariance(HR3, est) < 1e-6


def test_rotation_irrational_oscillation():
    HRg = rotation_map(2 * math.pi * GOLD)
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = estimate_limit_map(HRg, grid, tol=1e-12, n_max=3 * 10**4)
    assert est.stop_reason == "no_limit_full_sequence"
    assert est.oscillation["modulus_tail_variation"] < 1e-4
    assert est.oscillation["distinct_arguments"] >= 100


def test_a_pipeline_copy_gets_the_presets_verdict():
    # the rotation mode and order come from the pipeline, not from how the
    # map was built
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    for H, reason, order in ((rotation_map(2 * math.pi * GOLD), "no_limit_full_sequence", None),
                             (rotation_map(2 * math.pi / 3, Fraction(1, 3)), "converged", 3)):
        ests = [estimate_limit_map(m, grid, tol=1e-6, n_max=3000)
                for m in (H, AutoMap(H.pipeline))]
        for est in ests:
            assert (est.stop_reason, est.rotation_order) == (reason, order)
        assert np.array_equal(ests[0].limits_w, ests[1].limits_w)


@pytest.mark.parametrize("shape", [(0, 3, 1e-3), (3, 0, 1e-3), (3, 3, 0.0), (3, 3, -1e-3),
                                   (3, 3, math.inf), (3, 3, math.nan)])
def test_grid_rejects_empty_shape_and_bad_step(shape):
    with pytest.raises(ValueError, match="nz, nw >= 1"):
        Grid2D(50.0 + 0j, 0.5 + 0j, *shape)


def test_iterate_rejects_record_every_below_1():
    for record_every in (0, -2):
        with pytest.raises(ValueError, match="record_every >= 1"):
            iterate(H0, (0.1, 0.1), 10, record_every)


# -- product and sum ----------------------------------------------------------


def test_track_product_sum_rank1():
    trk = track_product_sum(H1, (55.0, 0.5), 10**4)
    assert abs(trk.P) > 0.1
    assert trk.identity_defect < 1e-12


def test_track_product_sum_zero_w0():
    trk = track_product_sum(H1, (55.0, 0.0), 10**4)
    # w_0 = 0 kills the product term: w_n = S_n exactly
    assert trk.identity_defect < 1e-12
    assert abs(trk.S) > 0


def test_track_product_sum_batch_matches_scalar():
    P, S, defect, _ = track_product_sum_batch(H1, np.array([55.0 + 0j]),
                                              np.array([0.5 + 0j]), 2000)
    trk = track_product_sum(H1, (55.0, 0.5), 2000)
    # the scalar function is a one-seed view of the batch one
    assert np.array_equal(P, [trk.P]) and np.array_equal(S, [trk.S])
    assert defect == trk.identity_defect < 1e-12


def test_product_sum_defect_is_the_max_over_every_step():
    # the drift |w_n - (w_0 P_n + S_n)| / max(1, |w_n|) along a per-step
    # trail of the split, run here apart from the engine; its max here falls
    # between the 64-step convergence checks, at step 233
    zhat, w0 = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3).seeds()
    z, w = from_transformed(zhat.ravel()), w0.ravel()
    P, S = np.ones_like(w), np.zeros_like(w)
    trail = []
    with np.errstate(all="ignore"):
        for _ in range(300):
            zo, wo = H1.eval_batch(np.stack([z, z]), np.stack([0 * w, w]))
            mult = np.where(w != 0, (wo[1] - wo[0]) / np.where(w != 0, w, 1.0), 1.0 + 0j)
            P, S = P * mult, S * mult + wo[0]
            z, w = zo[1], wo[1]
            trail.append(np.max(np.abs(w - (w0.ravel() * P + S)) / np.maximum(1.0, np.abs(w))))
    defect = track_product_sum_batch(H1, zhat, w0, 300)[2]
    assert defect == max(trail) == trail[232]
    assert max(trail[63::64] + trail[-1:]) < defect


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


@pytest.mark.parametrize("kwargs, name", [
    ({"ring_samples": 2}, "ring_samples"),
    ({"ring_samples": 0}, "ring_samples"),
    ({"targets": 0}, "targets"),
    ({"targets": -1}, "targets"),
])
def test_waxis_coverage_rejects_too_few_ring_samples_or_targets(kwargs, name):
    # checked before any orbit is run: n_max=1 would fail the precondition
    with pytest.raises(ValueError, match=name):
        waxis_coverage(H1, 1.0, tr(200.0), n_max=1, **kwargs)


# -- invariant curve ---------------------------------------------------------------


def test_invariant_curve_rejects_a_negative_n_max_or_a_nan_eps():
    for n_max, eps, message in ((-1, 1e-2, "n_max must be >= 0"), (10, math.nan, "eps must be > 0")):
        with pytest.raises(ValueError, match=message):
            invariant_curve(H0, (tr(60.0), 0.0), (0, 0), 16, n_max, eps)


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


def hexed(hits, params):
    return ([(z.real.hex(), z.imag.hex(), w.real.hex(), w.imag.hex()) for z, w in hits],
            [(n, t.hex()) for n, t in params])


@pytest.mark.parametrize("seed, n_max, eps, tol", [
    (60.0, 10**4, 1e-2, 1e-10),          # the README curve
    (57.3 + 0.4j, 3000, 1e-2, 1e-10),    # a seed from the rank-0 workload's range
    (60.0, 400, 1e-2, 1e-13),
])
def test_curve_crossings_equal_the_bisection_one_midpoint_at_a_time(seed, n_max, eps, tol):
    p = (tr(seed), 0.0)
    cur = invariant_curve(H0, p, (0, 0), 16, n_max, eps, bisect_tol=tol)
    want = engine_oracle.curve_crossings(H0, p, (0, 0), 16, cur.polyline_z, cur.polyline_w,
                                         eps, tol)
    assert cur.sphere_hits and hexed(cur.sphere_hits, cur.hit_params) == hexed(*want)


def test_curve_crossing_runs_the_map_once_a_batch_of_midpoints(monkeypatch):
    # the README curve crosses at n = 46 and bisects 32 points: one run of
    # F^46 for each took 1,472 calls; a batch of lo and the 31 midpoints of
    # the next five levels takes 7 runs
    calls = []
    plain = AutoMap.eval_batch
    monkeypatch.setattr(AutoMap, "eval_batch",
                        lambda self, z, w: calls.append(np.size(z)) or plain(self, z, w))
    cur = invariant_curve(H0, (tr(60.0), 0.0), (0, 0), 16, 10**4, 1e-2)
    assert [n for n, _ in cur.hit_params] == [46]
    crossing = calls[10**4 + 1:]           # after F(p) and the 10^4 row steps
    assert len(crossing) == 7 * 46 and set(crossing) == {32}


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
        lambda: estimate_limit_map(rotation_map(2 * math.pi * GOLD), grid, n_max=200),
        lambda: H0.eval_batch(esc_z, esc_w),
        lambda: iterate(H0, (0.9, 600.0), 50),
        lambda: check_growth_bounds(H0, zh, esc_w, 50),
        lambda: verify_forward_invariance(H0, RegionUNM(0.5, 1000.0), 50, 50),
        lambda: check_equivariance(H0, _escaping_estimate()),
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
    with pytest.raises(MapEscapeError, match=r"1 of 1 product/sum seeds escaped.*"
                       r"seed 0 \(zhat, w\) = \(\(-1\.11+\d*\+0j\), \(600\+0j\)\) at step 1$"):
        track_product_sum(H0, (-1 / 0.9, 600), 50)


# a grid and a seed (zhat, w) whose orbits overflow at step 1; the curve's
# seed segment runs from p to F(p), and the points near F(p) overflow at step 1
ESC_GRID = Grid2D(-1 / 0.9, 600, 2, 2, 1e-3)
ESC_ZHAT = [-1 / 0.9 + 0j]


def _escaping_estimate():
    # an estimate whose limits are swapped for points that escape at step 1
    est = estimate_limit_map(H0, Grid2D(6.0 + 0j, 0.4 + 0j, 2, 2, 1e-3), n_max=10)
    zhat, w = ESC_GRID.seeds()
    return dataclasses.replace(est, limits_z=from_transformed(zhat), limits_w=w)


ESCAPING_CALLS = {
    "estimate_limit_map": lambda: estimate_limit_map(H0, ESC_GRID, n_max=200),
    "estimate_limit_map_rotation": lambda: estimate_limit_map(
        rotation_map(2 * math.pi * GOLD), ESC_GRID, n_max=200),
    "track_product_sum": lambda: track_product_sum(H0, (ESC_ZHAT[0], 600), 50),
    "track_product_sum_batch": lambda: track_product_sum_batch(H0, ESC_ZHAT, [600], 50),
    "check_growth_bounds": lambda: check_growth_bounds(H0, ESC_ZHAT, [600], 50),
    "check_equivariance": lambda: check_equivariance(H0, _escaping_estimate()),
    "waxis_coverage": lambda: waxis_coverage(H0, 600.0, 0.9, ring_samples=16, n_max=100),
    "invariant_curve": lambda: invariant_curve(H0, (0.9, 1.0), (0, 0), 4, 50, 1e-2),
}


@pytest.mark.parametrize("name", sorted(ESCAPING_CALLS))
def test_escape_raises_naming_seed_and_step(name):
    # one escape rule: every result that would hold NaN raises instead
    with pytest.raises(MapEscapeError, match=r"escaped \(not finite or beyond 1e\+100\) "
                       r"within \d+ steps: (seed \d+|node \(\d+, \d+\)) \(zhat, w\) = "
                       r"\(.+\) at step 1(,|$)"):
        ESCAPING_CALLS[name]()
