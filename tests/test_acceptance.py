"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one PASS/FAIL line (visible with pytest -s, or in the
captured output of a failing test).  Heavy orbit runs are shared through
module-scoped fixtures; criterion 1's runtime budget is the sum of its
fixture and check times.

Criterion 1c checks the decade decay of the rank-0 orbits against the law
the construction gives.  The jet of rank0_map(2) at the origin is

    z_1 = z + z^2 + 3/2 z^3 + ...
    w_1 = w (1 + z + 3/2 z^2 + ...) + b z^2 + c z^3 + ...,
    b = -2/3,  c = -151/24 = -6.29.

The w-multiplier is 1 + z.  The pure term b z^2 is the z^(l+2) term of the
base composition: the rank-0 shear a_2..a_{l+1} leaves it in place, while
the rank-1 shear removes it (b = -a_4 of the rank-1 shear).  In the chart
zhat = -1/z this reads zhat_1 = zhat + 1 - 1/(2 zhat) + ... and

    zhat_1 w_1 = zhat w + b/zhat + (b - c)/zhat^2 + ...,

the w/zhat terms cancelling.  Summed along the orbit, with
zhat_n = n + O(ln n),

    zhat_n w_n = C(seed) + b ln n + O(ln n / n),

so |w_n| ~ (2/3) ln n / n and the decade ratio |w_1e4| / |w_1e3| exceeds
0.1 for some seeds.  1c asserts, seed by seed, that zhat_n w_n grows by
b ln 10 over n = 10^3 .. 10^4 to 1%, with b read from the map's jet.  The
remainder at n = 10^3 sets that tolerance: (b - c)/n alone is about 6e-3
against 0.01 |b ln 10| = 1.5e-2.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fatou.algebra import Series2, series2_exp, series2_mul, tri_index
from fatou.diophantine import GOLDEN, SILVER, check_sector_lemma, check_siegel, \
    max_c_detail
from fatou.dynamics import (
    EMPIRICAL_MIN_N,
    Grid2D,
    RegionUNM,
    estimate_limit_map,
    from_transformed,
    invariant_curve,
    sample_region,
    to_transformed,
    track_product_sum_batch,
    waxis_coverage,
)
from fatou.dynamics import _lockstep_iterate
from fatou.linearization import (
    compute_small_divisors,
    delta_bruteforce,
    exponential_bound_check,
    majorant_split,
    parameter_sweep,
    quadratic_test_family,
    solve_psi,
)
from fatou.linearization import _delta_sequence
from fatou.maps import four_map_composite, rank0_map, rank1_map, rotation_map, \
    solve_shear_coefficients

GOLD = GOLDEN.value()
LAM = complex(math.cos(2 * math.pi * GOLD), math.sin(2 * math.pi * GOLD))


def report(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f" -- {detail}" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# criterion 1: rank-0 dynamics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crit1():
    H = rank0_map(2)
    N = EMPIRICAL_MIN_N[("rank0", 10.0)]
    region = RegionUNM(N, 10.0)
    zhat0, w0 = sample_region(region, 100, re_span=1.0, im_span=1.0)

    t0 = time.perf_counter()
    z = np.asarray(from_transformed(zhat0))
    w = w0.copy()
    base = np.abs(zhat0)
    invariance_violations = 0
    sandwich_violations = 0
    snap = {}
    for n in range(1, 10**4 + 1):
        z, w = H.eval_batch(z, w)
        zh = to_transformed(z)
        invariance_violations += int(np.sum(~region.contains(zh, w)))
        azh = np.abs(zh)
        sandwich_violations += int(np.sum((azh < n / 2.0) | (azh > base + 2.0 * n)))
        if n in (10**3, 10**4):
            snap[n] = (w.copy(), zh)
    t_short = time.perf_counter() - t0

    t0 = time.perf_counter()
    z6, w6, n_used, sup_delta, _, _ = _lockstep_iterate(
        H, np.asarray(from_transformed(zhat0)), w0.copy(), 1e-12, 10**6)
    t_long = time.perf_counter() - t0

    return {
        "map": H,
        "region": region,
        "seeds": (zhat0, w0),
        "invariance_violations": invariance_violations,
        "sandwich_violations": sandwich_violations,
        "snapshots": snap,
        "final": (z6, w6),
        "n_used": n_used,
        "runtime": t_short + t_long,
    }


def test_criterion_1a_forward_invariance(crit1):
    ok = crit1["invariance_violations"] == 0
    assert report("1a", ok, f"violations={crit1['invariance_violations']} over 100 seeds x 1e4 steps")


def test_criterion_1b_growth_sandwich(crit1):
    ok = crit1["sandwich_violations"] == 0
    assert report("1b", ok, f"violations={crit1['sandwich_violations']}")


def test_criterion_1c_decade_decay(crit1):
    b = crit1["map"].jet(3)[1].get(2, 0)
    (w3, zh3), (w4, zh4) = crit1["snapshots"][10**3], crit1["snapshots"][10**4]
    expected = b * math.log(10)
    tol = 0.01 * abs(expected)
    worst = float(np.abs(zh4 * w4 - zh3 * w3 - expected).max())
    ratio = float((np.abs(w4) / np.abs(w3)).max())
    ok = worst <= tol
    assert report(
        "1c", ok,
        f"max |d(zhat w) - b ln 10| over n=1e3..1e4 = {worst:.2e} (needs <= "
        f"{tol:.2e}), b = {b.real:.6f} from the jet; "
        f"max |w_1e4|/|w_1e3| = {ratio:.4f}",
    )


def test_criterion_1d_limits_near_origin(crit1):
    z6, w6 = crit1["final"]
    worst = float(np.maximum(np.abs(z6), np.abs(w6)).max())
    ok = worst < 1e-4
    assert report("1d", ok, f"max distance to (0,0) after 1e6 iterations = {worst:.3e}")


def test_criterion_1_runtime(crit1):
    ok = crit1["runtime"] < 60.0
    assert report("1-runtime", ok, f"{crit1['runtime']:.1f}s single-threaded (target 60s)")


# ---------------------------------------------------------------------------
# criterion 2: rank-1 dynamics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crit2():
    H = rank1_map()
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 10, 10, 1e-3)
    est = estimate_limit_map(H, grid, tol=2.5e-13, n_max=4 * 10**6)
    zhat, w = grid.seeds()
    P, S, defect, _ = track_product_sum_batch(H, zhat.ravel(), w.ravel(), 10**5)
    cov = waxis_coverage(
        H, 1.0, complex(from_transformed(np.complex128(200.0 + 0j))),
        ring_samples=256, targets=20, tol=1e-9, n_max=10**6)
    return {"est": est, "P": P, "defect": defect, "cov": cov}


def test_criterion_2_rank(crit2):
    est = crit2["est"]
    s1_min = float(est.s1.min())
    s2_max = float(est.s2.max())
    ok = est.numerical_rank == 1 and s1_min >= 1e-4 and s2_max < 1e-7
    assert report("2-rank", ok,
                  f"rank={est.numerical_rank}, min s1={s1_min:.3e}, max s2={s2_max:.3e}")


def test_criterion_2_z_components(crit2):
    worst = float(np.abs(crit2["est"].limits_z).max())
    ok = worst < 1e-6
    assert report("2-z", ok, f"max |z-limit| = {worst:.3e}")


def test_criterion_2_product_sum(crit2):
    defect = crit2["defect"]
    pmin = float(np.abs(crit2["P"]).min())
    ok = defect < 1e-12 and pmin > 0.1
    assert report("2-products", ok,
                  f"identity defect {defect:.2e} (needs < 1e-12), min |P| = {pmin:.3f}")


def test_criterion_2_coverage(crit2):
    cov = crit2["cov"]
    ok = cov.covered and set(cov.windings.tolist()) == {1}
    assert report("2-coverage", ok,
                  f"windings {sorted(set(cov.windings.tolist()))} on 20 targets")


# ---------------------------------------------------------------------------
# criterion 3: rotation
# ---------------------------------------------------------------------------


def test_criterion_3_irrational_rotation():
    H = rotation_map(2 * math.pi * GOLD)
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = estimate_limit_map(H, grid, tol=1e-12, n_max=10**5)
    nonconv = est.stop_reason == "no_limit_full_sequence" and not est.converged.any()
    osc = est.oscillation
    ok = (nonconv and osc["modulus_tail_variation"] < 1e-6
          and osc["distinct_arguments"] >= 100)
    assert report(
        "3-irrational", ok,
        f"nonconvergence={nonconv}, |w| tail variation "
        f"{osc['modulus_tail_variation']:.2e}, distinct args {osc['distinct_arguments']}",
    )


def test_criterion_3_rational_rotation():
    H = rotation_map(2 * math.pi / 3, theta_frac=Fraction(1, 3))
    grid = Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = estimate_limit_map(H, grid, tol=1e-10, n_max=3 * 10**5)
    subseq_ok = est.rotation_order == 3 and est.stop_reason == "converged"
    h0 = (est.limits_z, est.limits_w)
    h1 = H.eval_batch(*h0)
    h2 = H.eval_batch(*h1)
    h3 = H.eval_batch(*h2)
    distinct = (np.abs(h1[1] - h0[1]).max() > 1e-3
                and np.abs(h2[1] - h0[1]).max() > 1e-3
                and np.abs(h2[1] - h1[1]).max() > 1e-3)
    closes = np.abs(h3[1] - h0[1]).max() < 1e-8 and np.abs(h3[0] - h0[0]).max() < 1e-8
    ok = subseq_ok and distinct and closes
    assert report(
        "3-rational", ok,
        f"subsequence converged={subseq_ok}, 3 distinct maps={distinct}, "
        f"H-composition closes={closes}",
    )


# ---------------------------------------------------------------------------
# criterion 4: jet identities
# ---------------------------------------------------------------------------


def test_criterion_4_jet_identities():
    G = four_map_composite()
    a = solve_shear_coefficients(G, 2)
    shear_ok = abs(a[0] - 1.0) < 1e-12 and abs(a[1] + 1.5) < 1e-12

    _, W = G.jet(3)
    jet_ok = (abs(W.get(2, 0) + 1) < 1e-12 and abs(W.get(3, 0) + 0.5) < 1e-12
              and abs(W.get(1, 1) + 1) < 1e-12)

    _, W1 = rank1_map().jet(3)
    rank1_ok = abs(W1.get(2, 1) + 0.5) < 1e-12

    D = 4
    z = Series2.var_z(D)
    w = Series2.var_w(D)
    zA = series2_mul(z, series2_exp(z + series2_mul(series2_mul(z, z), w)))
    zu = series2_mul(z, series2_exp(zA))
    prod = series2_mul(series2_exp(zu.scale(3)), series2_exp(zA.scale(-2)))
    prod_ok = (abs(prod.get(0, 0) - 1) < 1e-12 and abs(prod.get(1, 0) - 1) < 1e-12
               and abs(prod.get(2, 0) - 1.5) < 1e-12 and abs(prod.get(2, 1)) < 1e-12)

    ok = shear_ok and jet_ok and rank1_ok and prod_ok
    assert report(
        "4", ok,
        f"shear(1,-3/2)={shear_ok}, jet(G,3)={jet_ok}, rank1 z^2w=-1/2={rank1_ok}, "
        f"product series={prod_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 5: linearization
# ---------------------------------------------------------------------------


def test_criterion_5_linearization():
    t0 = time.perf_counter()
    res = solve_psi(quadratic_test_family(LAM), LAM, 40)
    residual_ok = res.residual < 1e-10

    norms = res.psi_norms().astype(float)
    domination_ok = bool(np.all(norms[2:] <= res.sigma[2:]))

    c = max_c_detail(GOLDEN, 1.0, 256)[0]
    split = majorant_split(res.M, GOLDEN, c, 1.0, 40)
    split_ok = bool(np.all(split.sigma[2:] <= split.eta[2:] * split.delta[2:]
                           * (1 + 1e-9)))

    res20 = solve_psi(quadratic_test_family(LAM), LAM, 20)
    determinism_ok = bool(np.array_equal(res.psi.coeffs[:21], res20.psi.coeffs))

    sweep = parameter_sweep(quadratic_test_family, GOLDEN, [0.995, 1.0, 1.005], 20)
    rates = []
    for r, rr in sweep.results.items():
        sp = majorant_split(rr.M, GOLDEN, c, 1.0, 20)
        rates.append(exponential_bound_check(rr, sp).rate)
    rates_ok = max(rates) / min(rates) < 1.2
    sweep_ok = sweep.smoothness_ok and not sweep.failures and rates_ok

    elapsed = time.perf_counter() - t0
    runtime_ok = elapsed < 10.0
    ok = residual_ok and domination_ok and split_ok and determinism_ok \
        and sweep_ok and runtime_ok
    assert report(
        "5", ok,
        f"residual {res.residual:.2e} (<1e-10)={residual_ok}, "
        f"||psi||<=sigma={domination_ok}, sigma<=eta*delta={split_ok}, "
        f"bit-determinism={determinism_ok}, sweep+rates(20%)={sweep_ok}, "
        f"runtime {elapsed:.1f}s (<10s)={runtime_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 6: diophantine
# ---------------------------------------------------------------------------


def test_criterion_6_diophantine():
    c, _, argmin, running = max_c_detail(GOLDEN, 1.0, 10**5)
    cert = check_siegel(GOLDEN, c, 1.0, 10**5)
    cert_ok = cert.ok

    fibs = {1, 2}
    while max(fibs) < 10**5:
        s = sorted(fibs)
        fibs.add(s[-1] + s[-2])
    fib_ok = all(k in fibs for k, _ in running) and argmin in fibs

    # golden at N = 1 keeps k = 1 as its only running minimum; silver at
    # N = 1/2 sets a new minimum at every Pell denominator q_{n+1} = 2 q_n + q_{n-1}
    pell = [1, 2]
    while 2 * pell[-1] + pell[-2] <= 10**5:
        pell.append(2 * pell[-1] + pell[-2])
    silver_running = max_c_detail(SILVER, 0.5, 10**5)[3]
    pell_ok = [k for k, _ in silver_running] == pell

    rep = check_sector_lemma(GOLDEN, [0.999, 1.001], 10**3)
    sector_ok = all(not res["final_violations"] for res in rep.results.values())

    ok = cert_ok and fib_ok and pell_ok and sector_ok
    assert report(
        "6", ok,
        f"certificate(c=max_c, k<=1e5)={cert_ok}, minima Fibonacci={fib_ok}, "
        f"silver N=1/2 minima are the {len(pell)} Pell numbers <= 1e5={pell_ok}, "
        f"sector final conclusion={sector_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 7: invariant curve
# ---------------------------------------------------------------------------


def test_criterion_7_invariant_curve():
    H = rank0_map(2)
    p = (complex(from_transformed(np.complex128(60.0 + 0j))), 0.0)
    counts = []
    worst_defect = 0.0
    for n_max in (10**2, 10**3, 10**4):
        cur = invariant_curve(H, p, (0, 0), 16, n_max, 1e-2)
        counts.append(len(cur.sphere_hits))
        worst_defect = max(worst_defect, cur.invariance_defect)
    ok = counts[0] >= 1 and counts == sorted(counts) and worst_defect < 1e-10
    assert report(
        "7", ok,
        f"hit counts {counts} (>=1, nondecreasing), invariance defect "
        f"{worst_defect:.2e} (<1e-10)",
    )


# ---------------------------------------------------------------------------
# criterion 8: oracles before build
# ---------------------------------------------------------------------------


def test_criterion_8_oracles():
    div = compute_small_divisors(LAM, 12)
    eps = div.eps_min
    dp = _delta_sequence(eps, 12)
    delta_ok = all(
        abs(dp[k] - delta_bruteforce(tuple(eps), k)) <= 1e-12 * dp[k]
        for k in range(2, 13)
    )

    # brute-force polynomial exponentiation to degree 6, independent storage
    def poly_mul(a, b, order):
        out = {}
        for (i, j), ca in a.items():
            for (k, l), cb in b.items():
                if i + k + j + l <= order:
                    out[(i + k, j + l)] = out.get((i + k, j + l), 0) + ca * cb
        return out

    rng = np.random.RandomState(31)
    arg = {}
    for i in range(7):
        for j in range(7 - i):
            if 0 < i + j <= 6:
                arg[(i, j)] = complex(rng.randn(), rng.randn()) * 0.4
    want = {(0, 0): 1.0}
    term = {(0, 0): 1.0}
    fact = 1.0
    for k in range(1, 7):
        term = poly_mul(term, arg, 6)
        fact *= k
        for key, v in term.items():
            want[key] = want.get(key, 0) + v / fact
    s = Series2.zero(6)
    for (i, j), v in arg.items():
        s.coeffs[tri_index(i, j)] = v
    got = series2_exp(s)
    exp_ok = all(
        abs(got.get(i, j) - want.get((i, j), 0.0)) < 1e-12
        for i in range(7)
        for j in range(7 - i)
    )

    from fatou.linearization import majorant_sigma

    M = 0.8
    sigma = majorant_sigma(M, div, 4)
    sigma2_ok = abs(sigma[2] - 3 * M / eps[2]) < 1e-15

    ok = delta_ok and exp_ok and sigma2_ok
    assert report(
        "8", ok,
        f"delta DP == brute force (k<=12)={delta_ok}, exp oracle(deg 6)={exp_ok}, "
        f"sigma_2 = 3M/eps_2={sigma2_ok}",
    )
