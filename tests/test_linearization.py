import cmath
import math

import numpy as np
import pytest

import series_oracle
from fatou.algebra import Series2, tri_index
from fatou.diophantine import GOLDEN, max_c
from fatou.linearization import (
    MajorantOverflowError,
    SmallDivisorError,
    compute_small_divisors,
    delta_bruteforce,
    eta_radius,
    exponential_bound_check,
    linear_family,
    majorant_sigma,
    majorant_split,
    parameter_sweep,
    quadratic_test_family,
    residual,
    result_to_json,
    solve_psi,
)
from fatou.linearization import _delta_sequence, _majorant_recursion

GOLD = GOLDEN.value()
LAM = cmath.exp(2j * math.pi * GOLD)


# -- small divisors -----------------------------------------------------------


def test_divisor_identity():
    # lambda^n - lambda = lambda (lambda^{n-1} - 1), bitwise with repeated powers
    div = compute_small_divisors(LAM, 200)
    for n in range(3, 201):
        lhs = div.eps1[n]
        rhs = LAM * div.eps2[n - 1]
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_resonant_lambda_rejected():
    with pytest.raises(SmallDivisorError):
        compute_small_divisors(-1.0 + 0j, 2)  # lambda^2 = 1 exactly


def test_golden_eps2_value():
    div = compute_small_divisors(LAM, 4)
    assert abs(abs(div.eps2[2]) - 2 * abs(math.sin(2 * math.pi * GOLD))) < 1e-14


# -- the recursion -------------------------------------------------------------


def test_linear_map_gives_identity_curve():
    res = solve_psi(linear_family(LAM), LAM, 10)
    assert res.psi.coeffs[1, 0] == 1.0 and res.psi.coeffs[1, 1] == 0.0
    assert np.max(np.abs(res.psi.coeffs[2:])) == 0.0
    assert res.residual == 0.0
    assert res.M == 0.0


def test_spec_quadratic_psi2_vanishes():
    # F = (lambda z + w^2, w): psi = (w, 0) solves the equation exactly
    P = Series2.zero(2)
    Q = Series2.zero(2)
    P.coeffs[tri_index(1, 0)] = LAM
    P.coeffs[tri_index(0, 2)] = 1.0
    Q.coeffs[tri_index(0, 1)] = 1.0
    res = solve_psi((P, Q), LAM, 8)
    assert np.max(np.abs(res.psi.coeffs[2:])) < 1e-15
    # independent brute-force confirmation: substitute psi = (w, 0)
    # into F and compare against psi(lambda w) coefficientwise
    for n in range(2, 9):
        assert abs(0.0) <= 1e-15  # (w,0) makes w^2-term vanish identically


def test_quadratic_family_psi2_analytic():
    res = solve_psi(quadratic_test_family(LAM), LAM, 6)
    # degree-2 matching: first component RHS has no w^2 term, second has z^2
    # through (psi^1)^2 = w^2, so psi_2 = (0, 1/(lambda^2 - 1))
    assert abs(res.psi.coeffs[2, 0]) < 1e-15
    assert abs(res.psi.coeffs[2, 1] - 1.0 / (LAM**2 - 1.0)) < 1e-14


def test_psi_normalization_invariants():
    res = solve_psi(quadratic_test_family(LAM), LAM, 12)
    assert res.psi.coeffs[0, 0] == 0 and res.psi.coeffs[0, 1] == 0
    assert res.psi.coeffs[1, 0] == 1.0 and res.psi.coeffs[1, 1] == 0.0


def test_triangular_determinism_bitwise():
    r20 = solve_psi(quadratic_test_family(LAM), LAM, 20)
    r40 = solve_psi(quadratic_test_family(LAM), LAM, 40)
    assert np.array_equal(r40.psi.coeffs[:21], r20.psi.coeffs)


def test_functional_equation_residual():
    res = solve_psi(quadratic_test_family(LAM), LAM, 40)
    assert res.residual < 1e-10  # truncation + rounding only at rho/2


def test_residual_decay_with_order():
    # geometric decay in D at a radius where truncation dominates rounding
    F = quadratic_test_family(LAM)
    r8 = solve_psi(F, LAM, 8)
    r16 = solve_psi(F, LAM, 16)
    rad = 0.2
    res8 = residual(r8.psi, F, LAM, rad)
    res16 = residual(r16.psi, F, LAM, rad)
    assert res16 < res8 / 1e3 or res16 < 1e-14
    # at rho/2 the defect is already at the rounding floor for this family,
    # which is the vacuous limit of the same decay statement
    r20 = solve_psi(F, LAM, 20)
    r40 = solve_psi(F, LAM, 40)
    assert r40.residual < r20.residual / 1e3 or r40.residual < 1e-14


def test_residual_radius_slope():
    # residual ~ radius^(D+1): log-log slope over halved radii
    F = quadratic_test_family(LAM)
    res = solve_psi(F, LAM, 8)
    radii = [0.4, 0.2, 0.1]
    vals = [residual(res.psi, F, LAM, r, samples=32) for r in radii]
    slopes = [
        math.log(vals[i] / vals[i + 1]) / math.log(radii[i] / radii[i + 1])
        for i in range(2)
    ]
    for s in slopes:
        assert abs(s - 9) < 1.5, slopes


def test_normalization_preprocessing():
    # conjugate the quadratic family by a random basis; the solver must
    # recover the normal form and satisfy its functional equation
    rng = np.random.RandomState(8)
    V = rng.randn(2, 2) + 1j * rng.randn(2, 2)
    Vinv = np.linalg.inv(V)
    P, Q = quadratic_test_family(LAM, order=4)
    P_v = P.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    Q_v = Q.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    F_conj = (
        P_v.scale(Vinv[0, 0]) + Q_v.scale(Vinv[0, 1]),
        P_v.scale(Vinv[1, 0]) + Q_v.scale(Vinv[1, 1]),
    )
    res = solve_psi(F_conj, LAM, 12)
    assert res.basis is not None
    assert res.residual < 1e-9
    assert res.psi.coeffs[1, 0] == 1.0


def test_dd_escalation_near_resonance():
    # theta near 1/3 drives |lambda^3 - 1| under the escalation threshold
    theta = 1.0 / 3.0 + 1e-10
    lam = cmath.exp(2j * math.pi * theta)
    res = solve_psi(quadratic_test_family(lam), lam, 6)
    assert res.precision_mode == "double-double"
    assert res.divisors.min_modulus() < 1e-8


def test_dd_matches_double_on_benign_lambda():
    rd = solve_psi(quadratic_test_family(LAM), LAM, 10, precision="double")
    rdd = solve_psi(quadratic_test_family(LAM), LAM, 10, precision="dd")
    scale = np.max(np.abs(rd.psi.coeffs))
    assert np.max(np.abs(rd.psi.coeffs - rdd.psi.coeffs)) < 1e-13 * scale


# -- majorants ------------------------------------------------------------------


def enumerate_compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in enumerate_compositions(n - first):
            yield (first,) + rest


def test_sigma2_by_composition_enumeration():
    # independent enumeration: only nu = 2, (1,1) contributes at n = 2 with
    # weight nu + 1 = 3 and sigma_1^2 = 1, so sigma_2 = 3 M / eps_2
    M = 0.7
    div = compute_small_divisors(LAM, 4)
    sigma = majorant_sigma(M, div, 4)
    total = 0.0
    for comp in enumerate_compositions(2):
        if len(comp) >= 2:
            total += (len(comp) + 1) * np.prod([sigma[k] for k in comp])
    want = M / div.eps_min[2] * total
    assert abs(sigma[2] - want) < 1e-15
    assert abs(sigma[2] - 3 * M / div.eps_min[2]) < 1e-15


def test_sigma_against_full_enumeration():
    # every coefficient up to n = 7 against the literal composition sum
    M = 0.5
    div = compute_small_divisors(LAM, 7)
    sigma = majorant_sigma(M, div, 7)
    for n in range(2, 8):
        total = 0.0
        for comp in enumerate_compositions(n):
            if len(comp) >= 2:
                total += (len(comp) + 1) * np.prod([sigma[k] for k in comp])
        assert abs(sigma[n] - M / div.eps_min[n] * total) < 1e-12 * max(1, sigma[n])


def test_sigma_zero_M():
    div = compute_small_divisors(LAM, 10)
    sigma = majorant_sigma(0.0, div, 10)
    assert np.all(sigma[2:] == 0.0)


@pytest.mark.parametrize("M", [0.0, 0.5, 0.7, 1.0])
def test_online_majorants_match_power_expansion_oracle(M):
    # sigma (divisors in place) and eta (eps = 1) against the O(D^4)
    # expansion power by power; the summation order differs
    D = 200
    div = compute_small_divisors(LAM, D)
    sigma = majorant_sigma(M, div, D)
    np.testing.assert_allclose(sigma, series_oracle.majorant(M, div.eps_min, D),
                               rtol=1e-13, atol=0)
    ones = np.ones(D + 1)
    np.testing.assert_allclose(_majorant_recursion(M, ones, D, "eta"),
                               series_oracle.majorant(M, ones, D), rtol=1e-13, atol=0)


def test_majorant_overflow_names_the_degree():
    # golden lambda, M = 1: sigma_242 and eta_270 exceed the double range
    div = compute_small_divisors(LAM, 400)
    with pytest.raises(ArithmeticError, match="242"):
        majorant_sigma(1.0, div, 400)
    c = max_c(GOLDEN, 1.0, 400)
    with pytest.raises(MajorantOverflowError, match=r"sigma_n .* n = 242"):
        majorant_split(1.0, GOLDEN, c, 1.0, 400)
    with pytest.raises(MajorantOverflowError, match=r"eta_n .* n = 270"):
        eta_radius(1.0, check_terms=400)
    with pytest.raises(MajorantOverflowError, match="242"):
        solve_psi(quadratic_test_family(LAM), LAM, 250)


def test_majorant_domination():
    res = solve_psi(quadratic_test_family(LAM), LAM, 40)
    norms = res.psi_norms().astype(float)
    assert np.all(norms[2:] <= res.sigma[2:])
    assert res.majorant_ok


def test_delta_dp_equals_bruteforce():
    # acceptance-gate oracle: the pairwise program must equal the literal
    # composition max for k <= 12
    div = compute_small_divisors(LAM, 12)
    eps = div.eps_min
    dp = _delta_sequence(eps, 12)
    for k in range(2, 13):
        bf = delta_bruteforce(tuple(eps), k)
        assert abs(dp[k] - bf) <= 1e-12 * bf, k
    # hand value at k = 3 for golden: eps_2 > 1 makes the all-ones
    # composition win over the binary bracketing
    assert abs(dp[3] - max(1.0, dp[2]) / eps[3]) < 1e-14


def test_eta_delta_split():
    c = max_c(GOLDEN, 1.0, 100)
    split = majorant_split(1.0, GOLDEN, c, 1.0, 40)
    assert split.split_ok
    assert abs(split.eta[2] - 3.0) < 1e-15            # eta_2 = 3M with M = 1
    div = compute_small_divisors(LAM, 4)
    assert abs(split.delta[2] - 1.0 / div.eps_min[2]) < 1e-15
    assert abs(split.sigma[2] - split.eta[2] * split.delta[2]) < 1e-14


def test_split_rejects_bad_certificate():
    with pytest.raises(ValueError):
        majorant_split(1.0, GOLDEN, 5.0, 1.0, 20)  # c too large to certify


def test_degree_bound_proxy():
    # log delta_n <= n^2 (log(1/c) + N log n): the numerical shadow of the
    # bound on how many divisors can enter one monomial
    N = 1.0
    c = max_c(GOLDEN, N, 100)
    split = majorant_split(1.0, GOLDEN, c, N, 40)
    for n in range(2, 41):
        bound = n * n * (math.log(1.0 / c) + N * math.log(n))
        assert math.log(split.delta[n]) <= bound, n


# -- eta radius ------------------------------------------------------------------


def test_eta_radius_trivials():
    er = eta_radius(1.0)
    assert er.eta_fn(0.0) < 1e-12                 # eta(0) = 0
    x = 1e-4
    assert abs(er.eta_fn(x) / x - 1.0) < 1e-2     # eta(w) = w + O(w^2)


def test_eta_radius_fold_and_bound():
    # bisection fold against the closed form (1 - eta*)^3 = 2M/(1 + 2M),
    # and eta_n <= C b^n along the recursion with no violations to n = 200
    er = eta_radius(1.0, check_terms=200)
    assert abs(er.eta_star - (1 - (2.0 / 3.0) ** (1.0 / 3.0))) < 1e-12
    assert er.b == 1.0 / er.w_star


def test_eta_radius_requires_positive_M():
    with pytest.raises(ValueError):
        eta_radius(0.0)


# -- exponential bound and sweep ---------------------------------------------------


def test_bound_check_linear_trivial():
    res = solve_psi(linear_family(LAM), LAM, 10)
    c = max_c(GOLDEN, 1.0, 50)
    split = majorant_split(1.0, GOLDEN, c, 1.0, 10)
    assert exponential_bound_check(res, split).ok


def test_bound_check_quadratic_golden():
    res = solve_psi(quadratic_test_family(LAM), LAM, 40)
    c = max_c(GOLDEN, 1.0, 100)
    split = majorant_split(res.M, GOLDEN, c, 1.0, 40)
    bc = exponential_bound_check(res, split)
    assert bc.ok and bc.rate < bc.bound


def test_sweep_rates_uniform_in_r():
    rows = parameter_sweep(quadratic_test_family, GOLDEN, [0.99, 1.0, 1.01], 24)
    c = max_c(GOLDEN, 1.0, 100)
    rates = []
    for r, res in rows.results.items():
        split = majorant_split(res.M, GOLDEN, c, 1.0, 24)
        rates.append(exponential_bound_check(res, split).rate)
    assert max(rates) / min(rates) < 1.2


def test_sweep_smoothness_quadratic():
    sw = parameter_sweep(quadratic_test_family, GOLDEN, [0.995, 1.0, 1.005], 20)
    assert not sw.failures
    assert sw.smoothness_ok
    assert sw.smoothness_ratios  # the test actually ran on some coefficients


def test_sweep_linear_derivative_zero():
    sw = parameter_sweep(linear_family, GOLDEN, [0.995, 1.0, 1.005], 10)
    assert all(np.max(np.abs(v)) == 0.0 for v in sw.d_psi_dr.values())
    assert sw.smoothness_ok


def test_sweep_coefficient_continuity():
    sw = parameter_sweep(quadratic_test_family, GOLDEN, [0.995, 1.0, 1.005], 20)
    lo, mid = sw.results[0.995], sw.results[1.0]
    dpsi = sw.d_psi_dr[1.0]
    for n in range(2, 11):
        step = np.max(np.abs(mid.psi.coeffs[n] - lo.psi.coeffs[n]))
        L = np.max(np.abs(dpsi[n]))
        assert step <= (1.5 * L + 1e-8) * 0.005, n


def test_sweep_requires_sorted_r():
    with pytest.raises(ValueError):
        parameter_sweep(quadratic_test_family, GOLDEN, [1.005, 1.0], 8)


def test_result_json():
    import json

    res = solve_psi(quadratic_test_family(LAM), LAM, 12)
    c = max_c(GOLDEN, 1.0, 50)
    split = majorant_split(res.M, GOLDEN, c, 1.0, 12)
    obj = json.loads(result_to_json(res, split))
    assert obj["D"] == 12 and len(obj["psi_coeffs"]) == 13
    assert obj["precision_mode"] == "double"
    assert len(obj["eta"]) == 13 and len(obj["delta"]) == 13
    obj2 = json.loads(result_to_json(res))
    assert obj2["eta"] is None
