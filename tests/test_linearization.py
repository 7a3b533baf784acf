import cmath
import math
import warnings

import numpy as np
import pytest

import series_oracle
from fatou import ddc
from fatou.algebra import Series2, tri_index
from fatou.diophantine import GOLDEN, SILVER, max_c
from fatou.maps import rank0_map, rank1_map
from fatou.linearization import (
    MajorantOverflowError,
    SmallDivisorError,
    compute_small_divisors,
    eta_radius,
    linear_family,
    majorant_sigma,
    majorant_split,
    parameter_sweep,
    quadratic_test_family,
    residual,
    result_to_json,
    solve_psi,
)
from fatou.linearization import (
    _bisect,
    _delta_sequence,
    _eta_implicit,
    _fit_growth,
    _jet_max_norm,
    _majorant_recursion,
    _nonlinear_part,
    _normalize_jet,
    _solve_psi_only,
)

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
    # near resonance the double-double divisors depend on n alone too
    lam = cmath.exp(2j * math.pi * (1.0 / 3.0 + 1e-10))
    r12 = solve_psi(quadratic_test_family(lam), lam, 12)
    r40 = solve_psi(quadratic_test_family(lam), lam, 40)
    assert r12.precision_mode == r40.precision_mode == "double-double"
    assert r40.psi.coeffs[:13].tobytes() == r12.psi.coeffs.tobytes()


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


@pytest.mark.parametrize("D", [2, 12, 40, 80])
@pytest.mark.parametrize("precision", ["double", "dd"])
def test_residual_equals_the_per_point_oracle(D, precision):
    for modulus in (0.99, 0.995, 1.0, 1.005):
        lam = modulus * LAM
        F = quadratic_test_family(lam)
        res = solve_psi(F, lam, D, precision=precision)
        want = series_oracle.residual(res.psi, F, lam, res.residual_radius)
        assert res.residual.hex() == want.hex(), modulus
        # radii where truncation dominates, and |w| >> 1 where psi is huge
        for radius in (res.residual_radius, 0.5, 40.0):
            for samples in (1, 32, 64):
                got = residual(res.psi, F, lam, radius, samples=samples)
                want = series_oracle.residual(res.psi, F, lam, radius, samples=samples)
                assert got.hex() == want.hex(), (modulus, radius, samples)


def test_residual_is_inf_when_the_gaps_are_not_finite():
    # at |w| = 1000 psi of order 80 overflows and every gap is inf - inf;
    # the per-point max skips each NaN and reads 0.0
    F = quadratic_test_family(LAM)
    res = solve_psi(F, LAM, 80)
    with np.errstate(all="ignore"):
        assert series_oracle.residual(res.psi, F, LAM, 1000.0) == 0.0
    assert residual(res.psi, F, LAM, 1000.0) == math.inf
    assert math.isfinite(residual(res.psi, F, LAM, res.residual_radius))


def test_residual_evaluates_psi_twice(monkeypatch):
    # psi at the points and at their lambda-images in one array pass: a
    # loop over the points would call series1_eval 2 * samples times
    import fatou.linearization as lin

    calls = []
    plain = lin.series1_eval

    def counting(psi, w):
        calls.append(np.shape(w))
        return plain(psi, w)

    monkeypatch.setattr(lin, "series1_eval", counting)
    F = quadratic_test_family(LAM)
    res = solve_psi(F, LAM, 20)
    calls.clear()
    residual(res.psi, F, LAM, 0.1, samples=64)
    assert calls == [(128,)]


def _conjugated_quadratic():
    """The order-4 quadratic family conjugated by a random basis."""
    rng = np.random.RandomState(8)
    V = rng.randn(2, 2) + 1j * rng.randn(2, 2)
    Vinv = np.linalg.inv(V)
    P, Q = quadratic_test_family(LAM, order=4)
    P_v = P.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    Q_v = Q.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    return (
        P_v.scale(Vinv[0, 0]) + Q_v.scale(Vinv[0, 1]),
        P_v.scale(Vinv[1, 0]) + Q_v.scale(Vinv[1, 1]),
    )


def test_normalization_preprocessing():
    # conjugate the quadratic family by a random basis; the solver must
    # recover the normal form and satisfy its functional equation
    res = solve_psi(_conjugated_quadratic(), LAM, 12)
    assert res.basis is not None
    psi_only = _solve_psi_only(_conjugated_quadratic(), LAM, 12)
    assert psi_only.coeffs.tobytes() == res.psi.coeffs.tobytes()
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


def _dense_jet(K, seed):
    """(lambda z, w) plus random coefficients of size ~0.3 in degrees 2..K."""
    rng = np.random.default_rng(seed)
    jet = linear_family(LAM, order=K)
    for S in jet:
        for d in range(2, K + 1):
            S.layer(d)[:] = 0.3 * (rng.standard_normal(d + 1)
                                   + 1j * rng.standard_normal(d + 1))
    return jet


def _rel_err(got, want):
    """max over n of ||got_n - want_n|| / ||want_n||, max-norm on C^2."""
    num = np.max(np.abs(got - want), axis=1)
    den = np.max(np.abs(want), axis=1)
    assert np.all(num[den == 0] == 0)
    return float(np.max(num[den > 0] / den[den > 0]))


PSI_CASES = {
    "quadratic-D80": (lambda: quadratic_test_family(LAM), 80),
    "quadratic-order4": (lambda: quadratic_test_family(LAM, order=4), 30),
    "dense-K3": (lambda: _dense_jet(3, 3), 30),
    "dense-K6": (lambda: _dense_jet(6, 6), 30),
    "dense-K10": (lambda: _dense_jet(10, 10), 30),
    "conjugated": (_conjugated_quadratic, 12),
}


@pytest.mark.parametrize("case", PSI_CASES)
def test_psi_matches_recomposition_oracle(case):
    # the table of powers against recomposing the whole jet at every degree;
    # the summation order differs, so agreement is to rounding, not bitwise
    make, D = PSI_CASES[case]
    F = make()
    got = solve_psi(F, LAM, D, precision="double").psi.coeffs
    N_pair = _nonlinear_part(_normalize_jet(F, LAM)[0], LAM)
    want = series_oracle.solve_recursion(N_pair, compute_small_divisors(LAM, D), D)
    assert _rel_err(got, want.coeffs) < 1e-13


def _mp_quadratic_psi(mp, lam, D):
    """psi of F = (lam z + w^2, w + z^2) by truncated products in mpmath."""
    L = mp.mpc(lam.real, lam.imag)
    u = [mp.mpc(0)] * (D + 1)
    v = [mp.mpc(0)] * (D + 1)
    u[1] = mp.mpc(1)
    for n in range(2, D + 1):
        u[n] = mp.fsum(v[k] * v[n - k] for k in range(1, n)) / (L**n - L)
        v[n] = mp.fsum(u[k] * u[n - k] for k in range(1, n)) / (L**n - 1)
    return np.array([[complex(a), complex(b)] for a, b in zip(u, v)])


def test_dd_psi_matches_mpmath_near_resonance():
    # |lambda^3 - 1| ~ 6e-10: double-double divisors keep every coefficient
    # within 6.5e-16 normwise (measured), while double loses about 8 digits
    mp = pytest.importorskip("mpmath")
    lam = cmath.exp(2j * math.pi * (1.0 / 3.0 + 1e-10))
    D = 12
    with mp.workdps(50):
        want = _mp_quadratic_psi(mp, lam, D)
    F = quadratic_test_family(lam)
    dd = solve_psi(F, lam, D, precision="dd")
    assert dd.precision_mode == "double-double"
    assert _rel_err(dd.psi.coeffs, want) < 1e-15
    double = solve_psi(F, lam, D, precision="double")
    assert _rel_err(double.psi.coeffs, want) > 1e-9


THETA_CASES = {
    "third+1e-10": 1 / 3 + 1e-10,
    "third+1e-12": 1 / 3 + 1e-12,
    "two-fifths+1e-11": 2 / 5 + 1e-11,
    "golden": GOLD,
    "silver": SILVER.value(),
    "third+1e-7": 1 / 3 + 1e-7,
}


@pytest.mark.parametrize("case", THETA_CASES)
def test_compensated_divisors_match_mpmath(case):
    # each part of lambda^n - lambda and lambda^n - 1 within an ulp of the
    # exact value for the binary64 lambda, rounded to binary64
    mp = pytest.importorskip("mpmath")
    lam = cmath.exp(2j * math.pi * THETA_CASES[case])
    D = 400
    eps1, eps2 = ddc.small_divisors(lam, D)
    with mp.workdps(60):
        L = mp.mpc(lam.real, lam.imag)
        power = L
        for n in range(2, D + 1):
            power *= L
            for got, want in ((eps1[n], power - L), (eps2[n], power - 1)):
                for g, w in ((got.real, float(want.real)), (got.imag, float(want.imag))):
                    assert abs(g - w) <= math.ulp(w), (n, g, w)


@pytest.mark.parametrize("theta, D", [
    (1 / 3 + 1e-10, 12), (1 / 3 + 1e-10, 30), (1 / 3 + 1e-12, 30),
    (2 / 5 + 1e-11, 30), (GOLD, 40), (1 / 3 + 1e-12, 40),
])
def test_dd_psi_within_16_eps_of_mpmath(theta, D):
    # a psi recursion in binary64 with divisors rounded once: the error is
    # normwise per degree, measured 6.2e-16 to 3.05e-15 on these cases
    mp = pytest.importorskip("mpmath")
    lam = cmath.exp(2j * math.pi * theta)
    with mp.workdps(80):
        want = _mp_quadratic_psi(mp, lam, D)
    got = solve_psi(quadratic_test_family(lam), lam, D, precision="dd")
    assert _rel_err(got.psi.coeffs, want) <= 16 * np.finfo(float).eps


# -- majorants ------------------------------------------------------------------


def test_sigma2_by_composition_enumeration():
    # independent enumeration: only nu = 2, (1,1) contributes at n = 2 with
    # weight nu + 1 = 3 and sigma_1^2 = 1, so sigma_2 = 3 M / eps_2
    M = 0.7
    div = compute_small_divisors(LAM, 4)
    sigma = majorant_sigma(M, div, 4)
    total = 0.0
    for comp in series_oracle.compositions(2):
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
        for comp in series_oracle.compositions(n):
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
        _majorant_recursion(1.0, np.ones(401), 400, "eta")
    with pytest.raises(MajorantOverflowError, match="242"):
        solve_psi(quadratic_test_family(LAM), LAM, 250)


def test_delta_overflow_names_the_degree():
    # near 1/3 the divisors at multiples of 3 are about 5e-10, and delta
    # leaves the double range at k = 56; a small M keeps sigma finite there,
    # so delta's overflow is the one that raises, with no numpy warning
    theta = 1 / 3 + 1e-10
    c = max_c(theta, 1.0, 80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MajorantOverflowError, match=r"delta_n .* n = 56"):
            majorant_split(1e-6, theta, c, 1.0, 80)
    eps = compute_small_divisors(cmath.exp(2j * math.pi * theta), 80).eps_min
    with np.errstate(over="ignore"):
        delta = _delta_sequence(eps, 80)
    assert np.isfinite(delta[55]) and not np.isfinite(delta[56])


def _quadratic_scaled(lam, scale=1e-6):
    # F = (lambda z + scale w^2, w + scale z^2), so M = scale
    P, Q = quadratic_test_family(lam)
    P.coeffs[tri_index(0, 2)] = Q.coeffs[tri_index(2, 0)] = scale
    return P, Q


def test_delta_overflow_raises_in_solve_psi_and_the_sweep():
    # at 1/3 + 1e-10 with M = 1e-6, sigma stays finite to D = 60 but delta
    # leaves the double range at n = 56: a typed error, not rho = NaN
    theta = 1 / 3 + 1e-10
    lam = cmath.exp(2j * math.pi * theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MajorantOverflowError, match=r"delta_n .* n = 56"):
            solve_psi(_quadratic_scaled(lam), lam, 60)
        sw = parameter_sweep(_quadratic_scaled, theta, [0.99, 1.0, 1.01], 60)
    assert list(sw.failures) == [1.0] and "delta_n" in sw.failures[1.0]
    assert "n = 56" in sw.failures[1.0] and sw.smoothness_ok is None
    res = solve_psi(_quadratic_scaled(lam), lam, 55)
    assert all(map(math.isfinite, (res.a_fitted, res.b_radius, res.rho_estimate)))


@pytest.mark.parametrize("family", [quadratic_test_family, linear_family])
def test_solve_psi_and_the_split_share_a_and_b(family):
    # one helper forms delta's fit a and eta's radius b for both; M = 0
    # gives b = 0 (eta(w) = w is entire) and rho = inf
    res = solve_psi(family(LAM), LAM, 40)
    split = majorant_split(res.M, GOLDEN, max_c(GOLDEN, 1.0, 64), 1.0, 40)
    assert res.a_fitted.hex() == split.a.hex()
    assert res.b_radius.hex() == split.b.hex()
    if res.M == 0:
        assert res.b_radius == 0.0 and res.rho_estimate == math.inf
    else:
        assert res.rho_estimate == 1.0 / (split.a * split.b * res.M)


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
        bf = series_oracle.delta_bruteforce(tuple(eps), k)
        assert abs(dp[k] - bf) <= 1e-12 * bf, k
    # hand value at k = 3 for golden: eps_2 > 1 makes the all-ones
    # composition win over the binary bracketing
    assert abs(dp[3] - max(1.0, dp[2]) / eps[3]) < 1e-14


@pytest.mark.parametrize("theta", [GOLD, SILVER.value(), 1 / 3 + 1e-10])
@pytest.mark.parametrize("r", [0.99, 1.0, 1.01])
def test_delta_program_equals_the_pairwise_loop(theta, r):
    # near 1/3 delta overflows to inf (from k = 56 at r = 1) on both sides
    lam = r * cmath.exp(2j * math.pi * theta)
    for D in (2, 12, 40, 80, 400):
        eps = compute_small_divisors(lam, D).eps_min
        with np.errstate(over="ignore"):
            got = _delta_sequence(eps, D)
            want = series_oracle.delta_pairwise_loop(eps, D)
        assert got.tobytes() == want.tobytes(), D
        assert _fit_growth(got).hex() == series_oracle.fit_growth_loop(got).hex(), D


def test_eta_delta_split():
    c = max_c(GOLDEN, 1.0, 100)
    split = majorant_split(1.0, GOLDEN, c, 1.0, 40)
    assert split.split_ok
    assert abs(split.eta[2] - 3.0) < 1e-15            # eta_2 = 3M with M = 1
    div = compute_small_divisors(LAM, 4)
    assert abs(split.delta[2] - 1.0 / div.eps_min[2]) < 1e-15
    assert abs(split.sigma[2] - split.eta[2] * split.delta[2]) < 1e-14


def test_split_check_does_not_overflow():
    # at D = 241 the product eta_n delta_n overflows from n = 218 while
    # sigma, eta and delta stay finite; the check must still give a verdict
    c = max_c(GOLDEN, 1.0, 241)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = majorant_split(1.0, GOLDEN, c, 1.0, 241)
        assert majorant_split(0.0, GOLDEN, c, 1.0, 20).split_ok  # sigma = eta = 0
    assert split.split_ok
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(split.eta * split.delta))
    logs = np.log(split.eta[2:]) + np.log(split.delta[2:])
    assert np.all(np.log(split.sigma[2:]) <= logs + 1e-9)


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

    def eta(x):  # eta(x) for real 0 <= x <= w_star, by bisection below the fold
        return _bisect(lambda e: x - _eta_implicit(e, er.M), 0.0, er.eta_star)

    assert eta(0.0) < 1e-12                 # eta(0) = 0
    x = 1e-4
    assert abs(eta(x) / x - 1.0) < 1e-2     # eta(w) = w + O(w^2)


def test_eta_radius_fold_and_bound():
    # bisection fold against the closed form (1 - eta*)^3 = 2M/(1 + 2M),
    # and eta_n <= C b^n along the recursion with no violations to n = 200
    er = eta_radius(1.0)
    assert abs(er.eta_star - (1 - (2.0 / 3.0) ** (1.0 / 3.0))) < 1e-12
    assert er.b == 1.0 / er.w_star
    eta = _majorant_recursion(1.0, np.ones(201), 200, "eta")
    C = max(eta[n] / er.b**n for n in range(1, 51))  # C fitted on the first 50 terms
    assert [n for n in range(1, 201) if eta[n] > C * er.b**n * (1 + 1e-9)] == []


def test_eta_radius_requires_positive_M():
    with pytest.raises(ValueError):
        eta_radius(0.0)


# -- exponential bound and sweep ---------------------------------------------------


def test_bound_check_linear_trivial():
    res = solve_psi(linear_family(LAM), LAM, 10)
    assert not res.psi_norms()[2:].any()  # psi = (w, 0): no growth to bound


def test_bound_check_quadratic_golden():
    res = solve_psi(quadratic_test_family(LAM), LAM, 40)
    c = max_c(GOLDEN, 1.0, 100)
    split = majorant_split(res.M, GOLDEN, c, 1.0, 40)
    # the fitted growth rate of ||psi_n|| against the majorant rate a b M
    rate, bound = _fit_growth(res.psi_norms()), split.a * split.b * split.M
    assert rate < bound


def test_sweep_rates_uniform_in_r():
    rows = parameter_sweep(quadratic_test_family, GOLDEN, [0.99, 1.0, 1.01], 24)
    rates = [_fit_growth(res.psi_norms()) for res in rows.results.values()]
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


def _fails_at_unit_modulus(lam):
    if abs(abs(lam) - 1.0) < 1e-12:
        raise ArithmeticError("no jet at |lambda| = 1")
    return quadratic_test_family(lam)


@pytest.mark.parametrize("family, r_values", [
    (quadratic_test_family, [1.0]),
    (_fails_at_unit_modulus, [0.995, 1.0, 1.005]),
])
def test_sweep_smoothness_untested_is_none(family, r_values):
    # one r value, or a failed middle r: the step-halving test does not run
    sw = parameter_sweep(family, GOLDEN, r_values, 10)
    assert sw.smoothness_ok is None and sw.smoothness_ratios == {}
    assert list(sw.failures) == ([1.0] if len(r_values) == 3 else [])


@pytest.mark.parametrize("r_values", [[-1.0, 1.0], [0.0, 1.0], [1.0, math.inf], [math.nan]])
def test_sweep_rejects_r_that_is_not_finite_and_positive(r_values):
    # at r < 0, lambda = r e^{2 pi i theta} has rotation number theta + 1/2
    with pytest.raises(ValueError, match="r must be finite and > 0, got "):
        parameter_sweep(quadratic_test_family, GOLDEN, r_values, 10)


def test_sweep_coefficient_continuity():
    sw = parameter_sweep(quadratic_test_family, GOLDEN, [0.995, 1.0, 1.005], 20)
    lo, mid = sw.results[0.995], sw.results[1.0]
    dpsi = sw.d_psi_dr[1.0]
    for n in range(2, 11):
        step = np.max(np.abs(mid.psi.coeffs[n] - lo.psi.coeffs[n]))
        L = np.max(np.abs(dpsi[n]))
        assert step <= (1.5 * L + 1e-8) * 0.005, n


def _full_sweep(monkeypatch, *args):
    """parameter_sweep with a full solve_psi at each step-halving r."""
    import fatou.linearization as lin

    with monkeypatch.context() as mp:
        mp.setattr(lin, "_solve_psi_only", lambda F, lam, D: solve_psi(F, lam, D).psi)
        return parameter_sweep(*args)


@pytest.mark.parametrize("family, theta, r_values, D", [
    (quadratic_test_family, GOLDEN, [0.995, 1.0, 1.005], 40),
    (quadratic_test_family, GOLDEN, [0.99, 1.0, 1.01], 24),
    (quadratic_test_family, SILVER, [0.99, 0.995, 1.0, 1.005, 1.01], 20),
    (quadratic_test_family, 1 / 3 + 1e-10, [0.999, 1.0, 1.001], 12),  # double-double
    (quadratic_test_family, 1 / 3 + 1e-10, [0.99, 0.998, 1.006], 12),  # dd at r = 0.998 + h/2
    (linear_family, GOLDEN, [0.995, 1.0, 1.005], 10),
])
def test_sweep_step_halving_solves_psi_only(monkeypatch, family, theta, r_values, D):
    # one full solve per r value; the three step-halving r take psi only,
    # and the sweep keeps the bits of one that runs full solves there
    import fatou.linearization as lin

    calls = []
    full = lin.solve_psi

    def counting(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(lin, "solve_psi", counting)
    got = parameter_sweep(family, theta, r_values, D)
    assert len(calls) == len(r_values)
    monkeypatch.setattr(lin, "solve_psi", full)
    want = _full_sweep(monkeypatch, family, theta, r_values, D)
    assert got.smoothness_ok is want.smoothness_ok is not None
    assert {n: v.hex() for n, v in got.smoothness_ratios.items()} == \
        {n: v.hex() for n, v in want.smoothness_ratios.items()}
    assert got.d_psi_dr.keys() == want.d_psi_dr.keys()
    for r, d in got.d_psi_dr.items():
        assert d.tobytes() == want.d_psi_dr[r].tobytes(), r
    for r, res in got.results.items():
        assert res.residual.hex() == want.results[r].residual.hex(), r
        assert res.rho_estimate.hex() == want.results[r].rho_estimate.hex(), r


@pytest.mark.parametrize("theta, lam_mod, D", [
    (GOLD, 1.0, 40), (GOLD, 0.995, 242), (GOLD, 1.005, 80), (1 / 3 + 1e-10, 1.0, 12),
])
def test_psi_only_solve_has_the_bits_of_solve_psi(theta, lam_mod, D):
    lam = lam_mod * cmath.exp(2j * math.pi * theta)
    F = quadratic_test_family(lam)
    got = _solve_psi_only(F, lam, D)
    want = solve_psi(F, lam, D).psi
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_sweep_past_the_sigma_overflow_of_a_step_halving_r():
    # h = 0.004 puts a step-halving solve at r = 1.0, where sigma overflows
    # at n = 242; the sweep's own r values keep sigma finite
    with pytest.raises(MajorantOverflowError):
        solve_psi(quadratic_test_family(LAM), LAM, 242)
    sw = parameter_sweep(quadratic_test_family, GOLDEN, [0.99, 0.998, 1.006], 242)
    assert not sw.failures and sw.smoothness_ok is not None and sw.smoothness_ratios


def test_sweep_requires_sorted_r():
    with pytest.raises(ValueError):
        parameter_sweep(quadratic_test_family, GOLDEN, [1.005, 1.0], 8)


@pytest.mark.parametrize("r_values", [[1.0, 1.0], [0.99, 1.0, 1.0], [1.0, math.nan]])
def test_sweep_requires_strictly_increasing_r(r_values):
    # a zero span made the step-halving test divide by h = 0
    with pytest.raises(ValueError, match="strictly increasing"):
        parameter_sweep(quadratic_test_family, GOLDEN, r_values, 8)


@pytest.mark.parametrize("m, order, at", [
    (rank0_map(1), 3, (0.01 + 0.02j, 0.3)),
    (rank0_map(2), 9, (0.0, 0.5 - 0.25j)),
    (rank1_map(), 3, (0.01 + 0.02j, 0.3)),
    (rank1_map(), 7, None),
])
def test_jet_max_norm_has_the_bits_of_the_scalar_abs_max(m, order, at):
    # np.abs on a complex array differs from abs() by an ulp on these jets
    jet = m.jet(order, at)
    want = max(abs(c) for s in jet for c in s.coeffs[3:])
    assert _jet_max_norm(jet).hex() == float(want).hex()
    assert _jet_max_norm(linear_family(LAM, order=1)) == 0.0


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
