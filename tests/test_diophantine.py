import math
from fractions import Fraction

import pytest

import series_oracle
from fatou import diophantine as dio
from fatou.diophantine import (
    dist_k_theta,
    GOLDEN,
    SILVER,
    QuadraticIrrational,
    check_sector_lemma,
    check_siegel,
    continued_fraction,
    frac_k_theta,
    max_c,
    max_c_detail,
    small_divisor_modulus,
)


def fibonacci_upto(n):
    fibs = [1, 2]
    while fibs[-1] < n:
        fibs.append(fibs[-1] + fibs[-2])
    return set(fibs) | {1}


# -- continued fractions ---------------------------------------------------


def test_golden_all_ones():
    cf = continued_fraction(GOLDEN, 40)
    assert cf.partial_quotients == [1] * 40
    assert not cf.rational


def test_one_third_terminates():
    cf = continued_fraction(Fraction(1, 3), 10)
    assert cf.partial_quotients == [3]
    assert cf.rational


def test_silver_all_twos():
    cf = continued_fraction(SILVER, 25)
    assert cf.partial_quotients == [2] * 25


def test_float_golden_quotients_until_horizon():
    cf = continued_fraction((math.sqrt(5) - 1) / 2, 30)
    assert cf.partial_quotients[:30] == [1] * 30 or cf.rational


def test_convergents_alternate_and_approximate():
    cf = continued_fraction(GOLDEN, 25)
    th = GOLDEN.value()
    signs = []
    for i in range(len(cf.convergents) - 1):
        p, q = cf.convergents[i]
        p2, q2 = cf.convergents[i + 1]
        assert math.gcd(p, q) == 1
        assert abs(th - p / q) < 1.0 / (q * q2)
        signs.append(math.copysign(1, th - p / q))
    assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 4, 2)  # square d
    with pytest.raises(ValueError):
        continued_fraction(GOLDEN, 0)
    with pytest.raises(ValueError):
        continued_fraction(Fraction(5, 3), 5)  # outside (0,1)


# -- reduction and the sine identity ----------------------------------------


def test_exact_reduction_identity():
    # 2|sin(pi k theta)| must match |e^{2 pi i k theta} - 1| to 1e-15 relative
    # after reduction, including large k; referee is 50-digit arithmetic on
    # the exactly reduced argument
    import mpmath

    mp = mpmath.mp
    old = mp.dps
    mp.dps = 50
    try:
        th = GOLDEN
        sqrt5 = mpmath.sqrt(5)
        for k in [1, 2, 3, 5, 1000, 10**5, 10**6, 10**6 + 7]:
            exact_frac = mpmath.frac(k * (sqrt5 - 1) / 2)
            ref = abs(mpmath.expjpi(2 * exact_frac) - 1)
            v = small_divisor_modulus(th, k)
            assert abs(v - float(ref)) <= 1e-15 * float(ref), k
    finally:
        mp.dps = old


def test_reduction_matches_fraction_arithmetic():
    th = 0.7548776662466927  # arbitrary binary64 value
    fr = Fraction(th)
    for k in (1, 17, 12345, 10**7):
        exact = (k * fr.numerator % fr.denominator) / fr.denominator
        assert frac_k_theta(th, k) == exact


def test_eps2_formula():
    # second small divisor at golden rotation: |e^{4 pi i g} - 1| = 2|sin(2 pi g)|
    g = GOLDEN.value()
    assert abs(small_divisor_modulus(GOLDEN, 2) - 2 * abs(math.sin(2 * math.pi * g))) < 1e-15


# -- certificates ------------------------------------------------------------


def test_certificate_with_max_c_is_clean():
    c = max_c(GOLDEN, 1.0, 10**5)
    cert = check_siegel(GOLDEN, c, 1.0, 10**5)
    assert cert.ok and cert.verified_up_to == 10**5


def test_certificate_too_large_c_has_violations():
    # the tightest constant at N=1 for golden is ~1.8649 (attained at k=1),
    # so c = 2 must violate somewhere
    cert = check_siegel(GOLDEN, 2.0, 1.0, 10**5)
    assert not cert.ok
    assert cert.violations[0][0] == 1


def test_huge_N_trivially_slack():
    cert = check_siegel(0.3183098861837907, 1.0, 50.0, 1000)
    assert cert.ok


def test_max_c_monotonicity():
    # nonincreasing in k_max, nondecreasing in N; strict N-growth appears as
    # soon as the minimizing k exceeds 1 (at golden the minimum sits at k=1,
    # where k^N is N-independent)
    assert max_c(GOLDEN, 1.0, 10**4) <= max_c(GOLDEN, 1.0, 10**2)
    assert max_c(GOLDEN, 2.0, 10**4) >= max_c(GOLDEN, 1.0, 10**4)
    near_half = 0.5 - GOLDEN.value() / 50  # ||2 theta|| small: k = 2 minimizes
    assert max_c_detail(near_half, 1.0, 100)[2] == 2
    assert max_c(near_half, 2.0, 100) > max_c(near_half, 1.0, 100)


def test_running_minima_are_fibonacci():
    _, _, argmin, running = max_c_detail(GOLDEN, 1.0, 10**5)
    fibs = fibonacci_upto(10**5)
    assert all(k in fibs for k, _ in running)
    assert argmin in fibs
    # the approximation-quality minima ||k theta|| themselves walk the
    # Fibonacci denominators (cross-check against the convergents)
    cf = continued_fraction(GOLDEN, 24)
    denoms = [q for _, q in cf.convergents if q <= 10**4]
    best = 2.0
    walk = []
    for k in range(1, 10**4 + 1):
        d = dist_k_theta(GOLDEN, k)
        if d < best:
            best = d
            walk.append(k)
    assert walk == denoms


# -- sector lemma -------------------------------------------------------------


def test_sector_r_equal_one_degenerates():
    rep = check_sector_lemma(GOLDEN, [1.0], 1000)
    res = rep.results[1.0]
    assert not res["sector_violations"] and not res["complement_violations"]
    assert not res["final_violations"] and not res["drift"]
    # r = 1: the final conclusion coincides with the plain certificate at c'
    cert = check_siegel(GOLDEN, rep.c_prime, 1.0, 1000)
    assert cert.ok


def test_sector_near_one_clean():
    rep = check_sector_lemma(GOLDEN, [0.999, 1.001], 1000)
    assert rep.ok
    for res in rep.results.values():
        assert not res["final_violations"]


def test_sector_drift_reported():
    rep = check_sector_lemma(GOLDEN, [0.9 + 1e-12], 10**4)
    res = rep.results[0.9 + 1e-12]
    assert len(res["drift"]) > 0
    # |r^k e^{i phi} - 1| -> 1 under decay, so the consumed conclusion holds
    assert not res["final_violations"]
    # the chained middle inequality genuinely fails under drift: reported only
    assert len(res["chained_violations"]) > 0


def test_sector_validates_r_window():
    with pytest.raises(ValueError):
        check_sector_lemma(GOLDEN, [0.5], 100)


# -- the convergent scan against the per-k loops ----------------------------------

ORACLE_THETAS = {
    "golden": GOLDEN,
    "silver": SILVER,
    "sqrt7": QuadraticIrrational(-2, 7, 3),
    "golden_float": (math.sqrt(5) - 1) / 2,
    "inv_pi": 1 / math.pi,
    "355/1131": Fraction(355, 1131),
    "near_half": 0.5 - GOLDEN.value() / 50,
}


@pytest.fixture(scope="module")
def memo_modulus():
    """small_divisor_modulus for the ORACLE_THETAS objects, read from a table
    filled once: the library and the oracle see the same values, and the
    per-k loops of the matrix cost a list lookup per k."""
    plain = dio.small_divisor_modulus
    tables = {id(th): [None] + [plain(th, k) for k in range(1, 10**5 + 1)]
              for th in ORACLE_THETAS.values()}

    def memo(theta, k):
        table = tables.get(id(theta))
        return plain(theta, k) if table is None or k >= len(table) else table[k]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dio, "small_divisor_modulus", memo)
        mp.setattr(series_oracle, "small_divisor_modulus", memo)
        yield


@pytest.mark.parametrize("name", ORACLE_THETAS)
def test_scan_equals_per_k_oracle(name, memo_modulus):
    theta = ORACLE_THETAS[name]
    for N in (0, 0.5, 1, 2):
        for k_max in (1, 2, 100, 10**5):
            want = series_oracle.max_c_detail(theta, N, k_max)
            assert max_c_detail(theta, N, k_max) == want, (N, k_max)
            for c in (want[0], want[1], 2.0):
                if c <= 0:  # 355/1131 reaches ||k theta|| = 0 at k = 1131
                    with pytest.raises(ValueError):
                        check_siegel(theta, c, N, k_max)
                    continue
                cert = check_siegel(theta, c, N, k_max)
                ok, violations = series_oracle.check_siegel(theta, c, N, k_max)
                assert (cert.ok, cert.violations) == (ok, violations), (N, k_max, c)


def test_scan_falls_back_where_theorem_does_not_cover(memo_modulus):
    # N < 0 makes k^N decreasing; theta outside (0, 1) has no expansion here
    for theta, N in ((GOLDEN, -0.5), (1.25, 1.0), (Fraction(7, 3), 0.5)):
        assert max_c_detail(theta, N, 500) == series_oracle.max_c_detail(theta, N, 500)
    # a float whose expansion stops at the 10^12 quotient cap
    capped = 1 / 3 + 1e-14
    assert continued_fraction(capped, 10).rational
    assert dio._scan_denominators(capped, 10**4) is None
    want = series_oracle.max_c_detail(capped, 1.0, 10**4)
    assert max_c_detail(capped, 1.0, 10**4) == want


def test_certificate_to_1e12_scans_convergents_only(monkeypatch):
    calls = []
    plain = dio.small_divisor_modulus

    def counting(theta, k):
        calls.append(k)
        return plain(theta, k)

    monkeypatch.setattr(dio, "small_divisor_modulus", counting)
    c_open, best, argmin, running = max_c_detail(GOLDEN, 1, 10**12)
    assert len(calls) <= 200
    cert = check_siegel(GOLDEN, c_open, 1, 10**12)
    assert cert.ok and len(calls) <= 400
    # the minimum against 30-digit arithmetic over the Fibonacci numbers
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        theta = (mpmath.sqrt(5) - 1) / 2
        fibs = [k for k in fibonacci_upto(10**12) if k <= 10**12]
        vals = {k: 2 * abs(mpmath.sin(mpmath.pi * k * theta)) * k for k in fibs}
        k_mp = min(vals, key=vals.get)
        assert argmin == k_mp
        assert abs(best - float(vals[k_mp])) <= 1e-15 * best
