import math
from fractions import Fraction

import numpy as np
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


def test_sector_root_of_unity_is_not_ok():
    # theta = 3/7: lam^7 = 1 and max_c is 0, so c' = 0 bounds nothing away
    # from 0, though no k violates a bound
    rep = check_sector_lemma(Fraction(3, 7), [1.0], 100)
    assert rep.c_prime == 0.0 and not any(rep.results[1.0][key] for key in (
        "sector_violations", "complement_violations", "final_violations"))
    assert not rep.ok


def test_sector_drift_reported():
    rep = check_sector_lemma(GOLDEN, [0.9 + 1e-12], 10**4)
    res = rep.results[0.9 + 1e-12]
    assert res["drift"] > 0
    # |r^k e^{i phi} - 1| -> 1 under decay, so the consumed conclusion holds
    assert not res["final_violations"]
    # the chained middle inequality genuinely fails under drift: reported only
    assert res["chained_violations"] > 0


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
def modulus_tables():
    plain = dio.small_divisor_modulus
    return {id(th): [None] + [plain(th, k) for k in range(1, 10**5 + 1)]
            for th in ORACLE_THETAS.values()}


@pytest.fixture
def memo_modulus(modulus_tables, monkeypatch):
    """small_divisor_modulus for the ORACLE_THETAS objects, read from a table
    filled once, so the oracle's per-k loops and the library's convergent
    scan cost a list lookup per k.  The library's loops over every k take
    their moduli from _dist_blocks, so it is those values that the matrix
    compares against the table.  The patch lasts one test; the tables last
    the module."""
    plain = dio.small_divisor_modulus

    def memo(theta, k):
        table = modulus_tables.get(id(theta))
        return plain(theta, k) if table is None or k >= len(table) else table[k]

    monkeypatch.setattr(dio, "small_divisor_modulus", memo)
    monkeypatch.setattr(series_oracle, "small_divisor_modulus", memo)


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
    # N < 0 makes k^N decreasing (theta outside (0, 1) scans theta mod 1 and
    # must still give the oracle's values)
    for theta, N in ((GOLDEN, -0.5), (1.25, 1.0), (Fraction(7, 3), 0.5)):
        assert max_c_detail(theta, N, 500) == series_oracle.max_c_detail(theta, N, 500)
    # a float whose expansion stops at the 10^12 quotient cap
    capped = 1 / 3 + 1e-14
    assert continued_fraction(capped, 10).rational
    assert dio._scan_denominators(capped, 10**4) is None
    want = series_oracle.max_c_detail(capped, 1.0, 10**4)
    assert max_c_detail(capped, 1.0, 10**4) == want


# theta outside (0, 1) and theta mod 1, the latter exact
MOD_1_THETAS = {
    "(1+sqrt5)/2": (QuadraticIrrational(1, 5, 2), GOLDEN),
    "(1+sqrt5)/-2": (QuadraticIrrational(1, 5, -2), QuadraticIrrational(-3, 5, -2)),
    "(-3+sqrt5)/2": (QuadraticIrrational(-3, 5, 2), GOLDEN),
    "1.618...": (1.6180339887498949, 1.6180339887498949 - 1),
    "-0.381...": (-0.381966011250105, Fraction(-0.381966011250105) % 1),
    "5/3": (Fraction(5, 3), Fraction(2, 3)),
    "3.0": (3.0, 0.0),
    "-2": (Fraction(-2), Fraction(0)),
}


@pytest.mark.parametrize("name", MOD_1_THETAS)
def test_theta_outside_0_1_scans_the_denominators_of_theta_mod_1(name, monkeypatch):
    theta, mod_1 = MOD_1_THETAS[name]
    assert dio._scan_denominators(theta, 10**5) == dio._scan_denominators(mod_1, 10**5)
    if name in ("3.0", "-2"):  # ||k theta|| = 0 for every k
        assert dio._scan_denominators(theta, 10**5) == [1]
    # the scan alone, no loop over every k, gives the oracle's max_c_detail
    real_blocks = dio._dist_blocks
    monkeypatch.setattr(dio, "_dist_blocks", None)
    detail = max_c_detail(theta, 1, 10**4)
    assert detail == max_c_detail(mod_1, 1, 10**4)
    monkeypatch.setattr(dio, "_dist_blocks", real_blocks)
    assert detail == series_oracle.max_c_detail(theta, 1, 10**4)
    for c in (detail[0], 2 * detail[0], 0.5):
        if c > 0:
            cert = check_siegel(theta, c, 1, 10**4)
            assert (cert.ok, cert.violations) == series_oracle.check_siegel(theta, c, 1, 10**4)
            assert cert.violations == check_siegel(mod_1, c, 1, 10**4).violations
    rep = check_sector_lemma(theta, [0.999, 1.001], 10**4)
    want = check_sector_lemma(mod_1, [0.999, 1.001], 10**4)
    assert (rep.c_prime, rep.ok, rep.results) == (want.c_prime, want.ok, want.results)


def test_quadratic_irrational_above_1_certifies_to_1e12_as_golden_does(monkeypatch):
    theta = QuadraticIrrational(1, 5, 2)  # golden + 1
    assert dio._scan_denominators(theta, 10**12) == dio._scan_denominators(GOLDEN, 10**12)
    monkeypatch.setattr(dio, "_dist_blocks", None)  # no loop over every k
    assert max_c_detail(theta, 1, 10**12) == max_c_detail(GOLDEN, 1, 10**12)


@pytest.mark.parametrize("p, d, q", [(-2, 2, -1), (2, 2, -1), (1, 7, -3), (-4, 8, -2),
                                     (5, 3, -7), (-1, 5, 2), (7, 13, 3)])
def test_quadratic_quotients_equal_those_of_an_80_digit_rational(p, d, q):
    # at q < 0 the floor of (P + sqrt D) / Q is not (P + isqrt D) // Q when
    # that quotient is exact: (-2 + sqrt 2) / -1 = [0; 1, 1, 2, 2, ...]
    scale = 10**80
    x = Fraction(p * scale + math.isqrt(d * scale * scale), q * scale) % 1
    want = []
    for _ in range(30):
        a = int(1 / x)
        want.append(a)
        x = 1 / x - a
    theta = QuadraticIrrational(p, d, q)
    cf = dio._continued_fraction_mod1(theta, 30)
    assert cf.partial_quotients == want
    assert all(q_n > 0 for _, q_n in cf.convergents)
    if 0 < theta.value() < 1:
        assert continued_fraction(theta, 30).partial_quotients == want
    assert max_c_detail(theta, 1, 3000) == series_oracle.max_c_detail(theta, 1, 3000)


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


# -- the shared ||k theta|| blocks and the array sector check ---------------------

BLOCK_THETAS = {
    **ORACLE_THETAS,
    "(1+sqrt7)/-3": QuadraticIrrational(1, 7, -3),
    "binary64": 0.7548776662466927,
    "3/7": Fraction(3, 7),
    "-2/9": Fraction(-2, 9),
    "zero": 0.0,
    "tiny": 1e-300,
    "2^-1000": 2.0**-1000,
    "5e-324": 5e-324,
    "5/4": 1.25,
    "0.1": 0.1,
}
# compared to k = 2 10^5, the others to k = 10^4
LONG_BLOCK_THETAS = ("golden", "silver", "(1+sqrt7)/-3", "inv_pi", "binary64", "355/1131")


def hexes(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("name", BLOCK_THETAS)
def test_dist_blocks_equal_dist_k_theta(name, monkeypatch):
    theta = BLOCK_THETAS[name]
    k_max = 2 * 10**5 if name in LONG_BLOCK_THETAS else 10**4
    want = hexes(series_oracle.dist_recurrence(theta, k_max))
    assert want[:10**4] == hexes(dist_k_theta(theta, k) for k in range(1, 10**4 + 1))
    # one block, then blocks of 97
    for block in (dio._K_BLOCK, 97):
        monkeypatch.setattr(dio, "_K_BLOCK", block)
        ks, dist = zip(*dio._dist_blocks(theta, k_max))
        assert [k for r in ks for k in r] == list(range(1, k_max + 1))
        assert all(len(r) <= block for r in ks)
        got = np.concatenate(dist)
        assert got.dtype == np.float64
        assert hexes(got.tolist()) == want, block


FALLBACKS = {
    "3/7": lambda k: k % 7 == 0,    # rational zeros
    "-2/9": lambda k: k % 9 == 0,
    "tiny": lambda k: False,         # a binary64 below _DD_TINY: fl(k t)
    "5e-324": lambda k: False,
    "0.1": lambda k: False,          # dyadic: ties and zeros round exactly
    "zero": lambda k: False,
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_dist_blocks_fall_back_where_the_rounding_is_not_certified(name, monkeypatch):
    theta = BLOCK_THETAS[name]
    taken = []
    plain = dio._exact_dists

    def counting(a, den, ks):
        taken.extend(ks)
        return plain(a, den, ks)

    monkeypatch.setattr(dio, "_exact_dists", counting)
    got = np.concatenate([dist for _, dist in dio._dist_blocks(theta, 2 * 10**4)])
    assert hexes(got.tolist()) == hexes(series_oracle.dist_recurrence(theta, 2 * 10**4))
    assert taken == [k for k in range(1, 2 * 10**4 + 1) if FALLBACKS[name](k)]
    if name == "0.1":  # 1/2 - 2^-55 at k = 5 is a tie, rounded to even
        assert got[4] == 0.5 and 5 * Fraction(0.1) - Fraction(1, 2) == Fraction(1, 2**55)


@pytest.mark.parametrize("k0", [10**9, 2**52 - 4096, 2**53 - 50])
@pytest.mark.parametrize("name", ["golden", "silver", "inv_pi", "binary64", "3/7", "0.1", "tiny"])
def test_dist_block_far_out_equals_dist_k_theta(name, k0):
    # past 2^53 a k is no float, and every k takes the exact reduction
    theta = BLOCK_THETAS[name]
    ks = range(k0, k0 + (100 if k0 > 2**52 else dio._K_BLOCK))
    got = dio._block_dist(theta)(ks)
    assert hexes(got.tolist()) == hexes(dist_k_theta(theta, k) for k in ks)


SECTOR_THETAS = {
    "golden": GOLDEN,
    "silver": SILVER,
    "(1+sqrt7)/-3": QuadraticIrrational(1, 7, -3),
    "3/7": Fraction(3, 7),
    "binary64": 0.7548776662466927,
}


def kind_ks(theta, r_values, k_max, N, c_prime):
    """Per r and kind, the list of k of that kind from the library's block pass."""
    got = {r: {kind: [] for kind in dio._SECTOR_KINDS} for r in map(float, r_values)}
    for ks, r, masks in dio._sector_masks(theta, got, k_max, N, c_prime):
        for kind, mask in masks.items():
            got[r][kind] += (ks.start + np.flatnonzero(mask)).tolist()
    return got


def oracle_ks(results):
    """Per r and kind, the k of the oracle's drift entries and violation tuples."""
    return {r: {kind: [e if isinstance(e, int) else e[0] for e in entries]
                for kind, entries in res.items()} for r, res in results.items()}


def counted(ks_by_r):
    """The report's results for these k: per r, each kind's count and first k."""
    return {r: {**{kind: len(ks) for kind, ks in res.items()},
                "first": {kind: ks[0] if ks else None for kind, ks in res.items()}}
            for r, res in ks_by_r.items()}


def assert_same_report(theta, r_values, k_max, N):
    """check_sector_lemma against the per-k, per-r oracle: c' bit for bit,
    and per r and kind the same k, so the same counts and first k; or the
    same exception from both.  Returns the oracle's k per r and kind."""
    try:
        c_prime, results = series_oracle.check_sector_lemma(theta, r_values, k_max, N)
    except ArithmeticError as exc:
        with pytest.raises(type(exc), match=str(exc)):
            check_sector_lemma(theta, r_values, k_max, N)
        return
    rep = check_sector_lemma(theta, r_values, k_max, N)
    assert rep.c_prime.hex() == c_prime.hex()
    want = oracle_ks(results)
    assert kind_ks(theta, r_values, k_max, N, rep.c_prime) == want, (r_values, k_max, N)
    assert rep.results == counted(want), (r_values, k_max, N)
    return want


R_OVERFLOW, K_OVERFLOW = 1.09, 8237   # the first k whose r^k overflows


def assert_overflow_is_drift(theta, r_all, k_max, N, want):
    """With R_OVERFLOW among r_all the oracle raises from K_OVERFLOW on.
    The k equal the oracle's at the other r, and at R_OVERFLOW below
    K_OVERFLOW; from there on every k is drift and none a violation."""
    assert r_all[-1] == R_OVERFLOW
    rep = check_sector_lemma(theta, r_all, k_max, N)
    got = kind_ks(theta, r_all, k_max, N, rep.c_prime)
    far = got.pop(R_OVERFLOW)
    assert got == want
    below = assert_same_report(theta, [R_OVERFLOW], min(k_max, K_OVERFLOW - 1), N)[R_OVERFLOW]
    assert far == {**below, "drift": below["drift"] + list(range(K_OVERFLOW, k_max + 1))}
    assert rep.results == counted({**want, R_OVERFLOW: far})


def test_sector_overflow_starts_at_k_overflow():
    log_r = math.log1p(R_OVERFLOW - 1.0)
    math.expm1((K_OVERFLOW - 1) * log_r)
    with pytest.raises(OverflowError):
        math.expm1(K_OVERFLOW * log_r)


@pytest.mark.parametrize("name", SECTOR_THETAS)
def test_sector_report_equals_per_k_oracle(name):
    theta = SECTOR_THETAS[name]
    r_all = [0.91, 0.999, 1.0, 1.001, 1.09]
    entries = 0
    for N in (-0.5, 0.5, 1, 2):
        for k_max in (1, 2, 10**4):
            want = assert_same_report(theta, r_all[:-1], k_max, N)
            entries += sum(len(ks) for res in want.values() for ks in res.values())
            assert_overflow_is_drift(theta, r_all, k_max, N, want)
        assert_same_report(theta, [1.09, 0.91], 8000, N)
    assert entries > 3 * 20000  # drift and chained violations at the far r


def test_sector_power_overflow_raises_as_python_does():
    # k^78.5 overflows from k = 8450 (r^k from 8237): Python's ** raises
    # there, though v is already inf
    with pytest.raises(OverflowError, match=r"\(34, 'Numerical result out of range'\)"):
        check_sector_lemma(GOLDEN, [R_OVERFLOW], 9000, N=-78.5)
    with pytest.raises(OverflowError):
        8450 ** 78.5
    assert_overflow_is_drift(GOLDEN, [R_OVERFLOW], 8449, -78.5, {})


@pytest.mark.parametrize("name", ["golden", "3/7", "binary64"])
def test_sector_report_with_many_final_violations(name, monkeypatch):
    # a constant far above max_c breaks the final bound at thousands of k,
    # whose decisions take Python's k ** -N
    theta = SECTOR_THETAS[name]

    def large(theta, N, k_max):
        return 40.0

    monkeypatch.setattr(dio, "max_c", large)
    monkeypatch.setattr(series_oracle, "max_c", large)
    broken = {}
    for N in (-0.5, 0, 0.5, 1):
        want = assert_same_report(theta, [0.91, 0.999, 1.0005], 10**4, N)
        broken[N] = sum(len(res["final_violations"]) for res in want.values())
    assert broken[-0.5] == 30000 and broken[0.5] > 1000 and broken[1] > 50


def test_sector_report_across_a_block_boundary():
    k_max = dio._K_BLOCK + 5
    assert_same_report(GOLDEN, [0.91, 1.0005], k_max, 1.0)
    assert_same_report(0.7548776662466927, [0.999], k_max, 0.5)


def test_sector_reduces_theta_once_per_call(monkeypatch):
    blocks, reductions = [], []
    plain_blocks, plain_dist = dio._dist_blocks, dio.dist_k_theta

    def counting_blocks(theta, k_max):
        blocks.append(k_max)
        return plain_blocks(theta, k_max)

    def counting_dist(theta, k):
        reductions.append(k)
        return plain_dist(theta, k)

    monkeypatch.setattr(dio, "_dist_blocks", counting_blocks)
    monkeypatch.setattr(dio, "dist_k_theta", counting_dist)
    check_sector_lemma(GOLDEN, [0.999, 1.0, 1.001], 1000)
    assert blocks == [1000]
    # the other reductions are max_c's scan of k = 1 and the Fibonacci
    # denominators up to 987, 15 k in all; a loop over k or r makes thousands
    assert len(reductions) == 15


def test_sector_takes_python_powers_only_near_the_bound(monkeypatch):
    # k^-N comes from numpy; Python's k ** -N only where v is within 2^-40
    # of the bound, and max_c's golden bound is nowhere near v
    powers, reductions = [], []
    plain_powers, plain_dist = dio._powers, dio.dist_k_theta

    def counting_powers(ks, e):
        powers.extend(ks)
        return plain_powers(ks, e)

    def counting_dist(theta, k):
        reductions.append(k)
        return plain_dist(theta, k)

    monkeypatch.setattr(dio, "_powers", counting_powers)
    monkeypatch.setattr(dio, "dist_k_theta", counting_dist)
    rep = check_sector_lemma(GOLDEN, [0.999, 1.0, 1.001], 1000)
    assert powers == [] and len(reductions) == 15
    assert rep.ok


def counting_expm1(monkeypatch):
    """The arguments of every math.expm1 call from here to the test's end."""
    xs, plain = [], math.expm1
    monkeypatch.setattr(math, "expm1", lambda x: xs.append(x) or plain(x))
    return xs


def test_sector_takes_libm_expm1_only_near_a_threshold(monkeypatch):
    # r^k - 1 comes from np.expm1; math.expm1 only where v or r^k lies within
    # a relative 2^-40 of a threshold, and no golden k does.  Past the overflow
    # of (r^k - 1)^2 (from k = 4119 at r = 1.09) v is inf on both paths.
    xs = counting_expm1(monkeypatch)
    assert check_sector_lemma(GOLDEN, [0.999, 1.001], 10**4).ok
    assert xs == []
    rep = check_sector_lemma(GOLDEN, [0.91, 1.09], 10**4)
    assert rep.results[1.09]["drift"] == 10**4 - 8 and len(xs) <= 2


def test_sector_decision_on_a_threshold_takes_libm(monkeypatch):
    # N = 0 and max_c patched so that c' = v at k = 89 and r = 1.001: the
    # final bound is met with equality, not broken.  np.expm1 one ulp low, as
    # it may be, would put v below it; the recheck takes libm's r^k - 1 there.
    k0, c = 89, 0.13960275785663498
    for module in (dio, series_oracle):
        monkeypatch.setattr(module, "max_c", lambda theta, N, k_max: c)
    plain = np.expm1
    monkeypatch.setattr(np, "expm1", lambda x: np.nextafter(plain(x), -np.inf))
    want = assert_same_report(GOLDEN, [1.001], 1000, 0)
    assert want[1.001]["final_violations"] == [34, 55]  # Fibonacci, as k0
    xs = counting_expm1(monkeypatch)
    check_sector_lemma(GOLDEN, [1.001], 1000, 0)
    assert k0 * math.log1p(1.001 - 1.0) in xs and len(xs) <= 3
    # every k recomputed by libm gives the same k too
    monkeypatch.setattr(dio, "_near", lambda a, b: np.ones(np.shape(a), dtype=bool))
    assert_same_report(GOLDEN, [0.91, 1.001, 1.09], 8000, 0)
    xs.clear()
    check_sector_lemma(GOLDEN, [0.91, 1.001, 1.09], 8000, 0)
    assert len(xs) == 3 * 8000


def test_sector_report_memory_does_not_grow_with_k_max():
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        rep = check_sector_lemma(GOLDEN, [0.999, 1.001], 2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.results[1.001]["drift"] == 2 * 10**5 - 693
    assert peak < 2 * 2**20


def test_isqrt_once_per_quadratic_irrational(monkeypatch):
    roots = []
    plain = dio.isqrt

    def counting(n):
        roots.append(n)
        return plain(n)

    theta = QuadraticIrrational(3, 1234577, 7)  # d not used elsewhere: no cached root
    monkeypatch.setattr(dio, "isqrt", counting)
    for k in range(1, 200):
        frac_k_theta(theta, k)
        dist_k_theta(theta, k)
        small_divisor_modulus(theta, k)
    assert len(roots) == 1


def test_fallback_loops_across_blocks_equal_the_oracle(monkeypatch):
    # blocks of 97 put many block boundaries inside the loops over every k
    monkeypatch.setattr(dio, "_K_BLOCK", 97)
    for theta in (GOLDEN, 1 / 3 + 1e-14, Fraction(355, 1131)):
        for N in (-0.5, 1.0):
            want = series_oracle.max_c_detail(theta, N, 3000)
            assert max_c_detail(theta, N, 3000) == want
    for c, N in ((1.9, 1.0), (3.0, 1.0), (1.0, 0)):
        cert = check_siegel(GOLDEN, c, N, 3000)
        assert (cert.ok, cert.violations) == series_oracle.check_siegel(GOLDEN, c, N, 3000)
    assert len(cert.violations) > 100


def test_fraction_past_the_quotient_cap_scans_its_denominators(monkeypatch):
    # the 10^12 cap marks binary64's horizon: a Fraction expands exactly
    theta = Fraction(1, 10**13 + 7)
    cf = dio._continued_fraction_mod1(theta, 10)
    assert (cf.partial_quotients, cf.rational) == ([10**13 + 7], True)
    assert continued_fraction(theta, 10).partial_quotients == [10**13 + 7]
    assert dio._scan_denominators(theta, 10**6) == [1]
    want = series_oracle.max_c_detail(theta, 1, 10**4)
    calls = []
    plain = dio.small_divisor_modulus

    def counting(theta, k):
        calls.append(k)
        return plain(theta, k)

    monkeypatch.setattr(dio, "small_divisor_modulus", counting)
    monkeypatch.setattr(dio, "_dist_blocks", None)  # no loop over every k
    assert max_c_detail(theta, 1, 10**4) == want
    assert len(calls) <= 10
    assert max_c_detail(theta, 1, 10**7)[2] == 1


def test_fraction_with_a_quotient_past_2_52_inside_its_expansion():
    # [0; 3, 10^17, 1, 1, ...]: ||theta|| and ||2 theta|| differ by a relative
    # 1e-17, below rounding, yet the scan must equal the loop over every k
    theta = Fraction(0)
    for a in reversed([3, 10**17] + [1] * 40):
        theta = 1 / (a + theta)
    assert dio._continued_fraction_mod1(theta, 4).partial_quotients == [3, 10**17, 1, 1]
    assert dist_k_theta(theta, 1) == dist_k_theta(theta, 2)
    assert dio._scan_denominators(theta, 10**4) == [1, 3]
    for N in (0, 1):
        want = series_oracle.max_c_detail(theta, N, 10**4)
        assert max_c_detail(theta, N, 10**4) == want, N
        for c in (want[0], want[1], 2.0):
            cert = check_siegel(theta, c, N, 10**4)
            ok, violations = series_oracle.check_siegel(theta, c, N, 10**4)
            assert (cert.ok, cert.violations) == (ok, violations), (N, c)


@pytest.mark.parametrize("call", [
    lambda th, k_max: max_c(th, 1.0, k_max),
    lambda th, k_max: max_c_detail(th, 1.0, k_max),
    lambda th, k_max: check_siegel(th, 1e-9, 1.0, k_max),
    lambda th, k_max: check_sector_lemma(th, [], k_max),
], ids=["max_c", "max_c_detail", "check_siegel", "check_sector_lemma"])
def test_binary64_horizon_warning_names_the_caller(call):
    with pytest.warns(UserWarning, match="binary64 theta") as record:
        call(0.3183098861837907, 2 * 10**7)
    assert [w.filename for w in record] == [__file__]


def test_sector_with_no_r_skips_the_loop_over_k():
    rep = check_sector_lemma(GOLDEN, [], 10**12)
    assert rep.results == {} and rep.ok


@pytest.mark.parametrize("k_max", [0, -3])
def test_empty_k_range_is_an_error(k_max):
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        check_sector_lemma(GOLDEN, [1.0], k_max)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        max_c_detail(GOLDEN, 1.0, k_max)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        max_c(GOLDEN, 1.0, k_max)


def test_a_nan_exponent_or_constant_is_an_error():
    # 1 ** nan is 1 and no NaN bound fails a v < bound test: a NaN read as "ok"
    with pytest.raises(ValueError, match="NaN"):
        max_c_detail(GOLDEN, math.nan, 100)
    with pytest.raises(ValueError, match="NaN"):
        check_sector_lemma(GOLDEN, [1.0], 100, math.nan)
    for c, N in ((math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(ValueError, match="need c > 0"):
            check_siegel(GOLDEN, c, N, 100)
