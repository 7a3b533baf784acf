"""Continued fractions and small-divisor certificates.

The quantity controlled here is |lambda^k - 1| for lambda = e^{2 pi i theta},
which equals 2 sin(pi ||k theta||) with ||.|| the distance to the nearest
integer.  Everything reduces k*theta mod 1 in exact integer arithmetic:
floats are expanded to their exact rational value, and quadratic
irrationals are carried as (p + sqrt(d))/q with a scaled integer square
root, so the reduction never loses more than the final rounding (well
under the 2-ulp budget even at k = 10^8).

theta may be given as a float, a Fraction, or a QuadraticIrrational; the
latter also yields exact continued-fraction quotients at any depth, where a
binary64 theta degrades after ~36 quotients.

Certificates need not visit every k.  For q_n <= k < q_{n+1} (convergent
denominators) ||k theta|| >= ||q_n theta|| -- the best approximations of the
second kind, Khinchin, *Continued Fractions*, ch. II -- and both sin(pi x)
on [0, 1/2] and k^N for N >= 0 are monotone, so the minimum of
|e^{2 pi i k theta} - 1| k^N over k <= k_max, and each new running minimum,
sits at k = 1 or at a convergent denominator.  max_c_detail and
check_siegel evaluate only those k, and certify a quadratic irrational to
k = 10^12 in milliseconds.  They fall back to every k when N < 0, or when
the expansion does not bound the gap far above rounding: theta outside
(0, 1), or a float theta whose expansion stops at the 10^12 quotient cap
before two denominators beyond k_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

__all__ = [
    "QuadraticIrrational",
    "GOLDEN",
    "SILVER",
    "ContinuedFraction",
    "continued_fraction",
    "frac_k_theta",
    "dist_k_theta",
    "small_divisor_modulus",
    "DiophantineCertificate",
    "check_siegel",
    "max_c",
    "max_c_detail",
    "SectorReport",
    "check_sector_lemma",
]

_RATIONAL_QUOTIENT_LIMIT = 10**12
_SQRT_SCALE = 10**40  # integer scale for sqrt(d); error ~ k * 1e-40


@dataclass(frozen=True)
class QuadraticIrrational:
    """theta = (p + sqrt(d)) / q with d a positive nonsquare."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be a positive nonsquare")

    def value(self) -> float:
        return (self.p + math.sqrt(self.d)) / self.q


GOLDEN = QuadraticIrrational(-1, 5, 2)   # (sqrt(5) - 1) / 2
SILVER = QuadraticIrrational(-1, 2, 1)   # sqrt(2) - 1


def _theta_value(theta) -> float:
    if isinstance(theta, QuadraticIrrational):
        return theta.value()
    if isinstance(theta, Fraction):
        return float(theta)
    return float(theta)


def _k_theta_num_den(theta, k: int):
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(theta, QuadraticIrrational):
        s = isqrt(theta.d * _SQRT_SCALE * _SQRT_SCALE)
        num = k * (theta.p * _SQRT_SCALE + s)
        den = theta.q * _SQRT_SCALE
        if den < 0:
            num, den = -num, -den
        return num, den
    fr = theta if isinstance(theta, Fraction) else Fraction(float(theta))
    return k * fr.numerator, fr.denominator


def frac_k_theta(theta, k: int) -> float:
    """k * theta mod 1 in [0, 1), reduced in exact integer arithmetic."""
    num, den = _k_theta_num_den(theta, k)
    return (num % den) / den


def dist_k_theta(theta, k: int) -> float:
    """||k theta||, the distance to the nearest integer.

    The reduction and the min against 1 happen on exact integers, so the
    result is the correctly rounded distance: relative accuracy is kept
    even when k theta sits within 1e-15 of an integer.
    """
    num, den = _k_theta_num_den(theta, k)
    m = num % den
    return min(m, den - m) / den


def small_divisor_modulus(theta, k: int) -> float:
    """|e^{2 pi i k theta} - 1| = 2 sin(pi ||k theta||)."""
    return 2.0 * math.sin(math.pi * dist_k_theta(theta, k))


# -- continued fractions ------------------------------------------------


@dataclass
class ContinuedFraction:
    theta: float
    partial_quotients: list
    convergents: list  # (p_k, q_k) pairs, coprime
    rational: bool     # expansion terminated (exactly, or quotient blew up)


def continued_fraction(theta, depth: int) -> ContinuedFraction:
    """Gauss-map expansion of theta in (0, 1) with convergent recurrences.

    Floats are expanded exactly (as the rationals they are); the expansion
    halts with the rational flag once a quotient exceeds 10^12, which for a
    binary64 input marks the precision horizon.
    """
    val = _theta_value(theta)
    if not 0.0 < val < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    quotients = []
    rational = False
    if isinstance(theta, QuadraticIrrational):
        # normalized so that Q | D - P^2, all arithmetic exact
        p, d, q = theta.p, theta.d, theta.q
        P, D, Q = p * abs(q), d * q * q, q * abs(q)
        s = isqrt(D)
        for i in range(depth + 1):
            a = (P + s) // Q
            if i > 0:
                quotients.append(a)  # a_0 = floor(theta) = 0 is dropped
            P = a * Q - P
            Q = (D - P * P) // Q
    else:
        x = theta if isinstance(theta, Fraction) else Fraction(float(theta))
        for _ in range(depth):
            if x == 0:
                rational = True
                break
            a = int(1 / x)  # x in (0,1): this is the next quotient
            if a > _RATIONAL_QUOTIENT_LIMIT:
                rational = True
                break
            quotients.append(a)
            x = 1 / x - a
        if not quotients and rational:
            raise ValueError("theta is zero to working precision")
    # convergents for [0; a1, a2, ...]
    convergents = []
    h_prev, h = 1, 0
    k_prev, k = 0, 1
    for a in quotients:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        convergents.append((h, k))
    return ContinuedFraction(val, quotients, convergents, rational)


# -- certificates --------------------------------------------------------


@dataclass
class DiophantineCertificate:
    theta: float
    c: float
    N: float
    k_max: int
    verified_up_to: int
    violations: list  # (k, modulus, bound)

    @property
    def ok(self) -> bool:
        return not self.violations


def _warn_float_horizon(theta, k_max: int) -> None:
    # a binary64 theta is the exact rational it stores; past k ~ 1e7 the
    # certificate is about that rational, not the intended real number
    if isinstance(theta, float) and k_max > 10**7:
        import warnings

        warnings.warn(
            "binary64 theta: beyond k ~ 1e7 the reduction describes the "
            "stored rational, not the intended irrational; pass a "
            "QuadraticIrrational or Fraction for exact results",
            stacklevel=3,
        )


def _scan_denominators(theta, k_max: int):
    """k = 1 and every convergent denominator q_n <= k_max, or None.

    Best approximations of the second kind (Khinchin, *Continued
    Fractions*, ch. II): for q_n <= k < q_{n+1}, ||k theta|| >= ||q_n theta||,
    and where the two differ the gap is at least ||q_{n+1} theta||, about
    ||q_n theta|| / a_{n+2}.  None means this gap is not known to lie far
    above rounding over [1, k_max]: theta is outside (0, 1), or its
    expansion stopped at the 10^12 quotient cap (a binary64 theta at its
    precision horizon) before two denominators beyond k_max.  An expansion
    that terminates exactly (theta rational) covers every k: there the
    values are multiples of 1/q, so a tie is exact and gives equal floats.
    """
    if k_max < 1:
        return []
    # q_n >= F_{n+1} >= phi^(n-1): this depth reaches two denominators past k_max
    depth = int(math.log(k_max) / math.log((1 + math.sqrt(5)) / 2)) + 4
    try:
        cf = continued_fraction(theta, depth)
    except ValueError:
        return None
    qs = [q for _, q in cf.convergents]
    exact = cf.rational and Fraction(*cf.convergents[-1]) == (
        theta if isinstance(theta, Fraction) else Fraction(float(theta)))
    if not exact and sum(q > k_max for q in qs) < 2:
        return None
    return sorted({1, *(q for q in qs if q <= k_max)})


def _violations(theta, c: float, N: float, ks) -> list:
    out = []
    for k in ks:
        v = small_divisor_modulus(theta, k)
        bound = c * k ** (-N)
        if not v > bound:
            out.append((k, v, bound))
    return out


def check_siegel(theta, c: float, N: float, k_max: int) -> DiophantineCertificate:
    """Verify |e^{2 pi i k theta} - 1| > c k^-N for 1 <= k <= k_max.

    The test runs at k = 1 and the convergent denominators only (see
    _scan_denominators): if it holds there it holds at every k, since
    ||k theta|| is no smaller and k^-N no larger in between.  When a
    scanned k fails, or the scan does not cover [1, k_max], every k is
    tested so that the violation list is complete.
    """
    if c <= 0 or N < 0 or k_max < 1:
        raise ValueError("need c > 0, N >= 0, k_max >= 1")
    _warn_float_horizon(theta, k_max)
    ks = _scan_denominators(theta, k_max)
    violations = None if ks is None else _violations(theta, c, N, ks)
    if violations is None or violations:
        violations = _violations(theta, c, N, range(1, k_max + 1))
    return DiophantineCertificate(_theta_value(theta), c, N, k_max, k_max, violations)


def max_c_detail(theta, N: float, k_max: int):
    """Tightest certificate constant and where the minima occur.

    Returns (c_open, min_value, argmin_k, running_minima) where
    running_minima lists (k, value) each time a new minimum of
    |e^{2 pi i k theta} - 1| k^N appears.  c_open is min_value shaved by a
    few ulps so that the strict inequality of the certificate holds at the
    minimizing k when re-verified in the same arithmetic (the true supremal
    c is an open bound).

    For N >= 0 only k = 1 and the convergent denominators are evaluated:
    sin(pi x) is monotone on [0, 1/2] and k^N in k, so every new minimum
    sits at one of them, and the result equals that of the loop over every
    k.  A quadratic irrational certifies to k = 10^12 in milliseconds.
    N < 0, or a theta the scan does not cover (see _scan_denominators),
    falls back to the loop over every k.
    """
    _warn_float_horizon(theta, k_max)
    ks = _scan_denominators(theta, k_max) if N >= 0 else None
    best = math.inf
    argmin = 0
    running = []
    for k in range(1, k_max + 1) if ks is None else ks:
        v = small_divisor_modulus(theta, k) * k**N
        if v < best:
            best = v
            argmin = k
            running.append((k, v))
    c_open = best * (1.0 - 8 * 2.220446049250313e-16)
    return c_open, best, argmin, running


def max_c(theta, N: float, k_max: int) -> float:
    return max_c_detail(theta, N, k_max)[0]


# -- the sector bound for lambda off the unit circle ----------------------


@dataclass
class SectorReport:
    theta: float
    N: float
    k_max: int
    c_prime: float
    results: dict = field(default_factory=dict)
    # results[r] is a dict with keys:
    #   sector_violations        (k in I with |lam^k - 1| <= sqrt(2)/2)
    #   complement_violations    (k not in I failing the cos(pi/4) bound)
    #   chained_violations       (k in I failing the chained middle bound; expected
    #                             under drift, reported but not asserted)
    #   final_violations         (k failing |lam^k - 1| >= c' k^-N)
    #   drift                    (k values where r^k left [1/2, 2])

    @property
    def ok(self) -> bool:
        return all(
            not res["sector_violations"]
            and not res["complement_violations"]
            and not res["final_violations"]
            for res in self.results.values()
        )


def check_sector_lemma(theta0, r_values, k_max: int, N: float = 1.0,
                       drift_band=(0.5, 2.0)) -> SectorReport:
    """Check the sector split for lambda = r e^{2 pi i theta0} near |r| = 1.

    k is in the sector I when |arg(e^{2 pi i k theta0})| > pi/4, i.e. when
    ||k theta0|| > 1/8.  For k in I the distance from 1 to the whole ray
    {r^k e^{i phi}} exceeds sin(pi/4), for k outside I the projection bound
    gives |lam^k - 1| >= cos(pi/4) |e^{i phi} - 1|; both hold for every
    r > 0.  The chained middle inequality (the same lower bound with
    sqrt(2)/2 |e^{i phi} - 1| for k in I) can genuinely fail once r^k has
    drifted far from 1, so it is recorded separately.  The conclusion the
    linearization consumes is the final bound with
    c' = sqrt(2)/2 * max_c(theta0, N, k_max).
    """
    r_values = [float(r) for r in r_values]
    for r in r_values:
        if not 0.9 < r < 1.1:
            raise ValueError("r values must lie in (0.9, 1.1)")
    half_sqrt2 = math.sqrt(2.0) / 2.0
    c_prime = half_sqrt2 * max_c(theta0, N, k_max)
    report = SectorReport(_theta_value(theta0), N, k_max, c_prime)
    for r in r_values:
        log_r = math.log1p(r - 1.0)
        res = {
            "sector_violations": [],
            "complement_violations": [],
            "chained_violations": [],
            "final_violations": [],
            "drift": [],
        }
        for k in range(1, k_max + 1):
            dist = dist_k_theta(theta0, k)
            sin_half = math.sin(math.pi * dist)       # |e^{i phi} - 1| / 2
            rk_m1 = math.expm1(k * log_r)             # r^k - 1, no cancellation
            rk = rk_m1 + 1.0
            v = math.sqrt(rk_m1 * rk_m1 + 4.0 * rk * sin_half * sin_half)
            unit_mod = 2.0 * sin_half
            if not drift_band[0] <= rk <= drift_band[1]:
                res["drift"].append(k)
            if dist > 0.125:  # k in I
                if not v > half_sqrt2:
                    res["sector_violations"].append((k, v))
                if v < half_sqrt2 * unit_mod:
                    res["chained_violations"].append((k, v, half_sqrt2 * unit_mod))
            else:
                if v < half_sqrt2 * unit_mod:
                    res["complement_violations"].append((k, v, half_sqrt2 * unit_mod))
            if v < c_prime * k ** (-N):
                res["final_violations"].append((k, v, c_prime * k ** (-N)))
        report.results[r] = res
    return report
