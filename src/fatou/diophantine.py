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
sits at k = 1 or at a convergent denominator of theta mod 1, on which
||k theta|| alone depends.  max_c_detail and check_siegel evaluate only
those k, and certify a quadratic irrational to k = 10^12 in milliseconds.
They fall back to every k when N < 0, or when the expansion does not
bound the gap far above rounding: a float theta whose expansion stops at
the 10^12 quotient cap before two denominators beyond k_max.

The loops that do visit every k -- those fallbacks, check_siegel's
complete violation list and the sector check -- take ||k theta|| from
_dist_blocks: array code forms k theta mod 1 in double-double and rounds
it once against a stated error bound, and the few k it cannot certify
take the exact reduction, so every k gets dist_k_theta's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .ddc import _two_prod, _two_sum

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
_K_BLOCK = 4096  # k per block of the loops over every k; ||k theta|| takes ~120 bytes a k
_DD_TINY = 2.0**-968  # a part of theta mod 1 this large keeps k t's two-product exact
_LOG_R_K_CAP = 709.0  # cap on k log r: e^709 squared overflows; math.expm1 raises past 709.78
_SQRT_MAX = math.sqrt(sys.float_info.max)  # r^k - 1 past it: (r^k - 1)^2 is inf
_SECTOR_KINDS = ("sector_violations", "complement_violations", "chained_violations",
                 "final_violations", "drift")


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
    return float(theta)


@lru_cache(maxsize=64)
def _scaled_sqrt(d: int) -> int:
    return isqrt(d * _SQRT_SCALE * _SQRT_SCALE)


def _k_theta_num_den(theta, k: int):
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(theta, QuadraticIrrational):
        num = k * (theta.p * _SQRT_SCALE + _scaled_sqrt(theta.d))
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
    return _exact_dists(num, den, (1,))[0]


def small_divisor_modulus(theta, k: int) -> float:
    """|e^{2 pi i k theta} - 1| = 2 sin(pi ||k theta||)."""
    return _modulus(dist_k_theta(theta, k))


def _modulus(dist: float) -> float:
    return 2.0 * math.sin(math.pi * dist)


def _dist_blocks(theta, k_max: int):
    """(ks, _block_dist(theta)(ks)) for k = 1..k_max, ks ranges of <= _K_BLOCK k."""
    dist = _block_dist(theta)
    for k0 in range(1, k_max + 1, _K_BLOCK):
        ks = range(k0, min(k0 + _K_BLOCK, k_max + 1))
        yield ks, dist(ks)


def _block_dist(theta):
    """The map from a range ks of k >= 1 to [dist_k_theta(theta, k) for k
    in ks] as float64, bit for bit.  theta mod 1 = a / den is split once
    into parts t0 + t1 + t2 + rho, each the rounded rest (rho keeps a part
    below _DD_TINY).  k t0 and k t1 are exact two-products (fatou.ddc);
    rint and two-sums reduce them exactly but for four small terms and
    k t2, and a fold past 1/2 gives ||k theta|| = d + dl, d = fl(d + dl),
    within E = k_last (2 |rho| + 2^-52 |t2|) + 2^-101, twice the error
    made.  d is correctly rounded where d + dl +- E both round to d; other
    k take _exact_dists: exact ties of a non-dyadic theta, rational zeros,
    a theta mod 1 below _DD_TINY that is no binary64, k past 2^53.  A
    dyadic theta mod 1 (every float) is t0 alone: E = 0, d is Python's
    int / int, ties included.  A binary64 t below _DD_TINY has ||k theta||
    = k t < 2^-915 for k <= 2^53: fl(k t) is correctly rounded."""
    a, den = _k_theta_num_den(theta, 1)
    rest, parts = Fraction(a % den, den), []
    while len(parts) < 3 and abs(float(rest)) >= _DD_TINY:
        parts.append(float(rest))
        rest -= Fraction(parts[-1])
    if not parts and Fraction(float(rest)) == rest:  # a binary64 t below _DD_TINY
        return lambda ks: (np.arange(ks.start, ks.stop, dtype=float) * float(rest)
                           if ks.stop <= 2**53 + 1 else np.array(_exact_dists(a, den, ks)))
    t0, t1, t2 = parts + [0.0] * (3 - len(parts))
    slope = 2.0 * float(abs(rest)) + 2.0**-52 * abs(t2)
    floor = 0.0 if rest == 0 and t1 == 0 else 2.0**-101

    def dist(ks: range) -> np.ndarray:
        k = np.arange(ks.start, ks.stop, dtype=float)
        p0, e0 = _two_prod(k, t0)
        p1, e1 = _two_prod(k, t1)
        s, e = _two_sum(p0 - np.rint(p0), e0)  # p0 - rint(p0) is exact
        s, e2 = _two_sum(s, p1)
        e = e + e2 + e1 + k * t2  # four terms of at most 2^-53 each
        h, l = _two_sum(s - np.rint(s), e)  # the signed fraction x = h + l
        d, dl = np.abs(h), np.where(h < 0, -l, l)  # |x| = d + dl
        fold = (d > 0.5) | ((d == 0.5) & (dl > 0))  # |x| > 1/2: ||k theta|| = 1 - |x|
        if fold.any():
            d[fold], dl[fold] = _two_sum(1.0 - d[fold], -dl[fold])
        E = math.inf if ks.stop > 2**53 + 1 else (ks.stop - 1) * slope + floor
        if E:  # rounding is monotone: both ends of d + dl +- E round to d
            idx = np.flatnonzero((d + (dl + E) != d) | (d + (dl - E) != d))
            d[idx] = _exact_dists(a, den, (ks.start + idx).tolist())
        return d

    return dist


def _exact_dists(a: int, den: int, ks) -> list:
    """||k a / den|| for k in ks, on exact integers (dist_k_theta's home)."""
    return [(m if m <= den - m else den - m) / den for m in (k * a % den for k in ks)]


def _moduli(theta, k_max: int, ks=None):
    """(k, small_divisor_modulus(theta, k)) pairs, bit for bit: for k in ks,
    or for every k <= k_max from _dist_blocks when ks is None."""
    if ks is not None:
        return ((k, small_divisor_modulus(theta, k)) for k in ks)
    return ((k, _modulus(d)) for block, dist in _dist_blocks(theta, k_max)
            for k, d in zip(block, dist.tolist()))


def _powers(ks, e) -> np.ndarray:
    """k ** e for the ints k in ks, as Python gives it, rounded to float64."""
    return np.fromiter(map(e.__rpow__, ks), float, len(ks))


# -- continued fractions ------------------------------------------------


@dataclass
class ContinuedFraction:
    theta: float
    partial_quotients: list
    convergents: list  # (p_k, q_k) pairs, coprime
    rational: bool     # expansion terminated (exactly, or quotient blew up)


def continued_fraction(theta, depth: int) -> ContinuedFraction:
    """Gauss-map expansion of theta in (0, 1) with convergent recurrences.

    Floats are expanded exactly (as the rationals they are); a float's
    expansion halts with the rational flag once a quotient exceeds 10^12,
    which marks binary64's precision horizon.  A Fraction's is uncapped.
    """
    if not 0.0 < _theta_value(theta) < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cf = _continued_fraction_mod1(theta, depth)
    if not cf.partial_quotients:
        raise ValueError("theta is zero to working precision")
    return cf


def _continued_fraction_mod1(theta, depth: int) -> ContinuedFraction:
    """continued_fraction's expansion of theta mod 1, for any theta (fatou.cli
    reads it too): the partial quotients of theta after a_0 = floor(theta),
    all exact.  An integer theta has none and is rational, as is a float
    theta mod 1 whose first quotient is past the cap."""
    quotients = []
    rational = False
    if isinstance(theta, QuadraticIrrational):
        # normalized so that Q | D - P^2, all arithmetic exact
        p, d, q = theta.p, theta.d, theta.q
        P, D, Q = p * abs(q), d * q * q, q * abs(q)
        s = isqrt(D)
        for _ in range(depth + 1):
            # floor((P + sqrt D) / Q) with s < sqrt D < s + 1, also for Q < 0
            a = (P + s + (Q < 0)) // Q
            quotients.append(a)
            P = a * Q - P
            Q = (D - P * P) // Q
        val = QuadraticIrrational(p - quotients.pop(0) * q, d, q).value()  # a_0 dropped
    else:
        x = (theta if isinstance(theta, Fraction) else Fraction(float(theta))) % 1
        val = float(x)
        for _ in range(depth):
            if x == 0:
                rational = True
                break
            a = int(1 / x)  # x in (0,1): this is the next quotient
            if a > _RATIONAL_QUOTIENT_LIMIT and not isinstance(theta, Fraction):
                rational = True
                break
            quotients.append(a)
            x = 1 / x - a
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
    """Warn when theta is a float and k_max > 10^7, naming the caller of
    max_c, max_c_detail, check_siegel or check_sector_lemma: a binary64 theta
    is the rational it stores, and past k ~ 1e7 the certificate is about that
    rational, not the intended real number."""
    if isinstance(theta, float) and k_max > 10**7:
        import warnings

        level, frame = 2, sys._getframe(1)  # name the first caller outside this module
        while frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            "binary64 theta: beyond k ~ 1e7 the reduction describes the "
            "stored rational, not the intended irrational; pass a "
            "QuadraticIrrational or Fraction for exact results",
            stacklevel=level,
        )


def _scan_denominators(theta, k_max: int):
    """k = 1 and every convergent denominator q_n <= k_max of theta mod 1
    (||k theta|| depends on no more), or None.

    Best approximations of the second kind (Khinchin, *Continued
    Fractions*, ch. II): for q_n <= k < q_{n+1}, ||k theta|| >= ||q_n theta||,
    and where the two differ the gap is at least ||q_{n+1} theta||, about
    ||q_n theta|| / a_{n+2}.  None means this gap is not known to lie far
    above rounding over [1, k_max]: a float's expansion stopped at the 10^12
    quotient cap (binary64's horizon) before two denominators beyond k_max.
    An exact theta is uncapped: where a quotient past 2^52 puts its gap
    below rounding, one rounding of ||k theta|| and monotone math.sin and
    ** still keep every float minimum on the scanned k.  A terminating
    expansion (theta rational) covers every k: the values are multiples of
    1/q, so ties are exact; an integer theta scans k = 1 alone.
    """
    # q_n >= F_{n+1} >= phi^(n-1): this depth reaches two denominators past k_max
    depth = int(math.log(k_max) / math.log((1 + math.sqrt(5)) / 2)) + 4
    cf = _continued_fraction_mod1(theta, depth)
    qs = [q for _, q in cf.convergents]
    exact = cf.rational and frac_k_theta(theta, qs[-1] if qs else 1) == 0  # q_0 = 1
    if not exact and sum(q > k_max for q in qs) < 2:
        return None
    return sorted({1, *(q for q in qs if q <= k_max)})


def _violations(c: float, N: float, moduli) -> list:
    out = []
    for k, v in moduli:
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
    if not (c > 0 and N >= 0 and k_max >= 1):  # a NaN c or N fails too
        raise ValueError("need c > 0, N >= 0, k_max >= 1")
    _warn_float_horizon(theta, k_max)
    ks = _scan_denominators(theta, k_max)
    violations = None if ks is None else _violations(c, N, _moduli(theta, k_max, ks))
    if violations is None or violations:
        violations = _violations(c, N, _moduli(theta, k_max))
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
    k.  A quadratic irrational or a Fraction certifies to k = 10^12 in
    milliseconds.  N < 0, or a float theta at its binary64 horizon (see
    _scan_denominators), falls back to the loop over every k, fed by
    _dist_blocks.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if math.isnan(N):  # 1 ** nan is 1: the minimum would sit at k = 1 alone
        raise ValueError("N must be a number, not NaN")
    _warn_float_horizon(theta, k_max)
    ks = _scan_denominators(theta, k_max) if N >= 0 else None
    best = math.inf
    argmin = 0
    running = []
    for k, m in _moduli(theta, k_max, ks):
        v = m * k**N
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
    # results[r]: each kind's count of k <= k_max, and "first": each kind's first k or None
    #   sector_violations        (k in I with |lam^k - 1| <= sqrt(2)/2)
    #   complement_violations    (k not in I failing the cos(pi/4) bound)
    #   chained_violations       (k in I failing the chained middle bound; drift may break it)
    #   final_violations         (k failing |lam^k - 1| >= c' k^-N)
    #   drift                    (k where r^k left [1/2, 2])

    @property
    def ok(self) -> bool:
        # c' = 0 (theta rational, lam a root of unity) bounds nothing away from 0
        return self.c_prime > 0 and not any(
            res[kind] for res in self.results.values()
            for kind in ("sector_violations", "complement_violations", "final_violations"))


def check_sector_lemma(theta0, r_values, k_max: int, N: float = 1.0) -> SectorReport:
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

    Each kind is counted, and its first k kept, block by block
    (_sector_masks), so the report's memory does not grow with k_max:
    fatou sector --r 0.999,1.001 --kmax 1000000 peaks at 32 MiB of RSS,
    about what importing fatou.cli takes.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    r_values = [float(r) for r in r_values]
    if not all(0.9 < r < 1.1 for r in r_values):
        raise ValueError("r values must lie in (0.9, 1.1)")
    c_prime = math.sqrt(2.0) / 2.0 * max_c(theta0, N, k_max)
    report = SectorReport(_theta_value(theta0), N, k_max, c_prime, {
        r: dict.fromkeys(_SECTOR_KINDS, 0) | {"first": dict.fromkeys(_SECTOR_KINDS)}
        for r in r_values})
    for ks, r, masks in _sector_masks(theta0, report.results, k_max, N, c_prime):
        res = report.results[r]
        for kind, mask in masks.items():
            count = int(np.count_nonzero(mask))
            if count and not res[kind]:
                res["first"][kind] = ks.start + int(mask.argmax())
            res[kind] += count
    return report


def _sector_masks(theta0, r_values, k_max: int, N: float, c_prime: float):
    """(ks, r, masks) per block ks of _dist_blocks and per r: masks maps each
    kind (_SECTOR_KINDS) to the bool array of its k in ks, the k of the loop
    over k and r.  r^k - 1 = expm1(k log r) is np.expm1's, relied on to lie
    within a relative 2^-42 of libm's math.expm1 (a probe of 8 10^5 x up to
    709 found 1 ulp at most).  v has no cancellation and moves no more, so
    where v and r^k lie a relative 2^-40 from every threshold -- sqrt(2)/2,
    the unit and final bounds, 1/2, 2, and sqrt(DBL_MAX), past which
    (r^k - 1)^2 and v are inf -- both take the same decisions; math.expm1
    redoes the other k.  k log r is capped below expm1's overflow (from
    k = 8237 at r = 1.09): v stays inf, a drift entry that breaks no bound.
    k^-N is np.power's; Python's k ** -N replaces it where v is not a
    relative 2^-40 above it or it is not below 2^1023 (** may raise
    OverflowError there, as in the loop over k).  np.sin matches math.sin.
    """
    half_sqrt2 = math.sqrt(2.0) / 2.0
    for ks, dist in _dist_blocks(theta0, k_max) if r_values else ():
        k = np.arange(ks.start, ks.stop, dtype=float)
        sin_half = np.sin(np.pi * dist)                  # |e^{i phi} - 1| / 2
        unit_bound = half_sqrt2 * (2.0 * sin_half)
        with np.errstate(over="ignore"):  # inf, as in Python floats
            powers = np.power(k, -N)
            final_bound = c_prime * powers
        in_sector = dist > 0.125
        for r in r_values:
            xs = np.minimum(k * math.log1p(r - 1.0), _LOG_R_K_CAP)
            rk_m1 = np.expm1(xs)
            rk, v = _rk_and_v(rk_m1, sin_half)
            near = ~((v > np.maximum(final_bound, 2.0**-1000) * (1.0 + 2.0**-40))
                     & (powers < 2.0**1023))
            final_bound[near] = c_prime * _powers((ks.start + np.flatnonzero(near)).tolist(), -N)
            redo = (_near(v, half_sqrt2) | _near(v, unit_bound) | _near(v, final_bound)
                    | _near(rk, 0.5) | _near(rk, 2.0) | _near(rk_m1, _SQRT_MAX))
            if redo.any():
                rk_m1[redo] = [math.expm1(x) for x in xs[redo].tolist()]
                rk, v = _rk_and_v(rk_m1, sin_half)
            below_unit = v < unit_bound
            yield ks, r, dict(zip(_SECTOR_KINDS, (
                in_sector & ~(v > half_sqrt2), ~in_sector & below_unit, in_sector & below_unit,
                v < final_bound, ~((0.5 <= rk) & (rk <= 2.0)))))


def _rk_and_v(rk_m1, sin_half):  # r^k and v = |lam^k - 1|, by the loop over k's operations
    rk = rk_m1 + 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in floats
        return rk, np.sqrt(rk_m1 * rk_m1 + 4.0 * rk * sin_half * sin_half)


def _near(a, b):  # where a lies within a relative 2^-40 of b >= 0
    return np.abs(a - b) <= b * 2.0**-40
