"""Linearization along an invariant curve direction: solve F(psi(w)) = psi(lambda w).

For a local map F(z) = (lambda z_1 + O(|z|^2), z_2 + O(|z|^2)) the curve
psi(w) = (w, 0) + sum_{n>=2} psi_n w^n is determined degree by degree:

    (lambda^n - lambda) psi_n^1 = [w^n] N^1(psi),
    (lambda^n - 1)      psi_n^2 = [w^n] N^2(psi),

where N = F - (linear part) and the right-hand side at degree n only uses
psi_1..psi_{n-1}.  The divisors lambda^n - lambda and lambda^n - 1 are the
small divisors; their control is what the Diophantine certificates buy.

The majorant machinery bounds ||psi_n|| by sigma_n (one recursion with the
divisors in place), and sigma_n <= eta_n delta_n splits the problem into a
divisor-free part eta (whose generating function solves a scalar implicit
equation with a computable radius 1/b) and a divisor-only part delta
(a max over compositions, computed by a pairwise dynamic program).  The
growth rate a of delta and the radius parameter b give the convergence
radius estimate rho = 1/(a b M).  sigma and eta come from one online
recursion in O(D^2) through sum_{nu>=2} (nu+1) s^nu = (1-s)^-2 - 1 - 2s;
a degree whose value is not finite in double precision raises
MajorantOverflowError naming the sequence and the degree.

Each degree-n step is computed at truncation order exactly n, so the
coefficients are bitwise independent of the requested total order D
(recomputing with larger D never changes the low coefficients).

Each (jet, lambda, D) solve is an independent pure computation; sweeps may
run their r-values in parallel.  The recursion itself is sequential in n.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Series1C2,
    Series2,
    SeriesError,
    series1_compose_map,
    series1_eval,
)
from .ddc import DDComplex
from .diophantine import check_siegel

__all__ = [
    "SmallDivisors",
    "LinearizationResult",
    "MajorantSplit",
    "MajorantOverflowError",
    "EtaRadius",
    "compute_small_divisors",
    "solve_psi",
    "residual",
    "majorant_sigma",
    "majorant_split",
    "delta_bruteforce",
    "eta_radius",
    "exponential_bound_check",
    "BoundCheck",
    "parameter_sweep",
    "SweepResult",
    "quadratic_test_family",
    "linear_family",
    "result_to_json",
]

DIVISOR_HARD_FLOOR = 1e-300
DD_ESCALATION_THRESHOLD = 1e-8


class SmallDivisorError(ArithmeticError):
    pass


class MajorantOverflowError(ArithmeticError):
    """A majorant coefficient is not finite in double precision."""


@dataclass
class SmallDivisors:
    """eps1[n] = lambda^n - lambda, eps2[n] = lambda^n - 1 for 2 <= n <= D.

    Arrays are indexed by n directly (entries 0 and 1 are unused zeros).
    Powers come from repeated multiplication, never exp(n log lambda), so
    consecutive entries satisfy eps1[n] = lambda * eps2[n-1] to the bit.
    """

    lam: complex
    order: int
    eps1: np.ndarray
    eps2: np.ndarray

    @property
    def eps_min(self) -> np.ndarray:
        e = np.minimum(np.abs(self.eps1), np.abs(self.eps2))
        e[:2] = np.inf
        return e

    def min_modulus(self) -> float:
        return float(self.eps_min[2:].min()) if self.order >= 2 else math.inf


def compute_small_divisors(lam: complex, D: int, mode: str = "double") -> SmallDivisors:
    """Small divisors up to degree D; errors out if one falls below 1e-300."""
    if D < 2:
        raise ValueError("D must be >= 2")
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if mode == "dd":
        lam_dd = DDComplex.of(lam)
        eps1 = np.zeros(D + 1, dtype=complex)
        eps2 = np.zeros(D + 1, dtype=complex)
        power = lam_dd
        for n in range(2, D + 1):
            power = power * lam_dd
            eps1[n] = complex(power - lam_dd)
            eps2[n] = complex(power - DDComplex.of(1.0))
    else:
        eps1 = np.zeros(D + 1, dtype=complex)
        eps2 = np.zeros(D + 1, dtype=complex)
        power = lam
        for n in range(2, D + 1):
            power = power * lam
            eps1[n] = power - lam
            eps2[n] = power - 1.0
    div = SmallDivisors(lam, D, eps1, eps2)
    if div.min_modulus() < DIVISOR_HARD_FLOOR:
        raise SmallDivisorError(
            "a small divisor fell below 1e-300; the rotation number is resonant "
            "to working precision -- use extended precision or another lambda"
        )
    return div


@dataclass
class LinearizationResult:
    lam: complex
    order: int
    psi: Series1C2            # normalized chart; psi_0 = (0,0), psi_1 = (1,0)
    divisors: SmallDivisors
    M: float                  # max nonlinear coefficient norm of the jet
    sigma: np.ndarray         # majorant sequence, indexed by degree
    residual: float           # sup of ||F(psi(w)) - psi(lambda w)|| on the test circle
    residual_radius: float
    rho_estimate: float       # 1/(a b M); a fitted from delta, b from eta's radius
    a_fitted: float
    b_radius: float
    precision_mode: str       # "double" | "double-double"
    majorant_ok: bool         # ||psi_n|| <= sigma_n for all computed n
    basis: np.ndarray | None  # eigenbasis used to reach the normal form, or None

    def psi_norms(self) -> np.ndarray:
        return self.psi.norms()


def _linear_part(F_jet) -> np.ndarray:
    P, Q = F_jet
    return np.array(
        [[P.get(1, 0), P.get(0, 1)], [Q.get(1, 0), Q.get(0, 1)]], dtype=complex
    )


def _normalize_jet(F_jet, lam: complex):
    """Conjugate the jet into the form (lambda z + O(2), w + O(2)) if needed."""
    L = _linear_part(F_jet)
    target = np.array([[lam, 0], [0, 1]], dtype=complex)
    if np.max(np.abs(L - target)) < 1e-12:
        return F_jet, None
    if abs(L[0, 0] - lam) < 1e-12 and abs(L[1, 1] - 1) < 1e-12 and abs(L[0, 1]) < 1e-12 \
            and abs(L[1, 0]) < 1e-12:
        return F_jet, None
    vals, vecs = np.linalg.eig(L)
    i_one = int(np.argmin(np.abs(vals - 1.0)))
    i_lam = 1 - i_one
    if abs(vals[i_one] - 1.0) > 1e-8 or abs(vals[i_lam] - lam) > 1e-8:
        raise SeriesError(
            f"jet linear part has eigenvalues {vals}, not {{lambda, 1}} with "
            f"lambda = {lam}"
        )
    V = np.column_stack([vecs[:, i_lam], vecs[:, i_one]])
    Vinv = np.linalg.inv(V)
    P, Q = F_jet
    P_v = P.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    Q_v = Q.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    new_P = P_v.scale(Vinv[0, 0]) + Q_v.scale(Vinv[0, 1])
    new_Q = P_v.scale(Vinv[1, 0]) + Q_v.scale(Vinv[1, 1])
    return (new_P, new_Q), V


def _nonlinear_part(F_jet, lam: complex):
    P, Q = F_jet
    N1 = P.copy()
    N2 = Q.copy()
    N1.coeffs = N1.coeffs.copy()
    N2.coeffs = N2.coeffs.copy()
    from .algebra import tri_index

    N1.coeffs[tri_index(1, 0)] -= lam
    N2.coeffs[tri_index(0, 1)] -= 1.0
    resid = max(
        abs(N1.get(0, 0)), abs(N2.get(0, 0)),
        abs(N1.get(1, 0)), abs(N1.get(0, 1)),
        abs(N2.get(1, 0)), abs(N2.get(0, 1)),
    )
    if resid > 1e-10:
        raise SeriesError("jet is not in the normal form (lambda z + O(2), w + O(2))")
    return N1, N2


def _jet_max_norm(F_jet, min_degree: int = 2) -> float:
    P, Q = F_jet
    best = 0.0
    for d in range(min_degree, P.order + 1):
        lp = P.layer(d)
        lq = Q.layer(d)
        for a, b in zip(lp, lq):
            best = max(best, abs(a), abs(b))
    return best


def solve_psi(F_jet, lam: complex, D: int, *, precision: str = "auto",
              residual_samples: int = 64) -> LinearizationResult:
    """Solve the conjugation equation to degree D.

    precision "auto" escalates to double-double when some small divisor has
    modulus below 1e-8; "double" and "dd" force the mode.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    lam = complex(lam)
    F_jet, basis = _normalize_jet(F_jet, lam)
    divisors = compute_small_divisors(lam, D)
    mode = precision
    if precision == "auto":
        mode = "dd" if divisors.min_modulus() < DD_ESCALATION_THRESHOLD else "double"
    if mode not in ("double", "dd"):
        raise ValueError("precision must be 'auto', 'double' or 'dd'")

    N_pair = _nonlinear_part(F_jet, lam)
    M = _jet_max_norm(F_jet)
    sigma = majorant_sigma(M, divisors, D)  # raises before the costly solve

    if mode == "dd":
        psi = _solve_recursion_dd(N_pair, lam, D)
    else:
        psi = _solve_recursion(N_pair, divisors, D)

    norms = psi.norms().astype(float)
    majorant_ok = bool(np.all(norms[2:] <= sigma[2:] * (1 + 1e-9) + 1e-300))

    a_fit = _fit_growth(_delta_sequence(divisors.eps_min, D))
    if M > 0:
        b = eta_radius(M).b
        rho = 1.0 / (a_fit * b * M)
    else:
        b = math.inf
        rho = math.inf
    r_test = rho / 2 if math.isfinite(rho) else 1.0
    res = residual(psi, F_jet, lam, r_test, residual_samples)
    return LinearizationResult(
        lam, D, psi, divisors, M, sigma, res, r_test, rho, a_fit, b,
        "double-double" if mode == "dd" else "double", majorant_ok, basis,
    )


def _solve_recursion(N_pair, divisors: SmallDivisors, D: int) -> Series1C2:
    psi = Series1C2.zero(D)
    psi.coeffs[1, 0] = 1.0
    for n in range(2, D + 1):
        # composing at truncation order exactly n makes the degree-n
        # coefficient independent of D (bitwise triangular determinism)
        F_n = (N_pair[0].truncate(min(n, N_pair[0].order)).pad(n)
               if N_pair[0].order < n else N_pair[0].truncate(n))
        G_n = (N_pair[1].truncate(min(n, N_pair[1].order)).pad(n)
               if N_pair[1].order < n else N_pair[1].truncate(n))
        partial = Series1C2(n, psi.coeffs[: n + 1].copy(), _validate=False)
        rhs = series1_compose_map((F_n, G_n), partial, order=n)
        psi.coeffs[n, 0] = rhs.coeffs[n, 0] / divisors.eps1[n]
        psi.coeffs[n, 1] = rhs.coeffs[n, 1] / divisors.eps2[n]
    return psi


def _solve_recursion_dd(N_pair, lam: complex, D: int) -> Series1C2:
    lam_dd = DDComplex.of(lam)
    one = DDComplex.of(1.0)
    powers = [None, lam_dd]
    for n in range(2, D + 1):
        powers.append(powers[-1] * lam_dd)
    Nd = (N_pair[0].to_dd(), N_pair[1].to_dd())
    psi = Series1C2.zero(D, mode="dd")
    psi.coeffs[1, 0] = DDComplex.of(1.0)
    for n in range(2, D + 1):
        F_n = (Nd[0].truncate(min(n, Nd[0].order)).pad(n)
               if Nd[0].order < n else Nd[0].truncate(n))
        G_n = (Nd[1].truncate(min(n, Nd[1].order)).pad(n)
               if Nd[1].order < n else Nd[1].truncate(n))
        partial = Series1C2(n, psi.coeffs[: n + 1].copy(), _validate=False)
        rhs = series1_compose_map((F_n, G_n), partial, order=n)
        psi.coeffs[n, 0] = rhs.coeffs[n, 0] / (powers[n] - lam_dd)
        psi.coeffs[n, 1] = rhs.coeffs[n, 1] / (powers[n] - one)
    out = psi.to_complex()
    return out


def residual(psi: Series1C2, F_jet, lam: complex, radius: float,
             samples: int = 64) -> float:
    """max over |w| = radius of ||F(psi(w)) - psi(lambda w)|| (max norm).

    F is evaluated through its jet, so the number reflects truncation plus
    rounding only and decays like radius^(D+1) as the radius shrinks.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    P, Q = F_jet
    p = psi.to_complex()
    worst = 0.0
    for j in range(samples):
        w = radius * cmath.exp(2j * math.pi * j / samples)
        x, y = series1_eval(p, w)
        lhs = (P.eval(x, y), Q.eval(x, y))
        rhs = series1_eval(p, lam * w)
        worst = max(worst, abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
    return worst


# -- majorants ---------------------------------------------------------------


def _majorant_recursion(M: float, eps: np.ndarray, D: int, name: str) -> np.ndarray:
    """s_1 = 1 and s_n = (M / eps_n) [w^n] sum_{nu>=2} (nu+1) s(w)^nu.

    With g = 1/(1 - s) the sum is g^2 - 1 - 2s, whose degree-n coefficient
    2 h_n + sum_{k=1}^{n-1} g_k g_{n-k} does not involve s_n, where
    h_n = sum_{k=1}^{n-1} s_k g_{n-k} and g_n = h_n + s_n.  Two dot products
    per degree, O(D^2) in all.  Raises MajorantOverflowError, naming the
    sequence and n, at the first degree whose value is not finite.
    """
    s = np.zeros(D + 1)
    g = np.zeros(D + 1)
    s[1] = g[1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, typed
        for n in range(2, D + 1):
            g_rev = g[n - 1:0:-1]  # g_{n-1}, ..., g_1
            h = float(np.dot(s[1:n], g_rev))
            s[n] = M / eps[n] * (2.0 * h + float(np.dot(g[1:n], g_rev)))
            if not math.isfinite(s[n]):
                raise MajorantOverflowError(
                    f"majorant {name}_n is not finite at degree n = {n} "
                    f"(M = {M:g}); lower the order below {n}"
                )
            g[n] = h + s[n]
    return s


def majorant_sigma(M: float, divisors: SmallDivisors, D: int) -> np.ndarray:
    """The majorant recursion with the divisors in place: sigma_1 = 1 and

    sigma_n = (M / eps_n) * [w^n] sum_{nu>=2} (nu+1) (sum sigma_k w^k)^nu.

    Raises MajorantOverflowError at the first degree where sigma_n
    overflows (n = 242 for golden lambda and M = 1).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if D > divisors.order:
        raise ValueError("divisors computed to a smaller order than D")
    return _majorant_recursion(M, divisors.eps_min, D, "sigma")


def _delta_sequence(eps_min: np.ndarray, D: int) -> np.ndarray:
    """delta by the pairwise dynamic program.

    The recursion takes the max of products of delta over all compositions;
    a straight binary split delta_j delta_{k-j} undercounts when divisors
    exceed 1 (a ternary block like 1+1+1 beats its binary bracketings), so
    the program carries m_k = best product over compositions of any length,
    with m_k = max(delta_k, eps_k delta_k).  Brute-force enumeration agrees
    for all k <= 12 (see tests).
    """
    delta = np.zeros(D + 1)
    m = np.zeros(D + 1)
    delta[1] = 1.0
    m[1] = 1.0
    for k in range(2, D + 1):
        best = 0.0
        for j in range(1, k // 2 + 1):
            best = max(best, m[j] * m[k - j])
        delta[k] = best / eps_min[k]
        m[k] = max(delta[k], best)
    return delta


def delta_bruteforce(eps_min, k: int) -> float:
    """Literal max over all compositions, for oracle validation (small k)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def delta(n: int) -> float:
        if n == 1:
            return 1.0
        best = 0.0
        for comp in _compositions(n):
            if len(comp) < 2:
                continue
            prod = 1.0
            for part in comp:
                prod *= delta(part)
            best = max(best, prod)
        return best / eps_min[n]

    return delta(k)


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@dataclass
class MajorantSplit:
    M: float
    eta: np.ndarray
    delta: np.ndarray
    b: float        # eta_n <= C b^n, from the generating function's radius
    a: float        # fitted growth constant of delta_n
    sigma: np.ndarray
    split_ok: bool  # sigma_n <= eta_n delta_n for all computed n


def majorant_split(M: float, theta0, c: float, N: float, D: int) -> MajorantSplit:
    """Split the majorant into the divisor-free eta and divisor-only delta.

    (c, N) must be a valid Diophantine certificate for theta0 up to D; the
    divisors used are those of lambda_0 = e^{2 pi i theta0}.
    """
    cert = check_siegel(theta0, c, N, max(D, 2))
    if not cert.ok:
        raise ValueError(
            f"(c={c}, N={N}) is not a valid certificate for theta0 up to {D}: "
            f"first violation at k = {cert.violations[0][0]}"
        )
    from .diophantine import _theta_value

    lam0 = cmath.exp(2j * math.pi * _theta_value(theta0))
    divisors = compute_small_divisors(lam0, max(D, 2))
    sigma = majorant_sigma(M, divisors, D)
    eta = _majorant_recursion(M, np.ones(D + 1), D, "eta")
    delta = _delta_sequence(divisors.eps_min, D)
    ok = bool(np.all(sigma[2:] <= eta[2:] * delta[2:] * (1 + 1e-9) + 1e-300))
    b = eta_radius(M).b if M > 0 else 0.0
    a = _fit_growth(delta)
    return MajorantSplit(M, eta, delta, b, a, sigma, ok)


def _fit_growth(seq: np.ndarray) -> float:
    """exp(slope) of a least-squares line through log seq_n (positive entries)."""
    ns = np.array([n for n in range(1, len(seq)) if seq[n] > 0], dtype=float)
    if len(ns) < 2:
        return 1.0
    logs = np.log(np.array([seq[int(n)] for n in ns]))
    slope = np.polyfit(ns, logs, 1)[0]
    return float(np.exp(slope))


@dataclass
class EtaRadius:
    M: float
    eta_star: float   # fold point of the generating equation
    w_star: float     # radius of convergence of eta(w)
    b: float          # 1/w_star

    def eta_fn(self, x: float) -> float:
        """eta(x) for real 0 <= x <= w_star, by bracketed bisection."""
        if x < 0 or x > self.w_star:
            raise ValueError("x outside [0, w_star]")
        f = lambda e: _eta_implicit(e, self.M) - x
        lo, hi = 0.0, self.eta_star
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _eta_implicit(e: float, M: float) -> float:
    # w as a function of eta from eta - w = M(1/(1-eta)^2 - 1 - 2 eta)
    return e - M * (1.0 / (1.0 - e) ** 2 - 1.0 - 2.0 * e)


def eta_radius(M: float, check_terms: int = 0) -> EtaRadius:
    """Radius of the eta generating function by locating the fold.

    w(eta) = eta - M(1/(1-eta)^2 - 1 - 2 eta) increases from 0, folds where
    w'(eta) = 0, and eta(w) is analytic for |w| < w* = w(eta*).  Bisection
    on the derivative locates eta*.  With check_terms > 0, the recursion's
    eta_n are verified against C b^n (C fitted on the first 50 terms).
    """
    if M <= 0:
        raise ValueError("M must be > 0")
    dw = lambda e: 1.0 - M * (2.0 / (1.0 - e) ** 3 - 2.0)
    lo, hi = 0.0, 1.0 - 1e-15
    if dw(lo) <= 0:
        raise ValueError("degenerate fold at eta = 0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dw(mid) > 0:
            lo = mid
        else:
            hi = mid
    eta_star = 0.5 * (lo + hi)
    w_star = _eta_implicit(eta_star, M)
    out = EtaRadius(M, eta_star, w_star, 1.0 / w_star)
    if check_terms:
        eta = _majorant_recursion(M, np.ones(check_terms + 1), check_terms, "eta")
        fit_n = min(50, check_terms)
        C = max(eta[n] / out.b**n for n in range(1, fit_n + 1))
        for n in range(1, check_terms + 1):
            if eta[n] > C * out.b**n * (1 + 1e-9):
                raise ArithmeticError(
                    f"eta recursion violates the C b^n bound at n = {n}"
                )
    return out


@dataclass
class BoundCheck:
    C: float
    rate: float
    bound: float   # a * b * M
    ok: bool


def exponential_bound_check(result: LinearizationResult, split: MajorantSplit,
                            tolerance: float = 0.10) -> BoundCheck:
    """Fit ||psi_n|| <= C rate^n and compare rate against a*b*M."""
    norms = result.psi_norms().astype(float)
    rate = _fit_growth(norms)
    nz = [n for n in range(2, len(norms)) if norms[n] > 0]
    if not nz:
        return BoundCheck(0.0, 0.0, split.a * split.b * split.M, True)
    C = max(norms[n] / rate**n for n in nz) if rate > 0 else 0.0
    bound = split.a * split.b * split.M
    return BoundCheck(C, rate, bound, bool(rate <= bound * (1 + tolerance)))


# -- parameter sweep -----------------------------------------------------------


@dataclass
class SweepResult:
    r_values: list
    results: dict            # r -> LinearizationResult (or exception string)
    d_psi_dr: dict           # interior r -> (order+1, 2) array of FD derivatives
    smoothness_ok: bool
    smoothness_ratios: dict  # n -> ratio used in the first-order test
    failures: dict


def parameter_sweep(F_family, theta0, r_values, D: int, *,
                    fd_smoothness: bool = True) -> SweepResult:
    """Solve the family over r, differentiate in r, and run the step-halving test.

    F_family maps lambda to a jet pair.  Each r must pass the off-circle sector
    style final conclusion (checked through the certificate machinery by the
    caller when wanted; here the recursion itself reports divisor failures
    per r and the sweep continues).

    The smoothness check takes one-sided differences at steps h, h/2, h/4
    around the middle r; a C^1 family with nonvanishing curvature shrinks
    the difference-of-differences by a factor 2 per halving, so the ratio
    test accepts [1.8, 2.2].  Coefficients with no measurable curvature are
    vacuously smooth and are skipped.
    """
    from .diophantine import _theta_value

    th = _theta_value(theta0)
    r_values = [float(r) for r in r_values]
    if sorted(r_values) != r_values:
        raise ValueError("r_values must be sorted")
    results = {}
    failures = {}

    def solve_at(r: float) -> LinearizationResult:
        lam = r * cmath.exp(2j * math.pi * th)
        return solve_psi(F_family(lam), lam, D)

    for r in r_values:
        try:
            results[r] = solve_at(r)
        except (SmallDivisorError, SeriesError, ArithmeticError) as exc:
            failures[r] = str(exc)

    d_psi_dr = {}
    for i in range(1, len(r_values) - 1):
        r_lo, r_mid, r_hi = r_values[i - 1], r_values[i], r_values[i + 1]
        if r_lo in failures or r_hi in failures:
            continue
        d_psi_dr[r_mid] = (results[r_hi].psi.coeffs - results[r_lo].psi.coeffs) / (
            r_hi - r_lo
        )

    smoothness_ok = True
    ratios = {}
    if fd_smoothness and len(r_values) >= 2:
        mid = r_values[len(r_values) // 2]
        if mid in results:
            h = (r_values[-1] - r_values[0]) / 4.0
            base = results[mid].psi.coeffs
            diffs = []
            for step in (h, h / 2, h / 4):
                plus = solve_at(mid + step)
                diffs.append((plus.psi.coeffs - base) / step)
            first = diffs[0] - diffs[1]
            second = diffs[1] - diffs[2]
            n_check = max(2, results[mid].order // 2)
            scale = np.maximum(1.0, np.max(np.abs(base), axis=1))
            for n in range(2, n_check + 1):
                den = np.max(np.abs(second[n]))
                if den < 1e-9 * scale[n]:
                    continue  # no curvature to resolve at this coefficient
                ratio = float(np.max(np.abs(first[n])) / den)
                ratios[n] = ratio
                if not 1.8 <= ratio <= 2.2:
                    smoothness_ok = False
    return SweepResult(r_values, results, d_psi_dr, smoothness_ok, ratios, failures)


# -- canonical test families ---------------------------------------------------


def quadratic_test_family(lam: complex, order: int = 2):
    """F(z, w) = (lambda z + w^2, w + z^2): the smallest family exercising
    both components of the recursion, with unit coefficient bound."""
    P = Series2.zero(order)
    Q = Series2.zero(order)
    from .algebra import tri_index

    P.coeffs[tri_index(1, 0)] = lam
    P.coeffs[tri_index(0, 2)] = 1.0
    Q.coeffs[tri_index(0, 1)] = 1.0
    Q.coeffs[tri_index(2, 0)] = 1.0
    return (P, Q)


def linear_family(lam: complex, order: int = 2):
    """F(z, w) = (lambda z, w)."""
    P = Series2.zero(order)
    Q = Series2.zero(order)
    from .algebra import tri_index

    P.coeffs[tri_index(1, 0)] = lam
    Q.coeffs[tri_index(0, 1)] = 1.0
    return (P, Q)


# -- serialization ---------------------------------------------------------------


def result_to_json(result: LinearizationResult, split: MajorantSplit | None = None) -> str:
    from .algebra import series1_to_json

    psi_obj = json.loads(series1_to_json(result.psi))
    obj = {
        "lambda": [result.lam.real, result.lam.imag],
        "D": result.order,
        "psi_coeffs": psi_obj["coeffs"],
        "sigma": [float(s) for s in result.sigma],
        "eta": None if split is None else [float(x) for x in split.eta],
        "delta": None if split is None else [float(x) for x in split.delta],
        "residual": result.residual,
        "residual_radius": result.residual_radius,
        "rho_estimate": result.rho_estimate,
        "precision_mode": result.precision_mode,
        "majorant_ok": result.majorant_ok,
        "M": result.M,
    }
    return json.dumps(obj)
