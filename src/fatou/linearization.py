"""Linearization along an invariant curve direction: solve F(psi(w)) = psi(lambda w).

For a local map F(z) = (lambda z_1 + O(|z|^2), z_2 + O(|z|^2)) the curve
psi(w) = (w, 0) + sum_{n>=2} psi_n w^n is determined degree by degree:

    (lambda^n - lambda) psi_n^1 = [w^n] N^1(psi),
    (lambda^n - 1)      psi_n^2 = [w^n] N^2(psi),

where N = F - (linear part) and the right-hand side at degree n only uses
psi_1..psi_{n-1}.  The divisors lambda^n - lambda and lambda^n - 1 are the
small divisors; their control is what the Diophantine certificates buy.

The right-hand side comes from a table of the powers (psi^1)^i (psi^2)^j,
i + j <= K (the jet order), each extended by one coefficient per degree
with one dot product against the power it extends (online, or relaxed,
multiplication; van der Hoeven, "Relax, but don't be too lazy", JSC 2002).
That is O(K^2 D^2) in all, in complex128.  Near resonance the loss is in
the divisors: below 1e-8 they are formed in double-double and rounded once
(fatou.ddc), which keeps each psi_n within a few ulps normwise.

The majorant machinery bounds ||psi_n|| by sigma_n (one recursion with the
divisors in place), and sigma_n <= eta_n delta_n splits the problem into a
divisor-free part eta (whose generating function solves a scalar implicit
equation with a computable radius 1/b) and a divisor-only part delta
(a max over compositions, computed by a pairwise dynamic program).  The
growth rate a of delta and the radius parameter b give the convergence
radius estimate rho = 1/(a b M); solve_psi and majorant_split take delta,
a and b from one helper.  sigma and eta come from one online recursion in
O(D^2) through sum_{nu>=2} (nu+1) s^nu = (1-s)^-2 - 1 - 2s; a degree
whose sigma, eta or delta is not finite in double precision raises
MajorantOverflowError naming the sequence and the degree (for golden
lambda and M = 1, sigma at n = 242 and eta at n = 270).

Every operation that produces psi_n depends on n alone, not on the
requested total order D, so the coefficients are bitwise independent of D
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

from .algebra import Series1C2, Series2, SeriesError, series1_eval, tri_index
from . import ddc
from .diophantine import _theta_value, check_siegel

__all__ = [
    "SmallDivisors",
    "SmallDivisorError",
    "LinearizationResult",
    "MajorantSplit",
    "MajorantOverflowError",
    "EtaRadius",
    "compute_small_divisors",
    "solve_psi",
    "residual",
    "majorant_sigma",
    "majorant_split",
    "eta_radius",
    "parameter_sweep",
    "SweepResult",
    "quadratic_test_family",
    "linear_family",
    "result_to_json",
]

DIVISOR_HARD_FLOOR = 1e-300
DD_ESCALATION_THRESHOLD = 1e-8


class SmallDivisorError(ArithmeticError):
    """A small divisor fell below 1e-300: lambda is resonant to working precision."""


class MajorantOverflowError(ArithmeticError):
    """A majorant coefficient is not finite in double precision."""


@dataclass
class SmallDivisors:
    """eps1[n] = lambda^n - lambda, eps2[n] = lambda^n - 1 for 2 <= n <= D.

    Arrays are indexed by n directly (entries 0 and 1 are unused zeros).
    Powers come from repeated multiplication, never exp(n log lambda), so
    eps1[n] = lambda * eps2[n-1] to the bit (to rounding for fatou.ddc's).
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


def compute_small_divisors(lam: complex, D: int) -> SmallDivisors:
    """Small divisors up to degree D; errors out if one falls below 1e-300."""
    if D < 2:
        raise ValueError("D must be >= 2")
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
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
    b_radius: float           # 1/w* of eta, 0 when M = 0
    precision_mode: str       # divisors formed in "double" | "double-double"
    majorant_ok: bool         # ||psi_n|| <= sigma_n for all computed n
    basis: np.ndarray | None  # eigenbasis used to reach the normal form, or None

    def psi_norms(self) -> np.ndarray:
        return self.psi.norms()


def _normalize_jet(F_jet, lam: complex):
    """Conjugate the jet into the form (lambda z + O(2), w + O(2)) if needed."""
    P, Q = F_jet
    L = np.array([[P.get(1, 0), P.get(0, 1)], [Q.get(1, 0), Q.get(0, 1)]], dtype=complex)
    target = np.array([[lam, 0], [0, 1]], dtype=complex)
    if np.max(np.abs(L - target)) < 1e-12:
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
    P_v = P.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    Q_v = Q.compose_linear(V[0, 0], V[0, 1], V[1, 0], V[1, 1])
    new_P = P_v.scale(Vinv[0, 0]) + Q_v.scale(Vinv[0, 1])
    new_Q = P_v.scale(Vinv[1, 0]) + Q_v.scale(Vinv[1, 1])
    return (new_P, new_Q), V


def _nonlinear_part(F_jet, lam: complex):
    P, Q = F_jet
    N1 = P.copy()
    N2 = Q.copy()
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


def _jet_max_norm(F_jet) -> float:
    """max |coefficient| of degree >= 2 over both components (hypot has the
    bits of a scalar abs(); np.abs on a complex array may not)."""
    P, Q = F_jet
    c = np.concatenate([P.coeffs[3:], Q.coeffs[3:]])
    return float(np.max(np.hypot(c.real, c.imag), initial=0.0))


def _divisors(lam: complex, D: int, precision: str):
    """The divisors and their mode: fatou.ddc's for "dd", and for "auto" when
    a plain divisor is below 1e-8, else the plain ones."""
    divisors = compute_small_divisors(lam, D)
    if precision == "auto":
        precision = "dd" if divisors.min_modulus() < DD_ESCALATION_THRESHOLD else "double"
    if precision not in ("double", "dd"):
        raise ValueError("precision must be 'auto', 'double' or 'dd'")
    if precision == "dd":
        divisors = SmallDivisors(lam, D, *ddc.small_divisors(lam, D))
    return divisors, precision


def _prepare(F_jet, lam, D: int, precision: str):
    """lambda as complex, the normal form and its basis, the divisors, their
    mode and the nonlinear part N = F - linear part."""
    lam = complex(lam)
    divisors, mode = _divisors(lam, D, precision)  # raises first for D < 2
    F_jet, basis = _normalize_jet(F_jet, lam)
    return lam, F_jet, basis, divisors, mode, _nonlinear_part(F_jet, lam)


def solve_psi(F_jet, lam: complex, D: int, *,
              precision: str = "auto") -> LinearizationResult:
    """Solve the conjugation equation to degree D.

    psi_n comes from the degree-n coefficients of N(psi), which involve
    psi_1..psi_{n-1} only, divided by lambda^n - lambda and lambda^n - 1.
    precision decides the divisors only: "auto" forms them in double-double
    when some plain one has modulus below 1e-8, and "double" and "dd" force
    the mode; sigma and delta read the same divisors.  Besides psi it
    computes sigma, then delta's growth fit and eta's radius (all before
    psi, so that an overflow of sigma or delta raises first), and the
    residual; _solve_psi_only skips these and returns the same psi.
    """
    lam, F_jet, basis, divisors, mode, N_pair = _prepare(F_jet, lam, D, precision)
    M = _jet_max_norm(F_jet)
    sigma = majorant_sigma(M, divisors, D)
    _, a_fit, b = _delta_growth(M, divisors, D)

    psi = _solve_recursion(N_pair, divisors, D)

    norms = psi.norms().astype(float)
    majorant_ok = bool(np.all(norms[2:] <= sigma[2:] * (1 + 1e-9) + 1e-300))

    rho = 1.0 / (a_fit * b * M) if M > 0 else math.inf
    r_test = rho / 2 if math.isfinite(rho) else 1.0
    res = residual(psi, F_jet, lam, r_test)
    return LinearizationResult(
        lam, D, psi, divisors, M, sigma, res, r_test, rho, a_fit, b,
        "double-double" if mode == "dd" else "double", majorant_ok, basis,
    )


def _solve_psi_only(F_jet, lam: complex, D: int) -> Series1C2:
    """psi of solve_psi(F_jet, lam, D), bit for bit, without its majorants,
    growth fits and residual: the normal form, the divisors and the same
    1e-8 precision decision, then the recursion."""
    _, _, _, divisors, _, N_pair = _prepare(F_jet, lam, D, "auto")
    return _solve_recursion(N_pair, divisors, D)


def _solve_recursion(N_pair, divisors: SmallDivisors, D: int) -> Series1C2:
    """psi to degree D in complex128, dividing by the given divisors.

    Row r of T holds the coefficients of the monomial mono[r] in psi, in
    graded order, so rows 0 and 1 are psi^1 and psi^2.  A row of degree
    >= 2 is psi^1 or psi^2 (base) times a row one degree lower (prev).  As
    psi_0 = 0, its degree-n entry needs base to degree n-1 and prev to
    degree n-1 only, so all of them are known before psi_n is solved for.
    """
    K = max(2, N_pair[0].order, N_pair[1].order)  # K >= 2: no empty index arrays
    mono = [(d - j, j) for d in range(1, K + 1) for j in range(d + 1)]
    row = {m: r for r, m in enumerate(mono)}
    hi = np.arange(2, len(mono))
    base = np.array([0 if i else 1 for i, j in mono[2:]])
    prev = np.array([row[(i - 1, j) if i else (i, j - 1)] for i, j in mono[2:]])
    coef = np.array([[N.get(i, j) if i + j <= N.order else 0.0 for i, j in mono[2:]]
                     for N in N_pair], dtype=complex)
    T = np.zeros((len(mono), D + 1), dtype=complex)
    T[0, 1] = 1.0
    for n in range(2, D + 1):
        T[hi, n] = (T[base, 1:n] * T[prev, n - 1:0:-1]).sum(axis=1)
        rhs = (coef * T[hi, n]).sum(axis=1)
        T[:2, n] = rhs / np.array([divisors.eps1[n], divisors.eps2[n]])
    return Series1C2(D, T[:2].T.copy(order="K"))


def residual(psi: Series1C2, F_jet, lam: complex, radius: float,
             samples: int = 64) -> float:
    """max over |w| = radius of ||F(psi(w)) - psi(lambda w)|| (max norm).

    F is evaluated through its jet, so the number reflects truncation plus
    rounding only and decays like radius^(D+1) as the radius shrinks.
    The sample points w_j = radius e^{2 pi i j / samples} and lambda w_j
    are formed in Python complex arithmetic; psi runs once over all 2 *
    samples of them, and the jet once over psi(w_j), as arrays.
    series1_eval and Series2.eval give every point the bits of a one-point
    call, so the result equals that of the loop over the points bit for
    bit.  A gap that is not finite (psi or the jet overflowed at this
    radius) makes the residual inf.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    P, Q = F_jet
    ws = [radius * cmath.exp(2j * math.pi * j / samples) for j in range(samples)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf below
        u, v = series1_eval(psi, np.array(ws + [lam * w for w in ws]))
        x, y = u[:samples], v[:samples]
        gaps = (P.eval(x, y) - u[samples:], Q.eval(x, y) - v[samples:])
    # Python's abs and max, as the per-point loop took them (hypot); max
    # would skip a NaN gap, so any gap that is not finite reads inf
    mags = [abs(g) for gap in gaps for g in gap.tolist()]
    return max(0.0, *mags) if all(map(math.isfinite, mags)) else math.inf


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
    for all k <= 12 (see tests).  The max over the pairs m_j m_{k-j},
    j <= k/2, is one array product and max per k: the products are those
    of the pairwise loop and a max is exact, so delta has its bits.
    """
    delta = np.zeros(D + 1)
    m = np.zeros(D + 1)
    delta[1] = 1.0
    m[1] = 1.0
    for k in range(2, D + 1):
        h = k // 2
        best = (m[1:h + 1] * m[k - 1:k - h - 1:-1]).max()
        delta[k] = best / eps_min[k]
        m[k] = max(delta[k], best)
    return delta


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
    divisors of lambda_0 = e^{2 pi i theta0} follow solve_psi's "auto" rule.
    Raises MajorantOverflowError at the first degree where sigma, eta or
    delta is not finite, in that order (delta from n = 56 at 1/3 + 1e-10).
    """
    cert = check_siegel(theta0, c, N, max(D, 2))
    if not cert.ok:
        raise ValueError(
            f"(c={c}, N={N}) is not a valid certificate for theta0 up to {D}: "
            f"first violation at k = {cert.violations[0][0]}"
        )
    lam0 = cmath.exp(2j * math.pi * _theta_value(theta0))
    divisors, _ = _divisors(lam0, max(D, 2), "auto")
    sigma = majorant_sigma(M, divisors, D)
    eta = _majorant_recursion(M, np.ones(D + 1), D, "eta")
    delta, a, b = _delta_growth(M, divisors, D)
    # sigma/eta against delta: eta delta overflows (from n = 218 at M = 1)
    # while each factor is finite; eta_n = 0 only with sigma_n = 0 (M = 0)
    ok = bool(np.all(sigma[2:] / np.maximum(eta[2:], 1e-300) <= delta[2:] * (1 + 1e-9)))
    return MajorantSplit(M, eta, delta, b, a, sigma, ok)


def _delta_growth(M: float, divisors: SmallDivisors, D: int):
    """delta to degree D, its fitted growth a and eta's radius b = 1/w*, or
    b = 0 when M = 0 (eta(w) = w is entire).  Raises MajorantOverflowError
    at the first degree where delta is not finite (n = 56 at 1/3 + 1e-10)."""
    with np.errstate(over="ignore", divide="ignore"):  # reported below, typed
        delta = _delta_sequence(divisors.eps_min, D)
    bad = np.flatnonzero(~np.isfinite(delta))
    if bad.size:
        raise MajorantOverflowError(f"majorant delta_n is not finite at degree n = "
                                    f"{bad[0]}; lower the order below {bad[0]}")
    return delta, _fit_growth(delta), eta_radius(M).b if M > 0 else 0.0


def _fit_growth(seq: np.ndarray) -> float:
    """exp(slope) of a least-squares line through log seq_n (positive entries)."""
    idx = np.flatnonzero(seq[1:] > 0) + 1
    if len(idx) < 2:
        return 1.0
    slope = np.polyfit(idx.astype(float), np.log(seq[idx]), 1)[0]
    return float(np.exp(slope))


@dataclass
class EtaRadius:
    M: float
    eta_star: float   # fold point of the generating equation
    w_star: float     # radius of convergence of eta(w)
    b: float          # 1/w_star


def _bisect(f, lo: float, hi: float) -> float:
    """Midpoint after 200 halvings of [lo, hi], lo moving while f(mid) > 0."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _eta_implicit(e: float, M: float) -> float:
    # w as a function of eta from eta - w = M(1/(1-eta)^2 - 1 - 2 eta)
    return e - M * (1.0 / (1.0 - e) ** 2 - 1.0 - 2.0 * e)


def eta_radius(M: float) -> EtaRadius:
    """Radius of the eta generating function by locating the fold.

    w(eta) = eta - M(1/(1-eta)^2 - 1 - 2 eta) increases from 0, folds where
    w'(eta) = 0, and eta(w) is analytic for |w| < w* = w(eta*).  Bisection
    on the derivative locates eta*.
    """
    if M <= 0:
        raise ValueError("M must be > 0")
    dw = lambda e: 1.0 - M * (2.0 / (1.0 - e) ** 3 - 2.0)
    if dw(0.0) <= 0:
        raise ValueError("degenerate fold at eta = 0")
    eta_star = _bisect(dw, 0.0, 1.0 - 1e-15)
    w_star = _eta_implicit(eta_star, M)
    return EtaRadius(M, eta_star, w_star, 1.0 / w_star)


# -- parameter sweep -----------------------------------------------------------


@dataclass
class SweepResult:
    r_values: list
    results: dict            # r -> LinearizationResult (or exception string)
    d_psi_dr: dict           # interior r -> (order+1, 2) array of FD derivatives
    smoothness_ok: bool | None   # None: the step-halving test did not run
    smoothness_ratios: dict  # n -> ratio used in the first-order test
    failures: dict


def parameter_sweep(F_family, theta0, r_values, D: int) -> SweepResult:
    """Solve the family over r, differentiate in r, and run the step-halving test.

    F_family maps lambda to a jet pair.  Each r must pass the off-circle sector
    style final conclusion (checked through the certificate machinery by the
    caller when wanted; here the recursion itself reports divisor failures
    per r and the sweep continues).  Each r must be finite and > 0: at
    r < 0, lambda = r e^{2 pi i theta0} has rotation number theta0 + 1/2.

    The smoothness check takes one-sided differences at steps h, h/2, h/4
    around the middle r; a C^1 family with nonvanishing curvature shrinks
    the difference-of-differences by a factor 2 per halving, so the ratio
    test accepts [1.8, 2.2].  Coefficients with no measurable curvature are
    vacuously smooth and are skipped.  With one r value, or when the middle
    r failed, the test does not run and smoothness_ok is None.  The test
    reads only psi at mid + h, h/2, h/4, so those three r take the psi-only
    solve: no majorant, fit or residual is computed there, and a sigma
    that overflows at one of them (from n = 242 at r = 1) no longer stops
    the sweep.
    """
    th = _theta_value(theta0)
    r_values = [float(r) for r in r_values]
    if not all(a < b for a, b in zip(r_values, r_values[1:])):
        raise ValueError("r_values must be strictly increasing")
    for r in r_values:
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"r must be finite and > 0, got {r!r}")
    results = {}
    failures = {}

    unit = cmath.exp(2j * math.pi * th)
    for r in r_values:
        try:
            results[r] = solve_psi(F_family(r * unit), r * unit, D)
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

    smoothness_ok = None
    ratios = {}
    if len(r_values) >= 2:
        mid = r_values[len(r_values) // 2]
        if mid in results:
            smoothness_ok = True
            h = (r_values[-1] - r_values[0]) / 4.0
            base = results[mid].psi.coeffs
            diffs = []
            for step in (h, h / 2, h / 4):
                lam = (mid + step) * unit
                diffs.append((_solve_psi_only(F_family(lam), lam, D).coeffs - base) / step)
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
    P.coeffs[tri_index(1, 0)] = lam
    P.coeffs[tri_index(0, 2)] = 1.0
    Q.coeffs[tri_index(0, 1)] = 1.0
    Q.coeffs[tri_index(2, 0)] = 1.0
    return (P, Q)


def linear_family(lam: complex, order: int = 2):
    """F(z, w) = (lambda z, w)."""
    P = Series2.zero(order)
    Q = Series2.zero(order)
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
