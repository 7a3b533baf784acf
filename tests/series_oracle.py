"""The certificate loops and majorant recursions as first written.

``max_c_detail`` and ``check_siegel`` test every k in [1, k_max];
``fatou.diophantine`` evaluates only k = 1 and the convergent denominators
and must return equal results.  ``dist_recurrence`` is the exact
recurrence that once gave the loops over every k their ||k theta||; the
library's double-double blocks must return equal bits.  ``majorant`` is the O(D^4) recursion that
expands sum_{nu>=2} (nu+1) s^nu power by power; ``fatou.linearization``
runs one online O(D^2) recursion, whose summation order differs, and must
agree within 1e-13 relative.  ``solve_recursion`` is the psi recursion
that pads the jet to order n and recomposes it against psi at every degree
n, about D^5 work; ``fatou.linearization`` extends a table of powers of psi
by one dot product per entry and degree, whose summation order differs,
and must agree within 1e-13 relative.  ``delta_bruteforce`` is the literal
max over all compositions that ``fatou.linearization._delta_sequence``
replaces with a pairwise dynamic program; the two must agree within
1e-12 relative for k <= 12.  ``delta_pairwise_loop`` is that program as
first written, a Python max over the pairs j <= k/2, and
``fit_growth_loop`` the growth fit that picked its positive entries one
by one; the library's array forms must return equal bits.  ``check_sector_lemma`` reduces k theta
for every k and again for every r; the library reduces theta once and
tests every r on blocks of k with array masks, and must return equal
reports bit for bit.  ``series1_eval``, ``series2_eval`` and ``residual``
evaluate one point at a time; the library runs all sample points as
arrays and must return equal bits.  ``apply_elem_jet`` is the jet twin of
each generator that ``fatou.maps`` once kept beside its value form;
``jet`` pushes identity coordinates through it, and ``AutoMap.jet``, which
runs the one generator evaluator on Series2 pairs, must return equal bits.
``eval_pipeline`` runs each point alone through ``apply_elem_value``, each
generator on one-element arrays in the library's operand order (a Python
complex product has other bits, and so has a numpy one with its operands
swapped), and ``fatou.maps.eval_pipeline`` must return equal bits.
``series2_mul_loop``, ``inverse_loop``, ``series2_exp_loop`` and
``shift_div_z1_loop`` are the loops that each wrote its own layer
convolution (shift_div_z1 its own monomial copy) before ``fatou.algebra``
shared one online layer product, and ``pow_loop`` multiplies with the
first; the library must return equal bits, signed zeros included.
``apply_elem_jet`` runs on these loops, so the jet oracle shares no
product with the library.
Kept here as the references that tests compare against.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from fatou.algebra import (
    Series1C2,
    Series2,
    SeriesError,
    series1_compose_map,
    tri_index,
    tri_size,
)
from fatou.diophantine import _k_theta_num_den, dist_k_theta, max_c, small_divisor_modulus
from fatou.maps import MapKind


def check_siegel(theta, c, N, k_max):
    """(verdict, violations) over every k; violations are (k, modulus, bound)."""
    violations = []
    for k in range(1, k_max + 1):
        v = small_divisor_modulus(theta, k)
        bound = c * k ** (-N)
        if not v > bound:
            violations.append((k, v, bound))
    return not violations, violations


def dist_recurrence(theta, k_max):
    """[||k theta|| for k = 1..k_max] by the exact recurrence: theta is
    reduced once to integers a / den, and m_k = (m_{k-1} + a) mod den."""
    a, den = _k_theta_num_den(theta, 1)
    a %= den
    m, out = 0, []
    for _ in range(k_max):
        m += a
        if m >= den:
            m -= den
        out.append(min(m, den - m) / den)
    return out


def max_c_detail(theta, N, k_max):
    best = math.inf
    argmin = 0
    running = []
    for k in range(1, k_max + 1):
        v = small_divisor_modulus(theta, k) * k**N
        if v < best:
            best = v
            argmin = k
            running.append((k, v))
    c_open = best * (1.0 - 8 * 2.220446049250313e-16)
    return c_open, best, argmin, running


def _power_coefficient_sum(s, n):
    """[w^n] of sum_{nu>=2} (nu+1) s(w)^nu for s with s[0] = 0."""
    acc = 0.0
    t = np.convolve(s[: n + 1], s[: n + 1])[: n + 1]  # s^2
    for nu in range(2, n + 1):
        acc += (nu + 1) * t[n]
        if nu < n:
            t = np.convolve(t, s[: n + 1])[: n + 1]
    return acc


def majorant(M, eps, D):
    """s_1 = 1, s_n = (M / eps_n) [w^n] sum_{nu>=2} (nu+1) s^nu.

    eps = divisors.eps_min gives sigma, eps = 1 gives eta.
    """
    s = np.zeros(D + 1)
    s[1] = 1.0
    for n in range(2, D + 1):
        s[n] = M / eps[n] * _power_coefficient_sum(s, n)
    return s


def solve_recursion(N_pair, divisors, D):
    """psi_n = [w^n] N(psi) / (eps1_n, eps2_n), composing at order exactly n."""
    psi = Series1C2.zero(D)
    psi.coeffs[1, 0] = 1.0
    for n in range(2, D + 1):
        F_n = (N_pair[0].truncate(min(n, N_pair[0].order)).pad(n)
               if N_pair[0].order < n else N_pair[0].truncate(n))
        G_n = (N_pair[1].truncate(min(n, N_pair[1].order)).pad(n)
               if N_pair[1].order < n else N_pair[1].truncate(n))
        partial = Series1C2(n, psi.coeffs[: n + 1].copy(), _validate=False)
        rhs = series1_compose_map((F_n, G_n), partial, order=n)
        psi.coeffs[n, 0] = rhs.coeffs[n, 0] / divisors.eps1[n]
        psi.coeffs[n, 1] = rhs.coeffs[n, 1] / divisors.eps2[n]
    return psi


def compositions(n):
    """Every ordered tuple of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def delta_bruteforce(eps_min, k):
    """delta_1 = 1, delta_n = max over compositions of n into >= 2 parts of
    the product of delta over the parts, divided by eps_min[n]."""

    @lru_cache(maxsize=None)
    def delta(n):
        if n == 1:
            return 1.0
        best = 0.0
        for comp in compositions(n):
            if len(comp) < 2:
                continue
            prod = 1.0
            for part in comp:
                prod *= delta(part)
            best = max(best, prod)
        return best / eps_min[n]

    return delta(k)


def delta_pairwise_loop(eps_min, D):
    """delta by the pairwise program, one Python max per pair (j, k - j)."""
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


def fit_growth_loop(seq):
    """exp(slope) of the least-squares line through log seq_n, seq_n > 0."""
    ns = np.array([n for n in range(1, len(seq)) if seq[n] > 0], dtype=float)
    if len(ns) < 2:
        return 1.0
    logs = np.log(np.array([seq[int(n)] for n in ns]))
    slope = np.polyfit(ns, logs, 1)[0]
    return float(np.exp(slope))


def check_sector_lemma(theta0, r_values, k_max, N=1.0):
    """(c_prime, results) with ||k theta0||, r^k and every bound per k and r."""
    r_values = [float(r) for r in r_values]
    half_sqrt2 = math.sqrt(2.0) / 2.0
    c_prime = half_sqrt2 * max_c(theta0, N, k_max)
    results = {}
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
            sin_half = math.sin(math.pi * dist)
            rk_m1 = math.expm1(k * log_r)
            rk = rk_m1 + 1.0
            v = math.sqrt(rk_m1 * rk_m1 + 4.0 * rk * sin_half * sin_half)
            unit_mod = 2.0 * sin_half
            if not 0.5 <= rk <= 2.0:
                res["drift"].append(k)
            if dist > 0.125:
                if not v > half_sqrt2:
                    res["sector_violations"].append((k, v))
                if v < half_sqrt2 * unit_mod:
                    res["chained_violations"].append((k, v, half_sqrt2 * unit_mod))
            else:
                if v < half_sqrt2 * unit_mod:
                    res["complement_violations"].append((k, v, half_sqrt2 * unit_mod))
            if v < c_prime * k ** (-N):
                res["final_violations"].append((k, v, c_prime * k ** (-N)))
        results[r] = res
    return c_prime, results


def series1_eval(psi, w):
    """Horner at one point, the pair as two complex."""
    ww = complex(w)
    v = psi.coeffs[psi.order].copy()
    for k in range(psi.order - 1, -1, -1):
        v = v * ww + psi.coeffs[k]
    return (complex(v[0]), complex(v[1]))


def series2_eval(s, z, w):
    """Series2 s at one point, in Python complex arithmetic."""
    zz = complex(z)
    ww = complex(w)
    zp = [1.0 + 0j]
    wp = [1.0 + 0j]
    for _ in range(s.order):
        zp.append(zp[-1] * zz)
        wp.append(wp[-1] * ww)
    total = 0j
    for d in range(s.order, -1, -1):
        lay = s.layer(d)
        for j in range(d + 1):
            total = total + lay[j] * zp[d - j] * wp[j]
    return complex(total)


def residual(psi, F_jet, lam, radius, samples=64):
    """max over the sample points of ||F(psi(w)) - psi(lambda w)||, point by point."""
    P, Q = F_jet
    worst = 0.0
    for j in range(samples):
        w = radius * cmath.exp(2j * math.pi * j / samples)
        x, y = series1_eval(psi, w)
        lhs = (series2_eval(P, x, y), series2_eval(Q, x, y))
        rhs = series1_eval(psi, lam * w)
        worst = max(worst, abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
    return worst


def _layer_of(flat, d):
    start = d * (d + 1) // 2
    return flat[start : start + d + 1]


def series2_mul_loop(a, b):
    """Cauchy product, one layer convolution per pair of degrees."""
    D = a.order
    out = np.zeros(tri_size(D), dtype=np.complex128)
    for d in range(D + 1):
        acc = np.zeros(d + 1, dtype=np.complex128)
        for d1 in range(d + 1):
            la = a.layer(d1)
            lb = b.layer(d - d1)
            acc = acc + np.convolve(la, lb)
        start = d * (d + 1) // 2
        out[start : start + d + 1] = acc
    return Series2(D, out)


def inverse_loop(s):
    """1/s layer by layer from the constant term."""
    c0 = s.coeffs[0]
    if abs(c0) == 0.0:
        raise SeriesError("inverse of a series with zero constant term")
    D = s.order
    inv0 = 1.0 / c0
    out = np.zeros(tri_size(D), dtype=np.complex128)
    out[0] = inv0
    for d in range(1, D + 1):
        acc = np.zeros(d + 1, dtype=np.complex128)
        for k in range(1, d + 1):
            acc = acc + np.convolve(s.layer(k), _layer_of(out, d - k))
        start = d * (d + 1) // 2
        out[start : start + d + 1] = acc * (-inv0)
    return Series2(D, out)


def series2_exp_loop(a):
    """exp(a) by n E_n = sum_k k a_k E_(n-k), zero layers of a skipped."""
    if abs(a.coeffs[0]) != 0.0:
        raise SeriesError("series2_exp requires a zero constant term")
    D = a.order
    out = np.zeros(tri_size(D), dtype=np.complex128)
    out[0] = 1.0
    for n in range(1, D + 1):
        acc = np.zeros(n + 1, dtype=np.complex128)
        for k in range(1, n + 1):
            lay = a.layer(k)
            if not lay.any():
                continue
            acc = acc + np.convolve(lay * k, _layer_of(out, n - k))
        start = n * (n + 1) // 2
        out[start : start + n + 1] = acc / n
    return Series2(D, out)


def shift_div_z1_loop(s, l):
    """s / z^l monomial by monomial; raises on the first (l1, l2) with
    l1 < l whose coefficient is not negligible."""
    if l == 0:
        return s.copy()
    D = s.order
    if D < l:
        raise SeriesError("order too small for the requested division")
    scale = float(np.max(np.abs(s.coeffs)))
    new_order = D - l
    out = np.zeros(tri_size(new_order), dtype=np.complex128)
    for l1 in range(D + 1):
        for l2 in range(D + 1 - l1):
            c = s.coeffs[tri_index(l1, l2)]
            mag = abs(c)
            if l1 < l:
                if mag > 1e-9 * max(scale, 1e-300):
                    raise SeriesError(
                        f"series not divisible by z^{l}: monomial ({l1},{l2}) "
                        f"has coefficient of magnitude {mag:.3e}"
                    )
                continue
            if l1 - l + l2 <= new_order:
                out[tri_index(l1 - l, l2)] = c
    return Series2(new_order, out, _validate=False)


def pow_loop(s, k):
    """s^k as k products from the constant 1."""
    out = Series2.const(s.order, 1.0)
    for _ in range(k):
        out = series2_mul_loop(out, s)
    return out


def _exp_series(S):
    """exp of a series with arbitrary constant term."""
    c0 = S.coeffs[0]
    if c0 == 0:
        return series2_exp_loop(S)
    shifted = S - Series2.const(S.order, c0)
    return series2_exp_loop(shifted).scale(cmath.exp(c0))


def apply_elem_jet(em, Z, W):
    k = em.kind
    if k == MapKind.F1:
        return Z, W + Z
    if k == MapKind.F2:
        return series2_mul_loop(Z, _exp_series(W)), W
    if k == MapKind.F3:
        return Z, W - Z
    if k == MapKind.F4:
        return series2_mul_loop(Z, _exp_series(-W)), W
    if k == MapKind.SHEAR:
        acc = Series2.zero(Z.order)
        for c in reversed(em.coeffs):
            acc = series2_mul_loop(acc, Z) + Series2.const(Z.order, c)
        return Z, W + series2_mul_loop(acc, series2_mul_loop(Z, Z))
    if k == MapKind.OVERSHEAR:
        acc = Series2.zero(Z.order)
        for c in reversed(em.coeffs):
            acc = series2_mul_loop(acc, Z) + Series2.const(Z.order, c)
        return Z, series2_mul_loop(W, _exp_series(series2_mul_loop(acc, Z)))
    if k == MapKind.F6:
        return Z, series2_mul_loop(W, _exp_series(Z.scale(em.l + 1)))
    if k == MapKind.THETA:
        return Z, W.scale(cmath.exp(1j * em.theta))
    if k == MapKind.BL:
        P = pow_loop(Z, em.l)
        return Z, series2_mul_loop(P, W)
    # BL_INV: divide W by Z^l.
    l = em.l
    if Z.coeffs[0] != 0:
        # Z is a unit (jet taken away from the w-axis): plain inversion
        return Z, series2_mul_loop(W, pow_loop(inverse_loop(Z), l))
    work = Z.order
    U = shift_div_z1_loop(Z, 1).pad(work)  # unit cofactor of Z; top layer unknown
    V = pow_loop(inverse_loop(U), l)
    quotient = shift_div_z1_loop(series2_mul_loop(W, V), l).pad(work)
    return Z, quotient


def jet(m, order, at=None):
    """The jet of an AutoMap through apply_elem_jet, at an inflated working
    order for each BlInverse."""
    work = order + sum(em.l + 1 for em in m.pipeline if em.kind == MapKind.BL_INV)
    Z = Series2.var_z(work)
    W = Series2.var_w(work)
    if at is not None:
        Z = Z + Series2.const(work, complex(at[0]))
        W = W + Series2.const(work, complex(at[1]))
    for em in m.pipeline:
        Z, W = apply_elem_jet(em, Z, W)
    return Z.truncate(order), W.truncate(order)


def _value_tail(coeffs, z, start):
    """sum_k coeffs[k] z^(start+k) by Horner from the last coefficient, as
    0 + c, down; exact zeros when there are no coefficients."""
    if not coeffs:
        return np.zeros_like(z)
    acc = coeffs[-1] + 0j
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc * z if start == 1 else acc * z**start


def apply_elem_value(em, z, w):
    """One generator on one-element complex128 arrays."""
    k = em.kind
    if k == MapKind.F1:
        return z, w + z
    if k == MapKind.F2:
        return z * np.exp(w), w
    if k == MapKind.F3:
        return z, w - z
    if k == MapKind.F4:
        return z * np.exp(-w), w
    if k == MapKind.SHEAR:
        return z, w + _value_tail(em.coeffs, z, 2)
    if k == MapKind.OVERSHEAR:
        return z, w * np.exp(_value_tail(em.coeffs, z, 1))
    if k == MapKind.F6:
        return z, w * np.exp((em.l + 1) * z)
    if k == MapKind.THETA:
        return z, w * cmath.exp(1j * em.theta)
    if k == MapKind.BL:
        return z, w * z**em.l
    return z, w / z**em.l


def eval_pipeline(pipeline, z, w):
    """The pipeline at each point of the 1-d arrays z, w alone."""
    out_z = np.empty(len(z), dtype=complex)
    out_w = np.empty(len(w), dtype=complex)
    with np.errstate(all="ignore"):
        for i in range(len(z)):
            zi = np.array([z[i]], dtype=complex)
            wi = np.array([w[i]], dtype=complex)
            for em in pipeline:
                zi, wi = apply_elem_value(em, zi, wi)
            out_z[i], out_w[i] = zi[0], wi[0]
    return out_z, out_w

