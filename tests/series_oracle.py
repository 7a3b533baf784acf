"""The certificate loops and majorant recursions as first written.

``max_c_detail`` and ``check_siegel`` test every k in [1, k_max];
``fatou.diophantine`` evaluates only k = 1 and the convergent denominators
and must return equal results.  ``majorant`` is the O(D^4) recursion that
expands sum_{nu>=2} (nu+1) s^nu power by power; ``fatou.linearization``
runs one online O(D^2) recursion, whose summation order differs, and must
agree within 1e-13 relative.  Kept here as the references that tests
compare against.
"""

import math

import numpy as np

from fatou.diophantine import small_divisor_modulus


def check_siegel(theta, c, N, k_max):
    """(verdict, violations) over every k; violations are (k, modulus, bound)."""
    violations = []
    for k in range(1, k_max + 1):
        v = small_divisor_modulus(theta, k)
        bound = c * k ** (-N)
        if not v > bound:
            violations.append((k, v, bound))
    return not violations, violations


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

