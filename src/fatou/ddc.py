"""Small divisors lambda^n - lambda and lambda^n - 1 formed in double-double.

Near resonance lambda^n - 1 cancels, and from a binary64 power it loses about
n eps / |lambda^n - 1| of relative accuracy.  Here lambda^n is kept as hi + lo
per part (Dekker, Numer. Math. 18, 1971) and each divisor is rounded once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["small_divisors"]

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _sum2(*terms) -> tuple[float, float]:
    """sum(terms) as hi + lo: two-sum along the terms with their errors added
    apart (Sum2 of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005)."""
    s = c = 0.0
    for t in terms:
        s, e = _two_sum(s, t)
        c += e
    return _two_sum(s, c)


def small_divisors(lam: complex, D: int):
    """(eps1, eps2) with eps1[n] = lambda^n - lambda and eps2[n] = lambda^n - 1
    for 2 <= n <= D, complex128 arrays indexed by n (entries 0 and 1 zero).

    Each degree multiplies x + x_lo + i (y + y_lo) by lambda: four
    two-products, summed with the lo parts times lambda, smallest first.  A
    step errs by about 2^-107 per part, so a divisor's part is within an ulp
    of its exact value while the part exceeds about n 2^-54.
    """
    lam = complex(lam)
    a, b = lam.real, lam.imag
    eps1 = np.zeros(D + 1, dtype=complex)
    eps2 = np.zeros(D + 1, dtype=complex)
    x, x_lo, y, y_lo = a, 0.0, b, 0.0
    for n in range(2, D + 1):
        xa, xa_e = _two_prod(x, a)
        yb, yb_e = _two_prod(y, b)
        xb, xb_e = _two_prod(x, b)
        ya, ya_e = _two_prod(y, a)
        (x, x_lo), (y, y_lo) = (_sum2(x_lo * a, -y_lo * b, xa_e, -yb_e, xa, -yb),
                                _sum2(x_lo * b, y_lo * a, xb_e, ya_e, xb, ya))
        # x + x_lo - c: _sum2 forms x - c exactly, so the divisor is rounded once
        eps1[n] = complex(_sum2(x, x_lo, -a)[0], _sum2(y, y_lo, -b)[0])
        eps2[n] = complex(_sum2(x, x_lo, -1.0)[0], y)
    return eps1, eps2
