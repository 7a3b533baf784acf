"""Double-double arithmetic: real and complex scalars with ~31 significant digits.

Used when small divisors push the linearization recursion past what binary64
can resolve.  Values are unevaluated sums hi + lo with |lo| <= 0.5 ulp(hi).
Only what that recursion needs is provided: coercion, + - * /, and the
conversions float() and complex().
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a: float):
    c = _SPLITTER * a
    big = c - a
    hi = c - big
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


class DD:
    """Double-double real number."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @staticmethod
    def of(x) -> "DD":
        if isinstance(x, DD):
            return x
        if not isinstance(x, (int, float)):
            raise TypeError(f"cannot coerce {type(x).__name__} to DD")
        return DD(float(x))

    def __float__(self) -> float:
        return self.hi + self.lo

    def __repr__(self) -> str:
        return f"DD({self.hi!r}, {self.lo!r})"

    def __neg__(self) -> "DD":
        return DD(-self.hi, -self.lo)

    def __add__(self, other) -> "DD":
        o = DD.of(other)
        s, e = _two_sum(self.hi, o.hi)
        t, f = _two_sum(self.lo, o.lo)
        e += t
        s, e = _quick_two_sum(s, e)
        e += f
        hi, lo = _quick_two_sum(s, e)
        return DD(hi, lo)

    def __sub__(self, other) -> "DD":
        return self + (-DD.of(other))

    def __mul__(self, other) -> "DD":
        o = DD.of(other)
        p, e = _two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        hi, lo = _quick_two_sum(p, e)
        return DD(hi, lo)

    def __truediv__(self, other) -> "DD":
        o = DD.of(other)
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        hi, lo = _quick_two_sum(q1, q2)
        return DD(hi, lo) + q3


class DDComplex:
    """Complex number with double-double components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0.0, im=0.0):
        self.re = DD.of(re)
        self.im = DD.of(im)

    @staticmethod
    def of(x) -> "DDComplex":
        if isinstance(x, DDComplex):
            return x
        if isinstance(x, DD):
            return DDComplex(x, DD(0.0))
        if isinstance(x, complex):
            return DDComplex(DD(x.real), DD(x.imag))
        if not isinstance(x, (int, float)):
            raise TypeError(f"cannot coerce {type(x).__name__} to DDComplex")
        return DDComplex(DD(float(x)), DD(0.0))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"DDComplex({complex(self)!r})"

    def __add__(self, other) -> "DDComplex":
        o = DDComplex.of(other)
        return DDComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> "DDComplex":
        o = DDComplex.of(other)
        return DDComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> "DDComplex":
        o = DDComplex.of(other)
        return DDComplex(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def __truediv__(self, other) -> "DDComplex":
        o = DDComplex.of(other)
        den = o.re * o.re + o.im * o.im
        return DDComplex((self.re * o.re + self.im * o.im) / den,
                         (self.im * o.re - self.re * o.im) / den)
