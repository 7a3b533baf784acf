"""Truncated power-series arithmetic over complex coefficients.

Two series types are provided:

* :class:`Series2` -- a scalar-valued series in two variables (z, w),
  truncated at a fixed total degree.  Coefficients are stored densely in a
  triangular array ordered by total degree and, within a degree, by
  descending z-power (graded-lex).  A pair of Series2 holds the jet of a
  C^2 -> C^2 map.
* :class:`Series1C2` -- a series in one variable with C^2-valued
  coefficients.  This is the shape of a parametrized curve through the
  origin and of the linearizing series solved for elsewhere.

Truncation is exact: an operation on series of order D retains every
coefficient of total degree <= D and nothing else, so results can be
compared against brute-force oracles coefficient by coefficient.

Coefficient arrays are numpy complex128.  Products, inverses and
exponentials share one online layer product (van der Hoeven's relaxed
product), which may read the result's own lower layers.  psi and jet files
share one row codec; its reader takes exactly the rows the order asks for
and raises :class:`SeriesError` otherwise.

NaN/Inf never enter a series: constructors and arithmetic validate and
raise :class:`NonFiniteError` instead of propagating.

Every operation is pure and never mutates its operands, so series can be
shared across threads and evaluated in parallel; coefficient arrays should
be treated as frozen once a series has been handed off.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

__all__ = [
    "SeriesError",
    "NonFiniteError",
    "OrderMismatchError",
    "Series2",
    "Series1C2",
    "series2_mul",
    "series2_exp",
    "series1_compose_map",
    "series1_eval",
    "tri_size",
    "tri_index",
    "series1_to_json",
    "series1_from_json",
    "jet_to_json",
    "jet_from_json",
]


class SeriesError(ValueError):
    pass


class NonFiniteError(SeriesError):
    """A NaN or Inf tried to enter a series."""


class OrderMismatchError(SeriesError):
    """Binary operation on series of different truncation orders."""


def tri_size(order: int) -> int:
    """Number of monomials of total degree <= order in two variables."""
    return (order + 1) * (order + 2) // 2


def tri_index(l1: int, l2: int) -> int:
    """Flat index of the monomial z^l1 w^l2 (graded, then ascending w-power)."""
    d = l1 + l2
    return d * (d + 1) // 2 + l2


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.complex128)


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr.view(np.float64)).all():
        raise NonFiniteError(f"non-finite coefficient in {where}")


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as CPython's complex product forms it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _mul1(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Product of univariate coefficient arrays, truncated at `order`."""
    full = np.convolve(a, b)
    return full[: order + 1]


class Series2:
    """Dense truncated power series in (z, w) with scalar complex coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray | Sequence, *, _validate: bool = True):
        if order < 0:
            raise SeriesError("order must be >= 0")
        arr = coeffs if isinstance(coeffs, np.ndarray) else np.asarray(coeffs)
        if len(arr) != tri_size(order):
            raise SeriesError(
                f"coefficient array has length {len(arr)}, expected {tri_size(order)}"
            )
        if _validate:
            _check_finite(arr, "Series2")
        self.order = order
        self.coeffs = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series2":
        return cls(order, _zeros(tri_size(order)), _validate=False)

    @classmethod
    def const(cls, order: int, value) -> "Series2":
        s = cls.zero(order)
        s.coeffs[0] = complex(value)
        _check_finite(s.coeffs[:1], "Series2.const")
        return s

    @classmethod
    def var_z(cls, order: int) -> "Series2":
        s = cls.zero(order)
        s.coeffs[tri_index(1, 0)] = 1.0
        return s

    @classmethod
    def var_w(cls, order: int) -> "Series2":
        s = cls.zero(order)
        s.coeffs[tri_index(0, 1)] = 1.0
        return s

    def copy(self) -> "Series2":
        return Series2(self.order, self.coeffs.copy(), _validate=False)

    # -- access -------------------------------------------------------

    def get(self, l1: int, l2: int):
        """Coefficient of z^l1 w^l2."""
        if l1 < 0 or l2 < 0 or l1 + l2 > self.order:
            raise SeriesError(f"monomial ({l1},{l2}) outside truncation order {self.order}")
        return self.coeffs[tri_index(l1, l2)]

    def layer(self, d: int) -> np.ndarray:
        """Homogeneous part of total degree d as a vector over w-powers 0..d."""
        return _layer(self.coeffs, d)

    def truncate(self, new_order: int) -> "Series2":
        if new_order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return Series2(new_order, self.coeffs[: tri_size(new_order)].copy(), _validate=False)

    def pad(self, new_order: int) -> "Series2":
        """Zero-extend to a larger truncation order.

        The new top coefficients are set to 0, which is only correct if the
        caller knows they are unused; see the jet pipeline's working-order
        bookkeeping.
        """
        if new_order < self.order:
            raise SeriesError("pad cannot shrink; use truncate")
        out = _zeros(tri_size(new_order))
        out[: len(self.coeffs)] = self.coeffs
        return Series2(new_order, out, _validate=False)

    # -- ring operations ----------------------------------------------

    def _chk(self, other: "Series2") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other) -> "Series2":
        if not isinstance(other, Series2):   # a scalar, as a constant series
            other = Series2.const(self.order, other)
        self._chk(other)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.coeffs + other.coeffs
        _check_finite(out, "Series2.add")
        return Series2(self.order, out, _validate=False)

    def __sub__(self, other: "Series2") -> "Series2":
        self._chk(other)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.coeffs - other.coeffs
        _check_finite(out, "Series2.sub")
        return Series2(self.order, out, _validate=False)

    def __neg__(self) -> "Series2":
        return Series2(self.order, -self.coeffs, _validate=False)

    def scale(self, factor) -> "Series2":
        out = self.coeffs * complex(factor)
        _check_finite(out, "Series2.scale")
        return Series2(self.order, out, _validate=False)

    def __mul__(self, other):
        if isinstance(other, Series2):
            return series2_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def pow(self, k: int) -> "Series2":
        if k < 0:
            raise SeriesError("negative powers not supported; use inverse()")
        out = Series2.const(self.order, 1.0)
        for _ in range(k):
            out = series2_mul(out, self)
        return out

    __pow__ = pow

    def inverse(self) -> "Series2":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if abs(c0) == 0.0:
            raise SeriesError("inverse of a series with zero constant term")
        D = self.order
        out = _zeros(tri_size(D))
        out[0] = inv0 = 1.0 / c0
        own, lays = _layers(self.coeffs, D, nonzero=True), _layers(out, D)
        for d in range(1, D + 1):
            lays[d][:] = _layer_sum(own, lays, d, 1) * (-inv0)
        _check_finite(out, "Series2.inverse")
        return Series2(D, out, _validate=False)

    # -- evaluation and substitution ------------------------------------

    def eval(self, z, w):
        """Value of the truncated polynomial at (z, w).

        z and w may be arrays of points (broadcast against each other);
        the result is then a complex128 array of their shape.  Scalars
        give a complex, from a one-point array.  Real and imaginary parts
        are carried apart, with products formed as CPython forms a complex
        product (no fused multiply-add), so each point gets the bits of the
        scalar loop: powers (1 + 0j) * z * ... * z, and the terms
        coefficient * z^i * w^j summed from the highest degree down.
        """
        scalar = np.ndim(z) == 0 and np.ndim(w) == 0
        zz, ww = np.broadcast_arrays(np.atleast_1d(np.asarray(z, dtype=np.complex128)),
                                     np.atleast_1d(np.asarray(w, dtype=np.complex128)))
        one, zero = np.ones(zz.shape), np.zeros(zz.shape)
        zp = [(one, zero)]
        wp = [(one, zero)]
        for _ in range(self.order):
            zp.append(_cmul(*zp[-1], zz.real, zz.imag))
            wp.append(_cmul(*wp[-1], ww.real, ww.imag))
        # high degrees first so the small tail terms accumulate before the bulk
        tr, ti = zero, zero
        for d in range(self.order, -1, -1):
            lay = self.layer(d)
            for j in range(d + 1):
                ar, ai = _cmul(lay[j].real, lay[j].imag, *zp[d - j])
                ar, ai = _cmul(ar, ai, *wp[j])
                tr, ti = tr + ar, ti + ai
        total = np.empty(zz.shape, dtype=np.complex128)
        total.real, total.imag = tr, ti
        return complex(total[0]) if scalar else total

    def compose_linear(self, a, b, c, d) -> "Series2":
        """Substitute z -> a*Z + b*W, w -> c*Z + d*W (degree-preserving)."""
        D = self.order
        lin1 = np.array([a, b], dtype=np.complex128)
        lin2 = np.array([c, d], dtype=np.complex128)
        one = np.ones(1, dtype=np.complex128)
        pow1 = [one]
        pow2 = [one]
        for _ in range(D):
            pow1.append(np.convolve(pow1[-1], lin1))
            pow2.append(np.convolve(pow2[-1], lin2))
        out = _zeros(tri_size(D))
        for deg in range(D + 1):
            lay = self.layer(deg)
            acc = _zeros(deg + 1)
            for l2 in range(deg + 1):
                l1 = deg - l2
                coef = lay[l2]
                if coef == 0:
                    continue
                acc = acc + np.convolve(pow1[l1], pow2[l2]) * coef
            _layer(out, deg)[:] = acc
        _check_finite(out, "Series2.compose_linear")
        return Series2(D, out, _validate=False)

    def shift_div_z1(self, l: int) -> "Series2":
        """Exact division by z^l.

        Requires every monomial with z-power < l to vanish (up to roundoff
        1e-9 relative to the largest coefficient); the result has
        truncation order reduced by l.
        """
        if l < 0:
            raise SeriesError("shift power must be >= 0")
        D = self.order
        if D < l:
            raise SeriesError("order too small for the requested division")
        tol = 1e-9 * max(float(np.max(np.abs(self.coeffs))), 1e-300)
        mag = np.hypot(self.coeffs.real, self.coeffs.imag)   # abs(c), bit for bit
        bad = [(i, j) for i in range(l) for j in range(D + 1 - i) if mag[tri_index(i, j)] > tol]
        if bad:
            raise SeriesError(f"series not divisible by z^{l}: monomial ({bad[0][0]},{bad[0][1]}) "
                              f"has coefficient of magnitude {mag[tri_index(*bad[0])]:.3e}")
        # z^l1 w^l2 of degree d becomes z^(l1-l) w^l2: layer d's first d-l+1 entries
        out = _zeros(tri_size(D - l))
        for d in range(l, D + 1):
            _layer(out, d - l)[:] = _layer(self.coeffs, d)[: d - l + 1]
        return Series2(D - l, out, _validate=False)

    def __repr__(self) -> str:
        return f"Series2(order={self.order}, nnz={np.count_nonzero(self.coeffs)})"


def _layer(flat: np.ndarray, d: int) -> np.ndarray:
    """Degree-d slice of a triangular coefficient array (a view)."""
    start = d * (d + 1) // 2
    return flat[start : start + d + 1]


def _layers(flat: np.ndarray, D: int, nonzero: bool = False) -> list:
    """Views of layers 0..D; with nonzero, None for a layer of zeros."""
    lays = [_layer(flat, d) for d in range(D + 1)]
    return [x if not nonzero or x.any() else None for x in lays]


def _layer_sum(a: list, b: list, d: int, k0: int) -> np.ndarray:
    """sum_{k = k0..d} np.convolve(a[k], b[d-k]), k ascending, for lists of
    layers: the degree-d step of the online product.  b's layers below
    d - k0 must be final, so b may be the series being solved for.  A zero
    layer a[k] is None: it adds only zeros to a sum that never holds -0."""
    acc = _zeros(d + 1)
    for k in range(k0, d + 1):
        if a[k] is not None:
            acc = acc + np.convolve(a[k], b[d - k])
    return acc


def series2_mul(a: Series2, b: Series2) -> Series2:
    """Cauchy product truncated at the common order (bilinear, commutative)."""
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} vs {b.order}")
    D = a.order
    out = _zeros(tri_size(D))
    al, bl = _layers(a.coeffs, D, nonzero=True), _layers(b.coeffs, D)
    for d in range(D + 1):
        _layer(out, d)[:] = _layer_sum(al, bl, d, 0)
    _check_finite(out, "series2_mul")
    return Series2(D, out, _validate=False)


def series2_exp(a: Series2) -> Series2:
    """exp of a series with zero constant term.

    Uses the derivative relation for the Euler operator z*d/dz + w*d/dw:
    with E = exp(a), the degree-n part satisfies
    n*E_n = sum_{k=1..n} k * a_k * E_{n-k} (homogeneous-layer products),
    which is exact at every retained degree.
    """
    if abs(a.coeffs[0]) != 0.0:
        raise SeriesError("series2_exp requires a zero constant term")
    D = a.order
    euler = [lay * k if lay.any() else None for k, lay in enumerate(_layers(a.coeffs, D))]
    out = _zeros(tri_size(D))
    out[0] = 1.0
    lays = _layers(out, D)
    for n in range(1, D + 1):
        lays[n][:] = _layer_sum(euler, lays, n, 1) / n
    _check_finite(out, "series2_exp")
    return Series2(D, out, _validate=False)


class Series1C2:
    """Truncated series in one variable with C^2-valued coefficients.

    coeffs has shape (order+1, 2); coeffs[k] is the coefficient of w^k.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, *, _validate: bool = True):
        if order < 0:
            raise SeriesError("order must be >= 0")
        arr = coeffs if isinstance(coeffs, np.ndarray) else np.asarray(coeffs)
        if arr.shape != (order + 1, 2):
            raise SeriesError(f"coefficient array has shape {arr.shape}, expected {(order + 1, 2)}")
        if _validate:
            _check_finite(arr.ravel(), "Series1C2")
        self.order = order
        self.coeffs = arr

    @classmethod
    def zero(cls, order: int) -> "Series1C2":
        return cls(order, np.zeros((order + 1, 2), dtype=np.complex128), _validate=False)

    def norms(self) -> np.ndarray:
        """max(|first|, |second|) per coefficient (the max-norm on C^2)."""
        return np.max(np.abs(self.coeffs), axis=1)

    def __repr__(self) -> str:
        return f"Series1C2(order={self.order})"


def series1_eval(psi: Series1C2, w) -> tuple:
    """Horner evaluation; returns the C^2 value as a pair.

    w may be an array of points: the pair is then two complex128 arrays of
    w's shape.  A scalar w gives a pair of complex, from a one-point array.
    Every point runs the same numpy complex operations in the same order,
    so an array call equals the scalar calls bit for bit.
    """
    ww = np.asarray(w, dtype=np.complex128)[..., None]
    v = psi.coeffs[psi.order]
    for k in range(psi.order - 1, -1, -1):
        v = v * ww + psi.coeffs[k]
    v = np.broadcast_to(v, ww.shape[:-1] + (2,))
    if v.ndim == 1:
        return (complex(v[0]), complex(v[1]))
    return (v[..., 0].copy(), v[..., 1].copy())


def _subst_bivariate(P: Series2, u: np.ndarray, v: np.ndarray, order: int) -> np.ndarray:
    """P(u(w), v(w)) truncated at `order`, by nested Horner over the triangle."""
    res = _zeros(order + 1)
    for l1 in range(P.order, -1, -1):
        inner = _zeros(order + 1)
        for l2 in range(P.order - l1, -1, -1):
            inner = _mul1(inner, v, order)
            inner[0] = inner[0] + P.coeffs[tri_index(l1, l2)]
        res = _mul1(res, u, order) + inner
    return res


def series1_compose_map(f_pair: tuple, psi: Series1C2, order: int | None = None) -> Series1C2:
    """Univariate series of F(psi^1(w), psi^2(w)) truncated at psi's order.

    F is given as its jet, a pair of scalar Series2.  psi must vanish at 0
    (psi_0 = (0,0)); otherwise the substitution leaves the domain where the
    truncated jet represents F and an error is raised.
    """
    P, Q = f_pair
    D = psi.order if order is None else order
    if order is not None and order > psi.order:
        raise SeriesError("requested order exceeds psi's order")
    u = psi.coeffs[: D + 1, 0]
    v = psi.coeffs[: D + 1, 1]
    if abs(u[0]) != 0.0 or abs(v[0]) != 0.0:
        raise SeriesError("series1_compose_map requires psi(0) = (0, 0)")
    out1 = _subst_bivariate(P, u, v, D)
    out2 = _subst_bivariate(Q, u, v, D)
    return Series1C2(D, np.stack([out1, out2], axis=1))


# -- serialization ----------------------------------------------------


def _f17(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError("cannot serialize a non-finite number")
    return format(x, ".17g")


def _rows_to_json(order: int, pairs: np.ndarray) -> str:
    """{order, coeffs: [[re1,im1,re2,im2], ...]}, one row per pair of complex."""
    rows = np.ascontiguousarray(pairs, dtype=np.complex128).view(np.float64).tolist()
    body = ",".join("[%s]" % ",".join(map(_f17, row)) for row in rows)
    return '{"order":%d,"coeffs":[%s]}' % (order, body)


def _rows_from_json(text: str, size) -> tuple:
    """(order, pairs) of a _rows_to_json text: the (size(order), 4) rows viewed
    as complex128, so signed zeros keep their bits.  Else SeriesError."""
    try:
        obj = json.loads(text)
        order = int(obj["order"])
        rows = np.array(obj["coeffs"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SeriesError(f"not a series text with order and coeffs: {exc}") from None
    n = size(order)
    if rows.shape != (n, 4):
        raise SeriesError(f"order {order} needs {n} rows of 4 numbers, got shape {rows.shape}")
    return order, rows.view(np.complex128)


def series1_to_json(psi: Series1C2) -> str:
    """JSON text {order, coeffs: [[re1,im1,re2,im2], ...]}, coefficient of w^k at index k."""
    return _rows_to_json(psi.order, psi.coeffs)


def series1_from_json(text: str) -> Series1C2:
    """The series of a series1_to_json text: its inverse, tested by round trips."""
    order, pairs = _rows_from_json(text, lambda order: order + 1)
    return Series1C2(order, pairs)


def jet_to_json(jet: tuple) -> str:
    """A jet (pair of Series2) as JSON, one row per monomial in Series2's order."""
    P, Q = jet
    if P.order != Q.order:
        raise OrderMismatchError("jet components have different orders")
    return _rows_to_json(P.order, np.stack([P.coeffs, Q.coeffs], axis=1))


def jet_from_json(text: str) -> tuple:
    """The jet of a jet_to_json text: exactly tri_size(order) rows."""
    order, pairs = _rows_from_json(text, tri_size)
    return (Series2(order, pairs[:, 0].copy()), Series2(order, pairs[:, 1].copy()))
