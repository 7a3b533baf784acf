"""Explicit automorphisms of C^2 built from elementary generators.

A map is an ordered pipeline of generators (applied left to right):

    F1 (z, w+z)        F2 (z e^w, w)       F3 (z, w-z)       F4 (z e^-w, w)
    Shear (z, w+g(z))  Overshear (z, w e^f(z))  F6 (z, w e^{(l+1)z})
    Theta (z, e^{i t} w)   Bl (z, z^l w)   BlInverse (z, z^-l w)

The three preset maps conjugate a w-axis-fixing composition by Bl; the
resulting z^-l singularity is removable, and evaluation routes through an
algebraically simplified closed form (the ``fastpath``) so that the limit
value (0, w) on the w-axis is produced exactly and no precision is lost to
the naive division for small |z|.

All evaluators accept numpy arrays and broadcast elementwise; AutoMap values
are immutable and evaluation is pure, so maps can be shared across threads
and grids evaluated in parallel.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import Series2, SeriesError, series2_exp, series2_mul

__all__ = [
    "MapKind",
    "ElementaryMap",
    "AutoMap",
    "FastPath",
    "FixedPointClass",
    "MapEscapeError",
    "f1",
    "f2",
    "f3",
    "f4",
    "shear",
    "overshear",
    "f6",
    "theta_rotation",
    "bl",
    "bl_inverse",
    "four_map_composite",
    "rank0_map",
    "rank1_map",
    "rotation_map",
    "solve_shear_coefficients",
    "solve_overshear_coefficients",
    "classify_fixed_point",
    "jacobian",
    "map_to_json",
    "map_from_json",
]

AXIS_THRESHOLD = 1e-100  # |z| below this routes Bl-conjugated maps to the w-axis limit


class MapEscapeError(ArithmeticError):
    """Evaluation overflowed: the point escaped the representable range."""

    def __init__(self, point, message="orbit escaped to overflow"):
        super().__init__(message)
        self.point = point


class MapKind(str, Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    SHEAR = "Shear"
    OVERSHEAR = "Overshear"
    F6 = "F6"
    THETA = "Theta"
    BL = "Bl"
    BL_INV = "BlInverse"


@dataclass(frozen=True)
class ElementaryMap:
    kind: MapKind
    coeffs: tuple = ()  # Shear: (a2..a_{L+1}); Overshear: (c1..c_{L+1})
    l: int = 0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind in (MapKind.SHEAR, MapKind.OVERSHEAR):
            if not all(math.isfinite(c.real) and math.isfinite(c.imag)
                       for c in map(complex, self.coeffs)):
                raise ValueError(f"{self.kind.value} coefficients must be finite")
        if self.kind in (MapKind.BL, MapKind.BL_INV, MapKind.F6) and self.l < 1:
            raise ValueError(f"{self.kind.value} requires l >= 1")


def f1() -> ElementaryMap:
    return ElementaryMap(MapKind.F1)


def f2() -> ElementaryMap:
    return ElementaryMap(MapKind.F2)


def f3() -> ElementaryMap:
    return ElementaryMap(MapKind.F3)


def f4() -> ElementaryMap:
    return ElementaryMap(MapKind.F4)


def shear(coeffs) -> ElementaryMap:
    """(z, w + g(z)) with g(z) = coeffs[0] z^2 + coeffs[1] z^3 + ..."""
    return ElementaryMap(MapKind.SHEAR, tuple(complex(c) for c in coeffs))


def overshear(coeffs) -> ElementaryMap:
    """(z, w e^{f(z)}) with f(z) = coeffs[0] z + coeffs[1] z^2 + ..."""
    return ElementaryMap(MapKind.OVERSHEAR, tuple(complex(c) for c in coeffs))


def f6(l: int) -> ElementaryMap:
    """(z, w e^{(l+1) z})."""
    return ElementaryMap(MapKind.F6, l=l)


def theta_rotation(theta: float) -> ElementaryMap:
    """(z, e^{i theta} w), theta in radians."""
    return ElementaryMap(MapKind.THETA, theta=float(theta))


def bl(l: int) -> ElementaryMap:
    return ElementaryMap(MapKind.BL, l=l)


def bl_inverse(l: int) -> ElementaryMap:
    return ElementaryMap(MapKind.BL_INV, l=l)


def _inverse_elem(em: ElementaryMap) -> ElementaryMap:
    k = em.kind
    if k == MapKind.F1:
        return f3()
    if k == MapKind.F3:
        return f1()
    if k == MapKind.F2:
        return f4()
    if k == MapKind.F4:
        return f2()
    if k == MapKind.SHEAR:
        return shear(tuple(-c for c in em.coeffs))
    if k == MapKind.OVERSHEAR:
        return overshear(tuple(-c for c in em.coeffs))
    if k == MapKind.F6:
        return overshear((-(em.l + 1),))
    if k == MapKind.THETA:
        return theta_rotation(-em.theta)
    if k == MapKind.BL:
        return bl_inverse(em.l)
    return bl(em.l)


def _poly_tail(coeffs: tuple, x, start: int):
    """sum_k coeffs[k] * x^(start+k), Horner form; works on scalars and arrays."""
    if not coeffs:
        return np.zeros_like(x)
    acc = coeffs[-1] + 0j   # as 0 + c: a -0.0 part becomes 0.0
    for c in reversed(coeffs[:-1]):
        acc = acc * x
        acc += c
    return acc * x if start == 1 else acc * x**start


def _apply_elem(em: ElementaryMap, z, w):
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
        return z, w + _poly_tail(em.coeffs, z, 2)
    if k == MapKind.OVERSHEAR:
        return z, w * np.exp(_poly_tail(em.coeffs, z, 1))
    if k == MapKind.F6:
        return z, w * np.exp((em.l + 1) * z)
    if k == MapKind.THETA:
        return z, w * cmath.exp(1j * em.theta)
    if k == MapKind.BL:
        return z, w * z**em.l
    # BL_INV: singular on the w-axis; fastpath presets never reach this at z=0
    return z, w / z**em.l


# -- fastpath closed forms ---------------------------------------------------


@dataclass(frozen=True)
class FastPath:
    """Closed-form evaluator for the Bl-conjugated presets.

    kind is one of "rank0", "rank1", "rotation".  The rotation preset is the
    rank-1 composition followed by (z, e^{i theta} w); theta_frac carries the
    rotation number theta/(2 pi) exactly when it is rational.
    """

    kind: str
    l: int
    shear: tuple
    overshear: tuple = ()
    theta: float = 0.0
    theta_frac: Fraction | None = None

    def rotation_order(self) -> int | None:
        """Denominator q when theta = 2 pi p/q, else None."""
        if self.theta_frac is None:
            return None
        return self.theta_frac.denominator


def _fast_forward(fp: FastPath, z, w):
    """One step of a Bl-conjugated preset in closed form: with s = z + z^l w,
    zA = z e^s and zu = z e^zA, the image is zu and
    (z^l w - z (e^s - 1) + g(zu)) / z^l * e^{(l+1) zu - l zA + f(zu)} e^{i theta}.

    Operand order is fixed, since complex * is not bitwise commutative when
    the compiled loop fuses a multiply-add, and no complex product writes
    over an operand: a one-element product in place takes a loop without
    the fused multiply-add.  |z| < AXIS_THRESHOLD, or z^l underflow at
    finite z, takes the removable-singularity limit (0, e^{i theta} w);
    overflowed z stays on the escape path.
    """
    l = fp.l
    with np.errstate(all="ignore"):
        zl = z * z if l == 2 else z**l
        zlw = zl * w
        s = z + zlw
        xr, xi = s.real, s.imag
        em1 = np.expm1(xr) * np.cos(xi) - 2.0 * np.sin(xi / 2.0) ** 2
        em1 = em1 + 1j * (np.sin(xi) * np.exp(xr))   # e^s - 1, no cancellation at 0
        zA = z * (em1 + 1.0)
        zu = z * np.exp(zA)
        brac = zlw - z * em1
        brac += _poly_tail(fp.shear, zu, 2)
        expo = (l + 1) * zu
        expo -= l * zA
        if fp.overshear:
            expo += _poly_tail(fp.overshear, zu, 1)
        brac /= zl
        w1 = brac * np.exp(expo)
        rot = cmath.exp(1j * fp.theta) if fp.theta else 1.0
        if fp.theta:
            w1 = w1 * rot
        az = np.abs(z)
        axis = az < AXIS_THRESHOLD
        underflow = zl == 0
        if np.count_nonzero(axis) or np.count_nonzero(underflow):
            axis |= underflow & (az < np.inf)
            zu = np.where(axis, 0.0 * z, zu)
            w1 = np.where(axis, w * rot, w1)
    return zu, w1


def _fast_inverse_axis(fp: FastPath, w):
    rot = cmath.exp(-1j * fp.theta) if fp.theta else 1.0
    return 0.0 * w, w * rot


# -- AutoMap ----------------------------------------------------------------


@dataclass(frozen=True)
class AutoMap:
    """Composable automorphism: pipeline of generators, applied in order."""

    pipeline: tuple
    fastpath: FastPath | None = None

    def __post_init__(self):
        object.__setattr__(self, "pipeline", tuple(self.pipeline))

    def has_bl_inverse(self) -> bool:
        return any(em.kind == MapKind.BL_INV for em in self.pipeline)

    # -- evaluation ---------------------------------------------------

    def eval_batch(self, z, w, *, use_fastpath: bool = True):
        """Vectorized forward evaluation; nonfinite output marks escape."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        if self.fastpath is not None and use_fastpath:
            return _fast_forward(self.fastpath, z, w)
        with np.errstate(all="ignore"):
            for em in self.pipeline:
                z, w = _apply_elem(em, z, w)
        return z, w

    def eval(self, z: complex, w: complex) -> tuple:
        """Forward evaluation at one point; raises MapEscapeError on overflow."""
        z1, w1 = self.eval_batch(np.array([z]), np.array([w]))
        out = (complex(z1[0]), complex(w1[0]))
        if not (cmath.isfinite(out[0]) and cmath.isfinite(out[1])):
            raise MapEscapeError((z, w))
        return out

    def eval_inverse_batch(self, z, w):
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        if self.fastpath is not None:
            axis = np.abs(z) < AXIS_THRESHOLD
            with np.errstate(over="ignore", invalid="ignore", under="ignore",
                             divide="ignore"):
                zi, wi = z, w
                for em in reversed(self.pipeline):
                    zi, wi = _apply_elem(_inverse_elem(em), zi, wi)
                za, wa = _fast_inverse_axis(self.fastpath, w)
                return np.where(axis, za, zi), np.where(axis, wa, wi)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for em in reversed(self.pipeline):
                z, w = _apply_elem(_inverse_elem(em), z, w)
        return z, w

    def eval_inverse(self, z: complex, w: complex) -> tuple:
        z1, w1 = self.eval_inverse_batch(np.array([z]), np.array([w]))
        out = (complex(z1[0]), complex(w1[0]))
        if not (cmath.isfinite(out[0]) and cmath.isfinite(out[1])):
            raise MapEscapeError((z, w))
        return out

    def __call__(self, z: complex, w: complex) -> tuple:
        return self.eval(z, w)

    # -- jets -----------------------------------------------------------

    def jet(self, order: int, at=None) -> tuple:
        """Taylor jet (pair of Series2) at the origin, or at the point `at`.

        Pushes identity coordinates through the pipeline.  Pipelines with
        BlInverse are computed at an inflated working order so that the
        division by the current z-coordinate stays exact up to `order`.
        """
        if order < 1:
            raise SeriesError("jet order must be >= 1")
        inflation = sum(em.l + 1 for em in self.pipeline if em.kind == MapKind.BL_INV)
        work = order + inflation
        Z = Series2.var_z(work)
        W = Series2.var_w(work)
        if at is not None:
            q1, q2 = complex(at[0]), complex(at[1])
            Z = Z + Series2.const(work, q1)
            W = W + Series2.const(work, q2)
        for em in self.pipeline:
            Z, W = _apply_elem_jet(em, Z, W)
        return Z.truncate(order), W.truncate(order)


def _exp_series(S: Series2) -> Series2:
    """exp of a series with arbitrary constant term."""
    c0 = complex(S.coeffs[0]) if S.dd else S.coeffs[0]
    if c0 == 0:
        return series2_exp(S)
    shifted = S - Series2.const(S.order, c0, "dd" if S.dd else "double")
    return series2_exp(shifted).scale(cmath.exp(c0))


def _apply_elem_jet(em: ElementaryMap, Z: Series2, W: Series2):
    k = em.kind
    if k == MapKind.F1:
        return Z, W + Z
    if k == MapKind.F2:
        return series2_mul(Z, _exp_series(W)), W
    if k == MapKind.F3:
        return Z, W - Z
    if k == MapKind.F4:
        return series2_mul(Z, _exp_series(-W)), W
    mode = "dd" if Z.dd else "double"
    if k == MapKind.SHEAR:
        acc = Series2.zero(Z.order, mode)
        for c in reversed(em.coeffs):
            acc = series2_mul(acc, Z) + Series2.const(Z.order, c, mode)
        return Z, W + series2_mul(acc, series2_mul(Z, Z))
    if k == MapKind.OVERSHEAR:
        acc = Series2.zero(Z.order, mode)
        for c in reversed(em.coeffs):
            acc = series2_mul(acc, Z) + Series2.const(Z.order, c, mode)
        return Z, series2_mul(W, _exp_series(series2_mul(acc, Z)))
    if k == MapKind.F6:
        return Z, series2_mul(W, _exp_series(Z.scale(em.l + 1)))
    if k == MapKind.THETA:
        return Z, W.scale(cmath.exp(1j * em.theta))
    if k == MapKind.BL:
        P = Z.pow(em.l)
        return Z, series2_mul(P, W)
    # BL_INV: divide W by Z^l.
    l = em.l
    c0 = complex(Z.coeffs[0]) if Z.dd else Z.coeffs[0]
    if c0 != 0:
        # Z is a unit (jet taken away from the w-axis): plain inversion
        return Z, series2_mul(W, Z.inverse().pow(l))
    work = Z.order
    U = Z.shift_div_z1(1).pad(work)  # unit cofactor of Z; top layer unknown
    V = U.inverse().pow(l)
    quotient = series2_mul(W, V).shift_div_z1(l).pad(work)
    return Z, quotient


# -- presets ----------------------------------------------------------------


def four_map_composite() -> AutoMap:
    """G = F4 o F3 o F2 o F1, the seed composition of all the examples."""
    return AutoMap((f1(), f2(), f3(), f4()))


def solve_shear_coefficients(base: AutoMap, l: int):
    """Coefficients a_2..a_{l+1} killing the pure-z terms of degrees 2..l+1.

    Adding (z, w + g(z)) with g = sum a_i z^i after `base` contributes
    a_i (pi_1 base)^i to the second component; since pi_1 base = z + O(2),
    the degree-i pure coefficient is fixed by a_i alone once lower degrees
    are clean, so the a_i solve triangularly.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    order = l + 2
    Zj, Wj = base.jet(order)
    _check_section_form(Wj)
    powers = {}
    p = Zj
    for k in range(2, l + 2):
        p = series2_mul(p, Zj)
        powers[k] = p
    a = []
    W_cur = Wj
    for i in range(2, l + 2):
        ai = -W_cur.get(i, 0)
        W_cur = W_cur + powers[i].scale(ai)
        a.append(ai)
    return tuple(a)


def solve_overshear_coefficients(base: AutoMap, l: int):
    """Coefficients c_1..c_{l+1} killing the w z^j terms, j = 1..l+1.

    The overshear multiplies the second component by e^{f(pi_1 base)};
    each c_k z^k contributes c_k to the w z^k coefficient at first order,
    again a triangular solve.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    order = l + 2
    Zj, Wj = base.jet(order)
    _check_section_form(Wj)
    c = []
    W_cur = Wj
    for k in range(1, l + 2):
        ck = -W_cur.get(k, 1)
        W_cur = series2_mul(W_cur, series2_exp(Zj.pow(k).scale(ck)))
        c.append(ck)
    return tuple(c)


def _check_section_form(Wj: Series2) -> None:
    if abs(Wj.get(0, 0)) > 1e-12:
        raise SeriesError("base does not fix the origin")
    if abs(Wj.get(0, 1) - 1.0) > 1e-12:
        raise SeriesError("second component is not of the form w + higher order")


@lru_cache(maxsize=None)
def _rank0_coefficients(l: int):
    base = four_map_composite()
    a = solve_shear_coefficients(base, l)
    with_shear = AutoMap(base.pipeline + (shear(a),))
    c = solve_overshear_coefficients(with_shear, l)
    return a, c


@lru_cache(maxsize=None)
def _rank1_shear():
    # the rank-1 construction also removes the pure z^4 term
    return solve_shear_coefficients(four_map_composite(), 3)


def rank0_map(l: int = 2) -> AutoMap:
    """Preset with one constant limit: every orbit in its invariant region
    converges to the origin.

    The shear a_2..a_{l+1} clears the pure z-terms of the base composition
    up to degree l+1 only; unlike the rank-1 shear it leaves the pure
    z^{l+2} term, which the conjugation by Bl turns into an additive b z^2
    in the second component (b = -2/3 at l = 2).  With the w-multiplier
    1 + z left by the overshear, orbits obey, in the chart zhat = -1/z,

        zhat_n w_n = C(seed) + b ln n + O(ln n / n),

    so |w_n| decays like |b| ln n / n rather than 1/n.
    """
    a, c = _rank0_coefficients(l)
    pipeline = (bl(l), f1(), f2(), f3(), f4(), shear(a), overshear(c), f6(l), bl_inverse(l))
    return AutoMap(pipeline, FastPath("rank0", l, a, c))


def rank1_map() -> AutoMap:
    """Preset whose iterates converge to a curve-valued (rank-1) limit with
    image the w-axis."""
    a = _rank1_shear()
    pipeline = (bl(2), f1(), f2(), f3(), f4(), shear(a), f6(2), bl_inverse(2))
    return AutoMap(pipeline, FastPath("rank1", 2, a))


def rotation_map(theta: float, theta_frac: Fraction | None = None) -> AutoMap:
    """The rank-1 preset followed by (z, e^{i theta} w), theta in radians.

    Pass theta_frac = p/q when theta = 2 pi p/q so that subsequence analysis
    can use the exact rotation order.
    """
    a = _rank1_shear()
    pipeline = (bl(2), f1(), f2(), f3(), f4(), shear(a), f6(2), bl_inverse(2),
                theta_rotation(theta))
    return AutoMap(pipeline, FastPath("rotation", 2, a, theta=float(theta),
                                      theta_frac=theta_frac))


# -- fixed-point classification ----------------------------------------------


class FixedPointClass(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    SEMI_ATTRACTIVE = "semi-attractive"
    SEMI_REPULSIVE = "semi-repulsive"
    NEUTRAL = "neutral"


def jacobian(m, q, *, fd_step: float | None = None) -> np.ndarray:
    """2x2 complex Jacobian of m at q.

    For AutoMap values the jet at the translated point is used when the
    pipeline allows it (exact up to rounding); central finite differences in
    each coordinate are the fallback.  Holomorphy makes the real-direction
    difference equal the complex derivative.
    """
    q1, q2 = complex(q[0]), complex(q[1])
    if isinstance(m, AutoMap):
        try:
            at = None if (q1 == 0 and q2 == 0) else (q1, q2)
            Z, W = m.jet(1, at=at)
            return np.array(
                [[Z.get(1, 0), Z.get(0, 1)], [W.get(1, 0), W.get(0, 1)]],
                dtype=complex,
            )
        except (SeriesError, OverflowError):
            pass
        fn = m.eval
    else:
        fn = m
    h = fd_step if fd_step is not None else 1e-6 * max(1.0, abs(q1), abs(q2))
    J = np.zeros((2, 2), dtype=complex)
    for j, (dz, dw) in enumerate(((h, 0.0), (0.0, h))):
        fp = fn(q1 + dz, q2 + dw)
        fm = fn(q1 - dz, q2 - dw)
        J[0, j] = (fp[0] - fm[0]) / (2 * h)
        J[1, j] = (fp[1] - fm[1]) / (2 * h)
    return J


def classify_fixed_point(m, q, tol: float = 1e-8) -> FixedPointClass:
    """Classify a fixed point by the moduli of the two eigenvalues of Dm(q).

    Moduli within tol of 1 count as neutral directions; the classification
    is modulus-only, so defective Jacobians need no eigenvector handling.
    """
    q1, q2 = complex(q[0]), complex(q[1])
    fn = m.eval if isinstance(m, AutoMap) else m
    image = fn(q1, q2)
    defect = max(abs(image[0] - q1), abs(image[1] - q2))
    if defect > tol:
        raise ValueError(f"point is not fixed: |F(q)-q| = {defect:.3e} > tol = {tol:.1e}")
    mu = np.linalg.eigvals(jacobian(m, q))
    bands = []
    for e in mu:
        r = abs(e)
        if abs(r - 1.0) <= tol:
            bands.append(0)
        elif r < 1.0:
            bands.append(-1)
        else:
            bands.append(1)
    lo, hi = min(bands), max(bands)
    if lo == hi == 0:
        return FixedPointClass.NEUTRAL
    if lo == hi == -1:
        return FixedPointClass.ATTRACTING
    if lo == hi == 1:
        return FixedPointClass.REPELLING
    if lo == -1 and hi == 1:
        return FixedPointClass.SADDLE
    if lo == -1:
        return FixedPointClass.SEMI_ATTRACTIVE
    return FixedPointClass.SEMI_REPULSIVE


# -- serialization -----------------------------------------------------------


def _elem_to_dict(em: ElementaryMap) -> dict:
    d = {"kind": em.kind.value}
    if em.kind in (MapKind.SHEAR, MapKind.OVERSHEAR):
        d["coeffs"] = [[c.real, c.imag] for c in em.coeffs]
    if em.kind in (MapKind.BL, MapKind.BL_INV, MapKind.F6):
        d["l"] = em.l
    if em.kind == MapKind.THETA:
        d["theta"] = em.theta
    return d


def _elem_from_dict(d: dict) -> ElementaryMap:
    kind = MapKind(d["kind"])
    coeffs = tuple(complex(a, b) for a, b in d.get("coeffs", []))
    return ElementaryMap(kind, coeffs, l=int(d.get("l", 0)), theta=float(d.get("theta", 0.0)))


def map_to_json(m: AutoMap) -> str:
    fp = None
    if m.fastpath is not None:
        fp = {
            "kind": m.fastpath.kind,
            "l": m.fastpath.l,
            "shear": [[c.real, c.imag] for c in m.fastpath.shear],
            "overshear": [[c.real, c.imag] for c in m.fastpath.overshear],
            "theta": m.fastpath.theta,
            "theta_frac": None if m.fastpath.theta_frac is None
            else [m.fastpath.theta_frac.numerator, m.fastpath.theta_frac.denominator],
        }
    return json.dumps({"pipeline": [_elem_to_dict(e) for e in m.pipeline], "fastpath": fp})


def map_from_json(text: str) -> AutoMap:
    obj = json.loads(text)
    pipeline = tuple(_elem_from_dict(d) for d in obj["pipeline"])
    fp = None
    if obj.get("fastpath"):
        d = obj["fastpath"]
        frac = d.get("theta_frac")
        fp = FastPath(
            d["kind"],
            int(d["l"]),
            tuple(complex(a, b) for a, b in d["shear"]),
            tuple(complex(a, b) for a, b in d.get("overshear", [])),
            float(d.get("theta", 0.0)),
            None if frac is None else Fraction(frac[0], frac[1]),
        )
    return AutoMap(pipeline, fp)
