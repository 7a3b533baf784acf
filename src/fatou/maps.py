"""Explicit automorphisms of C^2 built from elementary generators.

A map is an ordered pipeline of generators (applied left to right):

    F1 (z, w+z)        F2 (z e^w, w)       F3 (z, w-z)       F4 (z e^-w, w)
    Shear (z, w+g(z))  Overshear (z, w e^f(z))  F6 (z, w e^{(l+1)z})
    Theta (z, e^{i t} w)   Bl (z, z^l w)   BlInverse (z, z^-l w)

The pipeline is the only description of a map.  The presets conjugate a
w-axis-fixing composition by Bl; the z^-l singularity is removable, and an
AutoMap recognises that shape when it is built and evaluates it through an
algebraically simplified closed form (its ``fastpath``) so that the limit
(0, w) on the w-axis is exact and less precision is lost than to the naive
division for small |z| (see ``_fast_forward``).  A Theta generator may
carry its rotation number p/q exactly, the map's rotation order q.

One generator evaluator, _apply_elem, gives values (on numpy arrays) and
jets (on Series2 pairs); eval_pipeline(m.pipeline, z, w) is m without its
closed form.  Overflow in an evaluation is data, never a warning: the orbit
engine (dynamics._lockstep_iterate) holds np.errstate(all="ignore") for a
whole run and sets the engine-internal flag _IN_ENGINE to the kernel that
AutoMap.eval_batch's closed form then calls (_fast_forward, or _fast_arith
where the engine tests the w-axis itself); eval_pipeline holds its own.
All evaluators accept numpy arrays and broadcast elementwise;
AutoMap values are immutable and evaluation is pure, so a map can be
shared across threads.  Threads do not speed a grid up: each ufunc call
holds the GIL while it dispatches, and two threads stepping the halves of
a 2,304-seed rank-1 grid ran 0.84-1.01x as fast as one (median 0.87x, six
640-step runs on a 2-core Xeon).  Wide runs use a second process instead
(see dynamics._in_halves).
"""

from __future__ import annotations

import cmath
import contextvars
import json
import math
from dataclasses import dataclass, field
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
    "eval_pipeline",
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

# the kernel AutoMap.eval_batch calls while dynamics._lockstep_iterate runs its
# loop, which holds np.errstate(all="ignore"), else None; only that engine sets it
_IN_ENGINE = contextvars.ContextVar("fatou_in_engine", default=None)


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
    frac: Fraction | None = None  # Theta: theta / (2 pi) exactly, when rational

    def __post_init__(self):
        if self.kind in (MapKind.SHEAR, MapKind.OVERSHEAR):
            if not all(math.isfinite(c.real) and math.isfinite(c.imag)
                       for c in map(complex, self.coeffs)):
                raise ValueError(f"{self.kind.value} coefficients must be finite")
        if self.kind in (MapKind.BL, MapKind.BL_INV, MapKind.F6) and self.l < 1:
            raise ValueError(f"{self.kind.value} requires l >= 1")
        if self.frac is not None and (abs(self.theta - 2 * math.pi * self.frac)
                                      > 1e-12 * max(1.0, abs(self.theta))):
            raise ValueError(f"theta = {self.theta!r} is not 2 pi * {self.frac}")


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


def theta_rotation(theta: float, frac: Fraction | None = None) -> ElementaryMap:
    """(z, e^{i theta} w), theta in radians; frac = p/q when theta = 2 pi p/q,
    to within 1e-12 max(1, |theta|), else ValueError."""
    return ElementaryMap(MapKind.THETA, theta=float(theta), frac=frac)


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


def _horner(coeffs: tuple, x):
    """coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ..., Horner form."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _poly_tail(coeffs: tuple, x, start: int):
    """sum_k coeffs[k] * x^(start+k); works on scalars, arrays and Series2."""
    jet = isinstance(x, Series2)
    if not coeffs:   # exact zeros: 0 * x is NaN at an escaped x
        return Series2.zero(x.order) if jet else np.zeros_like(x)
    last = coeffs[-1] + 0j   # as 0 + c: a -0.0 part becomes 0.0
    # on a jet c x is series2_mul(c, x): a scale by complex c has other bits
    acc = _horner(coeffs[:-1] + (Series2.const(x.order, last) if jet else last,), x)
    return acc * x if start == 1 else acc * x**start


def _apply_elem(em: ElementaryMap, z, w):
    """One generator on numpy arrays or on a Series2 jet pair.  Neither
    product commutes bit for bit, so each keeps its arithmetic's order."""
    jet = isinstance(z, Series2)
    exp = _exp_series if jet else np.exp
    k = em.kind
    if k == MapKind.F1:
        return z, w + z
    if k == MapKind.F2:
        return z * exp(w), w
    if k == MapKind.F3:
        return z, w - z
    if k == MapKind.F4:
        return z * exp(-w), w
    if k == MapKind.SHEAR:
        return z, w + _poly_tail(em.coeffs, z, 2)
    if k == MapKind.OVERSHEAR:
        return z, w * exp(_poly_tail(em.coeffs, z, 1))
    if k == MapKind.F6:
        return z, w * exp((em.l + 1) * z)
    if k == MapKind.THETA:
        return z, w * cmath.exp(1j * em.theta)
    if k == MapKind.BL:   # a jet multiplies Z^l W, an array w z^l
        return z, z**em.l * w if jet else w * z**em.l
    # BL_INV: singular on the w-axis; a closed form never reaches this at z=0
    return z, _jet_div_zl(z, w, em.l) if jet else w / z**em.l


def _exp_series(S: Series2) -> Series2:
    """exp of a series with arbitrary constant term."""
    c0 = S.coeffs[0]
    if c0 == 0:
        return series2_exp(S)
    shifted = S - Series2.const(S.order, c0)
    return series2_exp(shifted).scale(cmath.exp(c0))


def _jet_div_zl(Z: Series2, W: Series2, l: int) -> Series2:
    """W / Z^l, exact up to the working order less l + 1 (see AutoMap.jet)."""
    if Z.coeffs[0] != 0:
        # Z is a unit (jet taken away from the w-axis): plain inversion
        return series2_mul(W, Z.inverse().pow(l))
    work = Z.order
    U = Z.shift_div_z1(1).pad(work)  # unit cofactor of Z; top layer unknown
    V = U.inverse().pow(l)
    return series2_mul(W, V).shift_div_z1(l).pad(work)


# -- the closed form ----------------------------------------------------------


@dataclass(frozen=True)
class FastPath:
    """The closed form of a Bl-conjugated pipeline (see _closed_form): order
    l, shear and overshear coefficients, closing Theta generator (or None)
    and its theta (or 0).  The step kernel's coefficients are made here
    once, in the order its Horner loops take them: shear_top, shear_rest
    for g(zu) / zu^2 and expo_top, expo_rest for the exponent's bracket,
    the highest degree first.  They and rot_c are 0-d complex128 arrays:
    numpy broadcasts those faster than Python scalars, with the same
    result."""

    l: int
    shear: tuple
    overshear: tuple
    rotation: ElementaryMap | None

    def __post_init__(self):
        put = lambda name, value: object.__setattr__(self, name, value)
        c0 = lambda v: np.array(v, dtype=np.complex128)
        put("theta", self.rotation.theta if self.rotation else 0.0)
        shear_c = [c0(a) for a in reversed(self.shear)]
        put("shear_top", shear_c[0])
        put("shear_rest", tuple(shear_c[1:]))
        # (l+1) zu + f(zu) = zu (l+1 + c1 + c2 zu + ...): one Horner form
        over = self.overshear or (0j,)
        expo_c = [c0(c) for c in reversed(over[1:])] + [c0(over[0] + (self.l + 1))]
        put("expo_top", expo_c[0])
        put("expo_rest", tuple(expo_c[1:]))
        put("rot_c", c0(cmath.exp(1j * self.theta)) if self.theta else None)
        # z^l (and zu^l, zu = z there) underflows to 0 only where |z|^l < 1e-300
        put("guard", max(AXIS_THRESHOLD, 1e-300 ** (1.0 / self.l)))


def _closed_form(pipeline: tuple) -> FastPath | None:
    """The FastPath of (Bl(l), F1, F2, F3, F4, Shear(a), [Overshear(c)],
    F6(l), BlInverse(l), [Theta]) with a nonempty and one l throughout;
    None for any other pipeline."""
    p = list(pipeline)
    rotation = p.pop() if p and p[-1].kind == MapKind.THETA else None
    over = p.pop(6) if len(p) == 9 and p[6].kind == MapKind.OVERSHEAR else None
    if (tuple(em.kind for em in p) != ("Bl", "F1", "F2", "F3", "F4", "Shear", "F6", "BlInverse")
            or not p[5].coeffs or not p[0].l == p[6].l == p[7].l):
        return None
    return FastPath(p[0].l, p[5].coeffs, over.coeffs if over else (), rotation)


def _fast_forward(fp: FastPath, z, w):
    """One step of a Bl-conjugated pipeline in closed form: with s = z + z^l w
    and zu = z e^{z e^s}, the image is zu and
    (z^l w - z (e^s - 1) + g(zu)) / zu^l * e^{(l+1) zu + f(zu)} e^{i theta};
    the pipeline's factor e^{-l z e^s} / z^l is 1 / zu^l.

    The bracket cancels terms of size |z|^2 down to z^l w, so w carries an
    absolute error of a few eps |z|^(2-l): none at l = 2, but at l >= 3 it
    grows as the orbit nears the w-axis (the generator pipeline, dividing
    by z^l, is worse still).  No complex product writes over an operand, so
    a seed's finite image does not depend on its batch (a one-element
    product in place takes a loop without the fused multiply-add).  A NaN
    part's sign bit can: at (0.9, 600), rank0_map(2) gives w1's NaNs the
    sign bit among 6 seeds and not alone; either way the part is NaN.
    The step is _fast_arith and the w-axis test: |z| < AXIS_THRESHOLD, or
    z^l underflow at finite z, takes the removable-singularity limit (0,
    e^{i theta} w), and one reduction over |z| decides whether any seed
    needs it; where every |z| >= fp.guard or is NaN the arithmetic's values
    stand, so the engine, testing that once a block, calls _fast_arith alone.
    Overflowed z stays on the escape path.  Neither part holds a numpy
    error state: the caller sets it (AutoMap.eval_batch, or the engine).
    """
    zu, w1 = _fast_arith(fp, z, w)
    az = np.abs(z)
    if np.fmin.reduce(az, axis=None, initial=np.inf) < fp.guard:
        zl = z * z if fp.l == 2 else z**fp.l
        axis = (az < AXIS_THRESHOLD) | ((zl == 0) & (az < np.inf))
        zu = np.where(axis, 0.0 * z, zu)
        w1 = np.where(axis, w if fp.rot_c is None else w * fp.rot_c, w1)
    return zu, w1


def _fast_arith(fp: FastPath, z, w):
    """_fast_forward without its w-axis test: ufuncs only, no reduction."""
    zl = z * z if fp.l == 2 else z**fp.l
    zlw = zl * w
    zem1 = z * np.expm1(z + zlw)   # z (e^s - 1)
    zu = z * np.exp(z + zem1)
    brac = zlw - zem1
    zu2 = zu * zu
    g = fp.shear_top
    for c in fp.shear_rest:
        g = g * zu + c
    brac += g * zu2
    zul = zu2 if fp.l == 2 else zu**fp.l
    e = fp.expo_top
    for c in fp.expo_rest:
        e = e * zu + c
    w1 = brac / zul * np.exp(zu * e)
    if fp.rot_c is not None:
        w1 = w1 * fp.rot_c
    return zu, w1


# -- AutoMap ----------------------------------------------------------------


def eval_pipeline(pipeline, z, w):
    """The generators of pipeline applied to arrays in turn: a map without
    its closed form.  Nonfinite output marks escape."""
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for em in pipeline:
            z, w = _apply_elem(em, z, w)
    return z, w


@dataclass(frozen=True)
class AutoMap:
    """Composable automorphism: pipeline of generators, applied in order;
    fastpath, the pipeline's closed form or None, is worked out once here."""

    pipeline: tuple
    fastpath: FastPath | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pipeline", tuple(self.pipeline))
        object.__setattr__(self, "fastpath", _closed_form(self.pipeline))

    # -- evaluation ---------------------------------------------------

    def eval_batch(self, z, w):
        """Vectorized forward evaluation; nonfinite output marks escape.

        Inside the orbit engine, whose loop holds np.errstate(all="ignore")
        and whose states are complex128 arrays, the closed form goes to the
        kernel in _IN_ENGINE; any other caller gets complex128 inputs and
        _fast_forward in that error state for this call only, and keeps its
        own.  The bits are the same either way.  A map without a closed form
        goes through eval_pipeline, which holds its own error state."""
        if self.fastpath is None:
            return eval_pipeline(self.pipeline, z, w)
        if (kernel := _IN_ENGINE.get()) is not None:
            return kernel(self.fastpath, z, w)
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        with np.errstate(all="ignore"):
            return _fast_forward(self.fastpath, z, w)

    def eval(self, z: complex, w: complex) -> tuple:
        """Forward evaluation at one point; raises MapEscapeError on overflow."""
        return _at_point(self.eval_batch, z, w)

    def eval_inverse_batch(self, z, w):
        """The inverse pipeline; a closed form's w-axis (z = 0), where the
        pipeline divides by zero, takes its limit (0, e^{-i theta} w)."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        zi, wi = eval_pipeline([_inverse_elem(em) for em in reversed(self.pipeline)], z, w)
        fp = self.fastpath
        if fp is None:
            return zi, wi
        with np.errstate(all="ignore"):   # 0.0 * w is NaN where w escaped
            axis = np.abs(z) < AXIS_THRESHOLD
            rot = cmath.exp(-1j * fp.theta) if fp.theta else 1.0
            return np.where(axis, 0.0 * w, zi), np.where(axis, w * rot, wi)

    def eval_inverse(self, z: complex, w: complex) -> tuple:
        return _at_point(self.eval_inverse_batch, z, w)

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
            Z = Z + Series2.const(work, complex(at[0]))
            W = W + Series2.const(work, complex(at[1]))
        for em in self.pipeline:
            Z, W = _apply_elem(em, Z, W)
        return Z.truncate(order), W.truncate(order)


def _at_point(batch, z, w) -> tuple:
    """A batch evaluator at one point; raises MapEscapeError on overflow."""
    z1, w1 = batch(np.array([z]), np.array([w]))
    out = (complex(z1[0]), complex(w1[0]))
    if not (cmath.isfinite(out[0]) and cmath.isfinite(out[1])):
        raise MapEscapeError((z, w))
    return out


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
    a = []
    p, W_cur = Zj, Wj
    for i in range(2, l + 2):
        p = series2_mul(p, Zj)   # (pi_1 base)^i
        a.append(-W_cur.get(i, 0))
        W_cur = W_cur + p.scale(a[-1])
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
    return AutoMap(pipeline)


def rank1_map() -> AutoMap:
    """Preset whose iterates converge to a curve-valued (rank-1) limit with
    image the w-axis."""
    a = _rank1_shear()
    pipeline = (bl(2), f1(), f2(), f3(), f4(), shear(a), f6(2), bl_inverse(2))
    return AutoMap(pipeline)


def rotation_map(theta: float, theta_frac: Fraction | None = None) -> AutoMap:
    """The rank-1 preset followed by (z, e^{i theta} w), theta in radians.

    Pass theta_frac = p/q when theta = 2 pi p/q so that subsequence analysis
    can use the exact rotation order; the Theta generator carries it.
    """
    a = _rank1_shear()
    return AutoMap((bl(2), f1(), f2(), f3(), f4(), shear(a), f6(2), bl_inverse(2),
                    theta_rotation(theta, theta_frac)))


# -- fixed-point classification ----------------------------------------------


class FixedPointClass(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    SEMI_ATTRACTIVE = "semi-attractive"
    SEMI_REPULSIVE = "semi-repulsive"
    NEUTRAL = "neutral"


def jacobian(m, q) -> np.ndarray:
    """2x2 complex Jacobian of m at q.

    For AutoMap values the jet at the translated point is used when the
    pipeline allows it (exact up to rounding); central finite differences in
    each coordinate, with step 1e-6 * max(1, |q1|, |q2|), are the fallback.
    Holomorphy makes the real-direction difference equal the complex
    derivative.
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
    h = 1e-6 * max(1.0, abs(q1), abs(q2))
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
        if em.frac is not None:
            d["frac"] = [em.frac.numerator, em.frac.denominator]
    return d


def _elem_from_dict(d: dict) -> ElementaryMap:
    kind = MapKind(d["kind"])
    coeffs = tuple(complex(a, b) for a, b in d.get("coeffs", []))
    frac = None if d.get("frac") is None else Fraction(*d["frac"])
    return ElementaryMap(kind, coeffs, l=int(d.get("l", 0)),
                         theta=float(d.get("theta", 0.0)), frac=frac)


def map_to_json(m: AutoMap) -> str:
    return json.dumps({"pipeline": [_elem_to_dict(e) for e in m.pipeline]})


def map_from_json(text: str) -> AutoMap:
    """The map of a map_to_json text.  Of a legacy "fastpath" block only the
    theta_frac is read, into the final Theta generator."""
    obj = json.loads(text)
    try:
        pipeline = [_elem_from_dict(d) for d in obj["pipeline"]]
        frac = (obj.get("fastpath") or {}).get("theta_frac")
        if frac is not None and pipeline and pipeline[-1].kind == MapKind.THETA:
            pipeline[-1] = theta_rotation(pipeline[-1].theta, Fraction(*frac))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError('a map file is {"pipeline": [generator, ...]}, each with a "kind" '
                         f"and its fields: {type(exc).__name__} {exc}") from None
    return AutoMap(pipeline)
