"""Explicit automorphisms of C^2 built from elementary generators.

A map is an ordered pipeline of generators (applied left to right):

    F1 (z, w+z)        F2 (z e^w, w)       F3 (z, w-z)       F4 (z e^-w, w)
    Shear (z, w+g(z))  Overshear (z, w e^f(z))  F6 (z, w e^{(l+1)z})
    Theta (z, e^{i t} w)   Bl (z, z^l w)   BlInverse (z, z^-l w)

The three preset maps conjugate a w-axis-fixing composition by Bl; the
resulting z^-l singularity is removable, and evaluation routes through an
algebraically simplified closed form (the ``fastpath``) so that the limit
value (0, w) on the w-axis is produced exactly and less precision is lost
than to the naive division for small |z| (see ``_fast_forward``).

One generator evaluator, _apply_elem, gives values (on numpy arrays) and
jets (on Series2 pairs).  AutoMap(m.pipeline) is m without its fast path,
the pipeline-only evaluator.  All evaluators accept numpy arrays and
broadcast elementwise; AutoMap values are immutable and evaluation is
pure, so maps can be shared across threads and grids evaluated in parallel.
"""

from __future__ import annotations

import cmath
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
    # BL_INV: singular on the w-axis; fastpath presets never reach this at z=0
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


# -- fastpath closed forms ---------------------------------------------------


class _KernelConstants:
    """What the step kernel multiplies by, as 0-d complex128 arrays: numpy
    broadcasts those faster than Python scalars, with the same result."""

    def __init__(self, fp):
        l = fp.l
        c0 = lambda v: np.array(v, dtype=np.complex128)
        self.shear = tuple(c0(a) for a in fp.shear)
        # (l+1) zu + f(zu) = zu (l+1 + c1 + c2 zu + ...): one Horner form
        over = fp.overshear or (0j,)
        self.expo = (c0(over[0] + (l + 1)),) + tuple(c0(c) for c in over[1:])
        self.rot = c0(cmath.exp(1j * fp.theta)) if fp.theta else None
        # z^l (and zu^l, zu = z there) can underflow to 0 only where
        # |z|^l < 1e-300
        self.guard = max(AXIS_THRESHOLD, 1e-300 ** (1.0 / l))


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
    consts: _KernelConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "consts", _KernelConstants(self))

    def rotation_order(self) -> int | None:
        """Denominator q when theta = 2 pi p/q, else None."""
        if self.theta_frac is None:
            return None
        return self.theta_frac.denominator


def _fast_forward(fp: FastPath, z, w):
    """One step of a Bl-conjugated preset in closed form: with s = z + z^l w
    and zu = z e^{z e^s}, the image is zu and
    (z^l w - z (e^s - 1) + g(zu)) / zu^l * e^{(l+1) zu + f(zu)} e^{i theta};
    the pipeline's factor e^{-l z e^s} / z^l is 1 / zu^l.

    The bracket cancels terms of size |z|^2 down to z^l w, so w carries an
    absolute error of a few eps |z|^(2-l): none at l = 2, but at l >= 3 it
    grows as the orbit nears the w-axis (the generator pipeline, dividing
    by z^l, is worse still).  No complex product writes over an operand, so
    a seed's image does not depend on the batch it is in (a one-element
    product in place takes a loop without the fused multiply-add).
    |z| < AXIS_THRESHOLD, or z^l underflow at finite z, takes the
    removable-singularity limit (0, e^{i theta} w); one reduction over |z|
    decides whether any seed needs that test.  Overflowed z stays on the
    escape path.
    """
    k = fp.consts
    with np.errstate(all="ignore"):
        zl = z * z if fp.l == 2 else z**fp.l
        zlw = zl * w
        zem1 = z * np.expm1(z + zlw)   # z (e^s - 1)
        zu = z * np.exp(z + zem1)
        brac = zlw - zem1
        zu2 = zu * zu
        brac += _horner(k.shear, zu) * zu2
        zul = zu2 if fp.l == 2 else zu**fp.l
        w1 = brac / zul * np.exp(zu * _horner(k.expo, zu))
        if k.rot is not None:
            w1 = w1 * k.rot
        az = np.abs(z)
        if np.fmin.reduce(az, axis=None, initial=np.inf) < k.guard:
            axis = (az < AXIS_THRESHOLD) | ((zl == 0) & (az < np.inf))
            zu = np.where(axis, 0.0 * z, zu)
            w1 = np.where(axis, w if k.rot is None else w * k.rot, w1)
    return zu, w1


# -- AutoMap ----------------------------------------------------------------


@dataclass(frozen=True)
class AutoMap:
    """Composable automorphism: pipeline of generators, applied in order."""

    pipeline: tuple
    fastpath: FastPath | None = None

    def __post_init__(self):
        object.__setattr__(self, "pipeline", tuple(self.pipeline))

    # -- evaluation ---------------------------------------------------

    def eval_batch(self, z, w):
        """Vectorized forward evaluation; nonfinite output marks escape."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        if self.fastpath is not None:
            return _fast_forward(self.fastpath, z, w)
        with np.errstate(all="ignore"):
            for em in self.pipeline:
                z, w = _apply_elem(em, z, w)
        return z, w

    def eval(self, z: complex, w: complex) -> tuple:
        """Forward evaluation at one point; raises MapEscapeError on overflow."""
        return _at_point(self.eval_batch, z, w)

    def eval_inverse_batch(self, z, w):
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        fp = self.fastpath
        # a fast path's w-axis (z = 0) divides by zero and is masked below
        with np.errstate(over="ignore", invalid="ignore", under="ignore",
                         divide=None if fp is None else "ignore"):
            zi, wi = z, w
            for em in reversed(self.pipeline):
                zi, wi = _apply_elem(_inverse_elem(em), zi, wi)
            if fp is None:
                return zi, wi
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
            q1, q2 = complex(at[0]), complex(at[1])
            Z = Z + Series2.const(work, q1)
            W = W + Series2.const(work, q2)
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
