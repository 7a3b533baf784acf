"""The closed-form step kernel of the Bl-conjugated presets as first written.

It evaluates the formula with plain numpy expressions, two errstate blocks
and the axis-limit selection on every call.  ``fatou.maps._fast_forward``
must give bitwise the same z and w: same float operations, same operand
order.  Kept here as the reference that tests compare the fused kernel
against.
"""

import cmath

import numpy as np

from fatou.maps import AXIS_THRESHOLD


def poly_tail(coeffs, x, start):
    """sum_k coeffs[k] * x^(start+k), Horner form."""
    if not coeffs:
        return np.zeros_like(x)
    acc = np.zeros_like(x) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc * x**start


def cexpm1(x):
    """exp(x) - 1 for complex arrays without cancellation near 0."""
    xr = np.real(x)
    xi = np.imag(x)
    return (np.expm1(xr) * np.cos(xi) - 2.0 * np.sin(xi / 2.0) ** 2) + 1j * (
        np.sin(xi) * np.exp(xr)
    )


def fast_forward(fp, z, w):
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    l = fp.l
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        zl = z * z if l == 2 else z**l
        s = z + zl * w
        em1 = cexpm1(s)
        zA = z * (em1 + 1.0)
        u = np.exp(zA)
        zu = z * u
        brac = zl * w - z * em1 + poly_tail(fp.shear, zu, 2)
        expo = (l + 1) * zu - l * zA
        if fp.overshear:
            expo = expo + poly_tail(fp.overshear, zu, 1)
        w1 = (brac / zl) * np.exp(expo)
    rot = cmath.exp(1j * fp.theta) if fp.theta else 1.0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if fp.theta:
            w1 = w1 * rot
        az = np.abs(z)
        axis = (az < AXIS_THRESHOLD) | ((zl == 0) & (az < np.inf))
        z1 = np.where(axis, 0.0 * z, zu)
        w1 = np.where(axis, w * rot, w1)
    return z1, w1
