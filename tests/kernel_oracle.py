"""Reference evaluators for the closed-form step kernel of the presets.

``fast_forward`` is the kernel as first written: the formula in plain numpy
expressions, with e^s - 1 split into real and imaginary parts, two errstate
blocks and the axis-limit selection on every call.  ``fatou.maps._fast_forward``
reorders its float operations, so tests bound its distance from this one in
ulps instead of asking for equal bits.  ``mp_step`` evaluates the generator
pipeline itself in mpmath, the truth both kernels are measured against.
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


def mp_step(m, z, w, dps=80):
    """One step of the generator pipeline m.pipeline at (z, w), in mpmath at
    dps digits; the coefficients and theta are the binary64 values the map
    holds.  The truth that the closed form and the pipeline both round."""
    import mpmath as mp

    from fatou.maps import MapKind as K

    with mp.workdps(dps):
        z, w = mp.mpc(z), mp.mpc(w)
        for em in m.pipeline:
            k = em.kind
            if k in (K.F2, K.F4):
                z = z * mp.exp(w if k == K.F2 else -w)
            elif k in (K.F1, K.F3):
                w = w + z if k == K.F1 else w - z
            elif k == K.SHEAR:
                w = w + sum(mp.mpc(c) * z**(i + 2) for i, c in enumerate(em.coeffs))
            elif k == K.OVERSHEAR:
                w = w * mp.exp(sum(mp.mpc(c) * z**(i + 1) for i, c in enumerate(em.coeffs)))
            elif k == K.F6:
                w = w * mp.exp((em.l + 1) * z)
            elif k == K.THETA:
                w = w * mp.expj(mp.mpf(em.theta))
            else:
                w = w * z**em.l if k == K.BL else w / z**em.l
        return complex(z), complex(w)
