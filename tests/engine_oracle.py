"""The orbit engine and its hooks as first written: one hook call per step.

``lockstep_iterate`` calls ``on_step(n, z, w)`` after every step and runs
the tol check in the same loop.  ``fatou.dynamics._lockstep_iterate`` runs
blocks of steps and hands each block's rows to vectorised hooks; it must
stop at the same steps, and every result built on it must equal the one
built here bit for bit.  The functions below are the per-step versions of
the dynamics entry points whose hooks changed; each returns what its
counterpart returns, or raises the same MapEscapeError.  The orbit CSV
writer here formats one cell at a time, as the CLI once did, and
``curve_crossings`` bisects each curve crossing with one one-seed run per
midpoint.
"""

import cmath
import math

import numpy as np

from fatou.dynamics import (
    ESCAPE_RADIUS,
    _escaped,
    from_transformed,
    sample_region,
    to_transformed,
)
from fatou.maps import MapEscapeError


def lockstep_iterate(step, z, w, tol, n_max, *, stride=1, check_every=64, on_step=None):
    """Returns (z, w, n_used, sup_delta); on_step returns True to stop."""
    z = np.array(z, dtype=complex)
    w = np.array(w, dtype=complex)
    n = 0
    since_check = 0
    sup_delta = math.inf
    with np.errstate(all="ignore"):
        while n < n_max:
            z1, w1 = z, w
            for _ in range(stride):
                z1, w1 = step(z1, w1)
            z_prev, w_prev, z, w = z, w, z1, w1
            n += stride
            if on_step is not None and on_step(n, z, w):
                break
            since_check += 1
            if tol is not None and (since_check == check_every or n >= n_max):
                since_check = 0
                deltas = np.maximum(np.abs(z - z_prev), np.abs(w - w_prev))
                sup_delta = float(np.fmax.reduce(deltas, axis=None))
                if sup_delta < tol:
                    break
    return z, w, n, sup_delta


def iterate(m, seed, n_max, record_every=1, *, transformed=False, region=None,
            stop_tol=1e-12):
    """(rows, escaped, stop_reason, n_performed); a row is (n, z, w, zhat, in_region)."""
    z0, w0 = complex(seed[0]), complex(seed[1])
    if transformed:
        z0 = complex(from_transformed(np.complex128(z0)))
    steps = []
    escaped = False
    last = (0, np.array([z0]), np.array([w0]))   # the last finite step

    def record(n, z, w):
        zh = complex(to_transformed(z)[0])
        wn = complex(w[0])
        steps.append((n, complex(z[0]), wn, zh,
                      bool(region.contains(zh, wn)) if region else None))

    def on_step(n, z, w):
        nonlocal escaped, last
        zn, wn = complex(z[0]), complex(w[0])
        if cmath.isfinite(zn) and cmath.isfinite(wn):  # else stop before this step
            last = (n, z, w)
            if n % record_every == 0 or n == n_max:
                record(n, z, w)
        escaped = not (abs(zn) <= ESCAPE_RADIUS and abs(wn) <= ESCAPE_RADIUS)
        return escaped

    record(*last)
    sup_delta = lockstep_iterate(m.eval_batch, last[1], last[2], stop_tol, n_max,
                                 check_every=1, on_step=on_step)[3]
    n_done, z, w = last
    converged = stop_tol is not None and sup_delta < stop_tol
    reason = "escaped" if escaped else "converged" if converged else "completed"
    if steps[-1][0] != n_done:
        record(n_done, z, w)
    return steps, escaped, reason, n_done


def orbit_csv_text(rows):
    """The CSV body of iterate's rows: 17 significant digits per float cell."""
    lines = []
    for n, z, w, zh, inside in rows:
        row = (n, z.real, z.imag, w.real, w.imag, zh.real, zh.imag,
               "" if inside is None else int(inside))
        lines.append(",".join(format(float(x), ".17g") if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def raise_on_escape(m, zhat, w0, escaped, n_used, label, z0=None):
    idx = np.flatnonzero(escaped)
    if idx.size == 0:
        return
    zh = np.ravel(zhat)[idx]
    w0 = np.asarray(w0, dtype=complex).ravel()[idx]
    z0 = from_transformed(zh) if z0 is None else np.ravel(z0)[idx]
    steps = np.zeros(idx.size, dtype=int)

    def on_step(n, z, w):
        steps[(steps == 0) & _escaped(z, w)] = n
        return steps.all()

    lockstep_iterate(m.eval_batch, z0, w0, None, n_used, on_step=on_step)
    steps[steps == 0] = n_used
    node = ((lambda i: f"node {divmod(int(i), np.shape(zhat)[1])}")
            if np.ndim(zhat) == 2 else (lambda i: f"seed {int(i)}"))
    named = ", ".join(f"{node(i)} (zhat, w) = ({a}, {b}) at step {n}"
                      for i, a, b, n in list(zip(idx, zh, w0, steps))[:4])
    raise MapEscapeError(
        (complex(zh[0]), complex(w0[0])),
        f"{idx.size} of {np.size(escaped)} {label} escaped (not finite or "
        f"beyond {ESCAPE_RADIUS:g}) within {n_used} steps: {named}"
        + (", ..." if idx.size > 4 else ""))


def check_growth_bounds(m, zhat0, w0, n_steps):
    zhat0 = np.asarray(zhat0, dtype=complex)
    base = np.abs(zhat0)
    lower_margin = np.inf
    upper_margin = np.inf
    lower_viol = 0
    upper_viol = 0

    def on_step(n, z, w):
        nonlocal lower_margin, upper_margin, lower_viol, upper_viol
        zh = np.abs(to_transformed(z))
        lo = zh - n / 2.0
        hi = base + 2.0 * n - zh
        lower_viol += int(np.sum(lo < 0))
        upper_viol += int(np.sum(hi < 0))
        lower_margin = min(lower_margin, float(lo.min()))
        upper_margin = min(upper_margin, float(hi.min()))

    z, w, n, _ = lockstep_iterate(m.eval_batch, from_transformed(zhat0), w0, None,
                                  n_steps, on_step=on_step)
    raise_on_escape(m, zhat0, w0, _escaped(z, w), n, "growth-bound seeds")
    return {
        "ok": lower_viol == 0 and upper_viol == 0,
        "lower_violations": lower_viol,
        "upper_violations": upper_viol,
        "min_lower_margin": lower_margin,
        "min_upper_margin": upper_margin,
        "n_steps": n_steps,
    }


def forward_invariance_violations(m, region, samples, n_steps, *, offset=0):
    zhat, w = sample_region(region, samples, offset=offset, boundary_biased=True)
    alive = np.ones(samples, dtype=bool)
    violations = []

    def on_step(n, z, w):
        nonlocal alive
        zh = to_transformed(z)
        inside = region.contains(zh, w)
        newly_out = alive & ~inside
        if newly_out.any():
            for idx in np.nonzero(newly_out)[0]:
                violations.append((int(idx), n, complex(zh[idx]), complex(w[idx])))
            alive &= inside
        return not alive.any()

    lockstep_iterate(m.eval_batch, from_transformed(zhat), w, None, n_steps, on_step=on_step)
    return violations


def rotation_oscillation(m, grid, n_max):
    """(final w, the oscillation diagnostics) of the irrational-rotation path."""
    zhat, w0 = grid.seeds()
    burn = max(0, n_max - 2000)
    window = min(2000, n_max - burn) or 1
    mods = np.empty((window, w0.size))
    args = np.empty((window, w0.size))

    def on_step(n, z, w):
        if n > burn:
            mods[n - burn - 1] = np.abs(w)
            args[n - burn - 1] = np.angle(w)

    z, w, n_used, _ = lockstep_iterate(m.eval_batch, from_transformed(zhat).ravel(),
                                       w0.ravel(), None, burn + window, on_step=on_step)
    raise_on_escape(m, zhat, w0, _escaped(z, w), n_used, "grid seeds")
    tail_var = float(np.max(mods.max(axis=0) - mods.min(axis=0)))
    bins = np.floor((args + np.pi) / (2 * np.pi) * 1000).astype(int) % 1000
    distinct = min(len(np.unique(bins[:, j])) for j in range(w.size))
    return w, {
        "modulus_tail_variation": tail_var,
        "modulus_limits": np.sort(mods[-1]).tolist()[:4],
        "distinct_arguments": int(distinct),
        "window": window,
    }


def curve_polylines(m, p, segments_per_step, n_max):
    """The rows F^n(segment from p to F(p)), n = 0 .. n_max, of invariant_curve."""
    z0, w0 = complex(p[0]), complex(p[1])
    f_p = m.eval(z0, w0)
    t = np.linspace(0.0, 1.0, segments_per_step + 1)
    poly_z = np.empty((n_max + 1, t.size), dtype=complex)
    poly_w = np.empty_like(poly_z)
    poly_z[0] = z0 + t * (f_p[0] - z0)
    poly_w[0] = w0 + t * (f_p[1] - w0)

    def on_step(n, z, w):
        poly_z[n] = z
        poly_w[n] = w

    lockstep_iterate(m.eval_batch, poly_z[0], poly_w[0], None, n_max, on_step=on_step)
    raise_on_escape(m, to_transformed(poly_z[0]), poly_w[0],
                    _escaped(poly_z[-1], poly_w[-1]), n_max, "curve points", poly_z[0])
    return poly_z, poly_w


def curve_crossings(m, p, q_target, segments_per_step, poly_z, poly_w, eps, bisect_tol):
    """(sphere_hits, hit_params) of invariant_curve from its rows: each
    crossing bisected one midpoint at a time, each image a one-seed run."""
    z0, w0 = complex(p[0]), complex(p[1])
    f_p = m.eval(z0, w0)
    t = np.linspace(0.0, 1.0, segments_per_step + 1)
    qz, qw = complex(q_target[0]), complex(q_target[1])

    def radius(zv, wv):
        return np.sqrt(np.abs(zv - qz) ** 2 + np.abs(wv - qw) ** 2)

    def image(tt, n):
        zz = z0 + tt * (f_p[0] - z0)
        ww = w0 + tt * (f_p[1] - w0)
        return lockstep_iterate(m.eval_batch, [zz], [ww], None, n)[:2]

    hits, params = [], []
    g = radius(poly_z, poly_w) - eps
    for n, k in zip(*np.nonzero(g[:, :-1] * g[:, 1:] < 0)):
        lo, hi = t[k], t[k + 1]
        f_lo = float(radius(*image(lo, n))[0]) - eps
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            f_mid = float(radius(*image(mid, n))[0]) - eps
            if (f_lo < 0) == (f_mid < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        tt = 0.5 * (lo + hi)
        zz, ww = image(tt, n)
        hits.append((complex(zz[0]), complex(ww[0])))
        params.append((int(n), tt))
    return hits, params


def product_sum_run(m, zhat, w, n_max, tol, record_every):
    """(P, S, defect, n_used, partials), the defect hooked on every step."""
    zhat = np.ravel(np.asarray(zhat, dtype=complex))
    w0 = np.array(np.ravel(w), dtype=complex)
    P = np.ones_like(w0)
    S = np.zeros_like(w0)
    zz = np.empty((2,) + w0.shape, dtype=complex)   # rows (z, 0) and (z, w)
    ww = np.zeros_like(zz)
    defect = 0.0
    partials = []

    def step(z, w):
        nonlocal P, S
        zz[:] = z
        ww[1] = w
        zo, wo = m.eval_batch(zz, ww)
        s = wo[0]
        mult = np.where(w != 0, (wo[1] - s) / np.where(w != 0, w, 1.0), 1.0 + 0j)
        P = P * mult
        S = S * mult + s
        return zo[1], wo[1]

    def on_step(n, z, w):
        nonlocal defect
        d = np.abs(w - (w0 * P + S)) / np.maximum(1.0, np.abs(w))  # rounding drift
        defect = max(defect, float(np.fmax.reduce(d, axis=None)))
        if record_every and (n % record_every == 0 or n == n_max):
            partials.append((n, P, S))

    z, w, n_used, _ = lockstep_iterate(step, from_transformed(zhat), w0, tol, n_max,
                                       on_step=on_step)
    escaped = _escaped(z, w) | ~(np.isfinite(P) & np.isfinite(S))
    raise_on_escape(m, zhat, w0, escaped, n_used, "product/sum seeds")
    return P, S, defect, n_used, partials
