"""Orbit iteration and limit-map verification in the invariant half-plane region.

Orbits run in the original coordinates, where the preset maps are entire;
the natural chart for the invariant region is the transformed one,
z -> -1/z, in which the region U_{N,M} = {Re z > N, |w| < M} is a
half-plane times a disk and the first coordinate advances by roughly one
per step.  Seeds for regions, grids and samplers are therefore given in
the transformed chart; orbit data records both charts.

All multi-seed operations iterate their seeds in lockstep (the same
number of steps for every seed).  Lockstep keeps runs deterministic and
makes the finite-step estimate of a limit map a single analytic map, so
finite-difference Jacobians across the grid measure the limit's rank
instead of per-seed stopping noise.

Limit-map Jacobians are taken in the transformed chart (the chart the
region lives in); the rank verdict is chart-independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .maps import AutoMap, MapEscapeError

__all__ = [
    "RegionUNM",
    "OrbitStep",
    "OrbitRecord",
    "Grid2D",
    "LimitMapEstimate",
    "InvarianceReport",
    "ProductSumTrack",
    "CoverageReport",
    "CurveResult",
    "halton",
    "sample_region",
    "to_transformed",
    "from_transformed",
    "iterate",
    "check_growth_bounds",
    "verify_forward_invariance",
    "find_min_invariant_N",
    "estimate_limit_map",
    "track_product_sum",
    "track_product_sum_batch",
    "waxis_coverage",
    "invariant_curve",
    "check_equivariance",
    "EMPIRICAL_MIN_N",
    "ORBIT_CSV_HEADER",
    "orbit_csv_rows",
]

ESCAPE_RADIUS = 1e100

# Empirically recorded sufficient N for forward invariance of U_{N,M}:
# smallest tested N with zero violations over 2x2000 boundary-biased samples
# run 2000 steps (rank0 also clean at 1000 x 10^4).  Existence of such an N
# is guaranteed; these values claim sufficiency, not minimality.  Keys are
# (preset kind, M).
EMPIRICAL_MIN_N = {
    ("rank0", 10.0): 6.0,
    ("rank1", 10.0): 50.0,
    ("rotation", 10.0): 50.0,
}


def to_transformed(z):
    """z -> -1/z (the chart where the region is a half-plane)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z == 0, np.inf + 0j, -1.0 / z)


def from_transformed(zhat):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zhat == 0, np.inf + 0j, -1.0 / zhat)


@dataclass(frozen=True)
class RegionUNM:
    """U_{N,M} = {Re z > N, |w| < M} in the transformed chart."""

    N: float
    M: float

    def __post_init__(self):
        if self.N <= 0 or self.M < 0:
            raise ValueError("need N > 0 and M >= 0")

    def contains(self, zhat, w):
        return (np.real(zhat) > self.N) & (np.abs(w) < self.M)


# -- deterministic sampling ---------------------------------------------------


def halton(count: int, base: int, offset: int = 0) -> np.ndarray:
    out = np.empty(count)
    for i in range(count):
        f, r, x = 1.0, 0.0, i + 1 + offset
        while x > 0:
            f /= base
            r += f * (x % base)
            x //= base
        out[i] = r
    return out


def sample_region(region: RegionUNM, count: int, *, re_span: float | None = None,
                  im_span: float | None = None, offset: int = 0,
                  boundary_biased: bool = False):
    """Deterministic low-discrepancy seeds (zhat, w) inside the region.

    The unbounded region is sampled over Re zhat in (N, N + re_span],
    Im zhat in [-im_span/2, im_span/2] and the w-disk.  With
    boundary_biased, half the samples sit within 1% of the two faces
    (alternating between Re zhat = N and |w| = M).
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if region.M == 0:
        raise ValueError("degenerate region: M = 0 has an empty w-disk")
    re_span = region.N if re_span is None else float(re_span)
    im_span = region.N if im_span is None else float(im_span)
    u = halton(count, 2, offset)
    v = halton(count, 3, offset)
    s = halton(count, 5, offset)
    t = halton(count, 7, offset)
    re = region.N + re_span * u
    im = im_span * (v - 0.5)
    wr = region.M * np.sqrt(s)
    wa = 2 * np.pi * t
    if boundary_biased:
        near_re = np.arange(count) % 4 == 0
        near_w = np.arange(count) % 4 == 2
        re = np.where(near_re, region.N + 0.01 * re_span * u, re)
        wr = np.where(near_w, region.M * (0.99 + 0.01 * s), wr)
    # stay strictly inside
    re = np.minimum(re, region.N + re_span)
    wr = np.minimum(wr, region.M * (1 - 1e-12))
    zhat = re + 1j * im
    w = wr * np.exp(1j * wa)
    return zhat, w


# -- orbit records -------------------------------------------------------------


@dataclass
class OrbitStep:
    n: int
    z: complex
    w: complex
    zhat: complex
    in_region: bool | None


@dataclass
class OrbitRecord:
    seed: tuple
    seed_transformed: tuple
    steps: list
    product_acc: complex     # running homogeneous multiplier product P_n
    sum_acc: complex         # running inhomogeneous remainder S_n
    escaped: bool
    stop_reason: str         # "completed" | "converged" | "escaped"
    n_performed: int
    region: RegionUNM | None


def iterate(m: AutoMap, seed, n_max: int, record_every: int = 1, *,
            transformed: bool = False, region: RegionUNM | None = None,
            stop_tol: float | None = 1e-12) -> OrbitRecord:
    """Iterate one seed, recording strides; accumulators update every step.

    The product/sum accumulators split each step into the homogeneous
    multiplier m_j = (w_{j+1} - s_j)/w_j and the inhomogeneous part
    s_j = pi_2(F(z_j, 0)), so that w_n = w_0 P_n + S_n identically.
    Stops early on escape (overflow is data, not an error) or when the
    step delta falls below stop_tol.  This is a one-seed run of the
    lockstep engine.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    z0, w0 = complex(seed[0]), complex(seed[1])
    if transformed:
        z0 = complex(from_transformed(np.complex128(z0)))
    steps = []
    radius_escape = False

    def record(n, z, w):
        zh = complex(to_transformed(z)[0])
        wn = complex(w[0])
        steps.append(OrbitStep(n, complex(z[0]), wn, zh,
                               bool(region.contains(zh, wn)) if region else None))

    def on_step(n, z, w, P, S):
        nonlocal radius_escape
        if n % record_every == 0 or n == n_max:
            record(n, z, w)
        radius_escape = max(abs(z[0]), abs(w[0])) > ESCAPE_RADIUS
        return radius_escape

    z, w = np.array([z0]), np.array([w0])
    record(0, z, w)
    z, w, n_done, sup_delta, P, S = _lockstep_iterate(
        m, z, w, stop_tol, n_max, check_every=1, track_products=True,
        on_step=on_step, finite_only=True)
    converged = stop_tol is not None and sup_delta < stop_tol
    escaped = radius_escape or (n_done < n_max and not converged)
    reason = "escaped" if escaped else "converged" if converged else "completed"
    if steps[-1].n != n_done:
        record(n_done, z, w)
    return OrbitRecord((z0, w0), (complex(to_transformed(np.complex128(z0))), w0),
                       steps, complex(P[0]), complex(S[0]), escaped, reason,
                       n_done, region)


ORBIT_CSV_HEADER = ("n", "re_z", "im_z", "re_w", "im_w",
                    "re_z_transformed", "im_z_transformed", "in_U")


def orbit_csv_rows(record: OrbitRecord):
    for s in record.steps:
        yield (s.n, s.z.real, s.z.imag, s.w.real, s.w.imag,
               s.zhat.real, s.zhat.imag,
               "" if s.in_region is None else int(s.in_region))


# -- vectorized engines -------------------------------------------------------


def _escaped(z, w):
    """Points that are not finite or lie beyond ESCAPE_RADIUS."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (~(np.isfinite(z) & np.isfinite(w))
                | (np.abs(z) > ESCAPE_RADIUS) | (np.abs(w) > ESCAPE_RADIUS))


def check_growth_bounds(m: AutoMap, zhat0, w0, n_steps: int):
    """Track n/2 <= |zhat_n| <= |zhat_0| + 2n along transformed orbits.

    Seeds are transformed-chart; iteration happens in original coordinates.
    Returns a dict with violation counts and the worst margins.
    """
    zhat0 = np.asarray(zhat0, dtype=complex)
    base = np.abs(zhat0)
    lower_margin = np.inf
    upper_margin = np.inf
    lower_viol = 0
    upper_viol = 0

    def on_step(n, z, w, P, S):
        nonlocal lower_margin, upper_margin, lower_viol, upper_viol
        zh = np.abs(to_transformed(z))
        lo = zh - n / 2.0
        hi = base + 2.0 * n - zh
        lower_viol += int(np.sum(lo < 0))
        upper_viol += int(np.sum(hi < 0))
        lower_margin = min(lower_margin, float(lo.min()))
        upper_margin = min(upper_margin, float(hi.min()))

    _lockstep_iterate(m, from_transformed(zhat0), w0, None, n_steps, on_step=on_step)
    return {
        "ok": lower_viol == 0 and upper_viol == 0,
        "lower_violations": lower_viol,
        "upper_violations": upper_viol,
        "min_lower_margin": lower_margin,
        "min_upper_margin": upper_margin,
        "n_steps": n_steps,
    }


@dataclass
class InvarianceReport:
    region: RegionUNM
    samples: int
    n_steps: int
    violations: list  # (sample_index, step, zhat, w)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_forward_invariance(m: AutoMap, region: RegionUNM, samples: int,
                              n_steps: int, *, re_span: float | None = None,
                              im_span: float | None = None,
                              offset: int = 0) -> InvarianceReport:
    """Iterate a boundary-biased deterministic sample and record exits.

    The violations list is empty iff every sampled orbit stays in U for
    n_steps.  Orbits that exit are frozen at the exit step.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    zhat, w = sample_region(region, samples, re_span=re_span, im_span=im_span,
                            offset=offset, boundary_biased=True)
    alive = np.ones(samples, dtype=bool)
    violations = []

    def on_step(n, z, w, P, S):
        nonlocal alive
        zh = to_transformed(z)
        inside = region.contains(zh, w)
        newly_out = alive & ~inside
        if newly_out.any():
            for idx in np.nonzero(newly_out)[0]:
                violations.append((int(idx), n, complex(zh[idx]), complex(w[idx])))
            alive &= inside
        return not alive.any()

    _lockstep_iterate(m, from_transformed(zhat), w, None, n_steps, on_step=on_step)
    return InvarianceReport(region, samples, n_steps, violations)


def find_min_invariant_N(m: AutoMap, M: float, candidates, samples: int = 500,
                         n_steps: int = 1000) -> float:
    """Smallest candidate N whose U_{N,M} verifies forward invariant."""
    for N in sorted(candidates):
        rep = verify_forward_invariance(m, RegionUNM(N, M), samples, n_steps)
        if rep.ok:
            return float(N)
    raise ValueError("no candidate N verified invariant; extend the list upward")


# -- limit maps ----------------------------------------------------------------


@dataclass(frozen=True)
class Grid2D:
    """Structured seed grid in the transformed chart.

    Nodes are zhat = zhat0 + i*step (i < nz) crossed with w = w0 + j*step
    (j < nw); real spacing in both directions, as the finite-difference
    Jacobian requires.
    """

    zhat0: complex
    w0: complex
    nz: int
    nw: int
    step: float

    def seeds(self):
        i = np.arange(self.nz)[:, None]
        j = np.arange(self.nw)[None, :]
        zhat = self.zhat0 + i * self.step + 0j * j
        w = self.w0 + j * self.step + 0j * i
        return zhat, w


@dataclass
class LimitMapEstimate:
    grid: Grid2D
    limits_z: np.ndarray        # original coordinates, shape (nz, nw)
    limits_w: np.ndarray
    iterations_used: int
    sup_step_delta: float
    converged: np.ndarray       # per-seed flags
    s1: np.ndarray | None       # singular values at interior nodes
    s2: np.ndarray | None
    numerical_rank: int | None
    tau1: float
    tau2: float
    stop_reason: str
    rotation_order: int | None = None
    oscillation: dict | None = None


def _lockstep_iterate(m: AutoMap, z, w, tol: float | None, n_max: int, *,
                      stride: int = 1, check_every: int = 64,
                      track_products: bool = False, on_step=None,
                      finite_only: bool = False):
    """Advance all seeds together until every step delta is below tol.

    The one orbit engine of the module: one kernel call per map step.
    stride > 1 iterates the stride-th power of the map (subsequence mode).
    The sup of the last step's deltas is checked every check_every steps
    and at n_max; tol None runs all n_max steps.  track_products splits
    each step as w' = mult w + s, s = pi_2(F(z, 0)), into P = prod mult
    and S, so that w_n = w_0 P_n + S_n; the kernel then runs on the stacked
    rows (z, 0) and (z, w).  on_step(n, z, w, P, S) runs after every step
    and returns True to stop.  finite_only (with track_products, stride 1)
    stops before a step whose kernel output is not finite.
    Returns (z, w, n_used, sup_delta, P, S).
    """
    z = np.array(z, dtype=complex)
    w = np.array(w, dtype=complex)
    P = np.ones_like(w)
    S = np.zeros_like(w)
    zz = np.empty((2,) + z.shape, dtype=complex)   # rows (z, 0) and (z, w)
    ww = np.zeros_like(zz)
    n = 0
    since_check = 0
    sup_delta = math.inf
    with np.errstate(all="ignore"):
        while n < n_max:
            z1, w1 = z, w
            for _ in range(stride):
                if not track_products:
                    z1, w1 = m.eval_batch(z1, w1)
                    continue
                zz[:] = z1
                ww[1] = w1
                zo, wo = m.eval_batch(zz, ww)
                if finite_only and not (np.isfinite(zo).all() and np.isfinite(wo).all()):
                    return z, w, n, sup_delta, P, S
                s_j = wo[0]
                mult = np.where(w1 != 0, (wo[1] - s_j) / np.where(w1 != 0, w1, 1.0), 1.0 + 0j)
                P = P * mult
                S = S * mult + s_j
                z1, w1 = zo[1], wo[1]
            z_prev, w_prev, z, w = z, w, z1, w1
            n += stride
            if on_step is not None and on_step(n, z, w, P, S):
                break
            since_check += 1
            if tol is not None and (since_check == check_every or n >= n_max):
                since_check = 0
                deltas = np.maximum(np.abs(z - z_prev), np.abs(w - w_prev))
                sup_delta = float(np.fmax.reduce(deltas, axis=None))
                if sup_delta < tol:
                    break
    return z, w, n, sup_delta, P, S


def _identity_defect(w0, w, P, S) -> float:
    """max |w_n - (w_0 P_n + S_n)| / max(1, |w_n|): the split's rounding drift."""
    d = np.abs(w - (w0 * P + S)) / np.maximum(1.0, np.abs(w))
    return float(np.fmax.reduce(d, axis=None))


def estimate_limit_map(m: AutoMap, grid: Grid2D, tol: float = 1e-12,
                       n_max: int = 10**6, *, tau1: float = 1e-4,
                       tau2: float = 1e-7) -> LimitMapEstimate:
    """Per-seed limits with a finite-difference rank verdict.

    Seeds iterate in lockstep until every step delta is below tol (or n_max
    is hit, flagged per seed).  The Jacobian of the finite-step limit is
    taken over the grid spacing in the transformed chart and its singular
    values (closed-form 2x2 SVD via numpy) feed the rank thresholds.

    Rotation presets switch to subsequence mode: for a rational rotation
    number p/q the subsequence n = 0 mod q converges and is used; for an
    irrational one no limit map exists and the estimate reports modulus
    convergence and argument equidistribution diagnostics instead.
    """
    fp = m.fastpath
    if fp is not None and fp.kind == "rotation":
        q = fp.rotation_order()
        if q is None:
            return _rotation_oscillation_estimate(m, grid, tol, n_max, tau1, tau2)
        zhat, w = grid.seeds()
        z = np.asarray(from_transformed(zhat))
        z, w, n_used, sup_delta, _, _ = _lockstep_iterate(
            m, z.ravel(), w.ravel(), tol, n_max, stride=q)
        _raise_on_escape(m, grid, z, w, n_used, q)
        shape = (grid.nz, grid.nw)
        endz = z.reshape(shape)
        endw = w.reshape(shape)
        est = _finish_estimate(m, grid, endz, endw, n_used, sup_delta, tol,
                               tau1, tau2, n_max)
        est.rotation_order = q
        return est
    zhat, w = grid.seeds()
    z = np.asarray(from_transformed(zhat))
    z, w, n_used, sup_delta, _, _ = _lockstep_iterate(
        m, z.ravel(), w.ravel(), tol, n_max)
    _raise_on_escape(m, grid, z, w, n_used)
    shape = (grid.nz, grid.nw)
    return _finish_estimate(m, grid, z.reshape(shape), w.reshape(shape),
                            n_used, sup_delta, tol, tau1, tau2, n_max)


def _raise_on_escape(m, grid, z, w, n_used, stride=1):
    """Raise MapEscapeError naming the grid nodes whose orbits escaped.

    z, w are the lockstep end points; the escaped seeds alone are run again
    to find the step at which each escaped.
    """
    idx = np.flatnonzero(_escaped(z, w))
    if idx.size == 0:
        return
    zhat, w0 = (a.ravel()[idx] for a in grid.seeds())
    steps = np.zeros(idx.size, dtype=int)

    def on_step(n, z, w, P, S):
        steps[(steps == 0) & _escaped(z, w)] = n
        return steps.all()

    _lockstep_iterate(m, from_transformed(zhat), w0, None, n_used, stride=stride,
                      on_step=on_step)
    steps[steps == 0] = n_used
    named = ", ".join(
        f"node {divmod(int(i), grid.nw)} (zhat, w) = ({zh}, {ww}) at step {n}"
        for i, zh, ww, n in list(zip(idx, zhat, w0, steps))[:4])
    raise MapEscapeError(
        (complex(zhat[0]), complex(w0[0])),
        f"{idx.size} of {grid.nz * grid.nw} grid seeds escaped (not finite or "
        f"beyond {ESCAPE_RADIUS:g}) within {n_used} steps: {named}"
        + (", ..." if idx.size > 4 else ""))


def _finish_estimate(m, grid, limz, limw, n_used, sup_delta, tol, tau1, tau2,
                     n_max) -> LimitMapEstimate:
    converged = np.full(limz.shape, sup_delta < tol)
    s1 = s2 = None
    rank = None
    if grid.nz >= 3 and grid.nw >= 3:
        h = grid.step
        dz_dzh = (limz[2:, 1:-1] - limz[:-2, 1:-1]) / (2 * h)
        dz_dw = (limz[1:-1, 2:] - limz[1:-1, :-2]) / (2 * h)
        dw_dzh = (limw[2:, 1:-1] - limw[:-2, 1:-1]) / (2 * h)
        dw_dw = (limw[1:-1, 2:] - limw[1:-1, :-2]) / (2 * h)
        J = np.stack(
            [np.stack([dz_dzh, dz_dw], axis=-1), np.stack([dw_dzh, dw_dw], axis=-1)],
            axis=-2,
        )
        svals = np.linalg.svd(J, compute_uv=False)
        s1 = svals[..., 0]
        s2 = svals[..., 1]
        s1_med = float(np.median(s1))
        s2_med = float(np.median(s2))
        if s1_med < tau1:
            rank = 0
        elif s2_med < tau2:
            rank = 1
        else:
            rank = 2
    return LimitMapEstimate(grid, limz, limw, n_used, sup_delta, converged,
                            s1, s2, rank, tau1, tau2,
                            "converged" if sup_delta < tol else "max_iterations")


def _rotation_oscillation_estimate(m, grid, tol, n_max, tau1, tau2):
    """Irrational rotation: the full sequence does not converge; report the
    modulus limit and argument statistics over a tail window."""
    zhat, w = grid.seeds()
    burn = max(0, n_max - 2000)
    window = min(2000, n_max - burn) or 1
    mods = np.empty((window, w.size))
    args = np.empty((window, w.size))

    def on_step(n, z, w, P, S):
        if n > burn:
            mods[n - burn - 1] = np.abs(w)
            args[n - burn - 1] = np.angle(w)

    z, w, _, _, _, _ = _lockstep_iterate(
        m, from_transformed(zhat).ravel(), w.ravel(), None, burn + window, on_step=on_step)
    tail_var = float(np.max(mods.max(axis=0) - mods.min(axis=0)))
    bins = np.floor((args + np.pi) / (2 * np.pi) * 1000).astype(int) % 1000
    distinct = min(len(np.unique(bins[:, j])) for j in range(w.size))
    shape = (grid.nz, grid.nw)
    return LimitMapEstimate(
        grid, np.full(shape, np.nan + 0j), w.reshape(shape).copy(),
        burn + window, math.inf, np.zeros(shape, dtype=bool), None, None, None,
        tau1, tau2, "no_limit_full_sequence", None,
        {
            "modulus_tail_variation": tail_var,
            "modulus_limits": np.sort(mods[-1]).tolist()[:4],
            "distinct_arguments": int(distinct),
            "window": window,
        },
    )


@dataclass
class ProductSumTrack:
    P: complex
    S: complex
    partials: list        # (n, P_n, S_n) at recorded strides
    identity_defect: float
    cauchy_ok: bool
    n_performed: int


def track_product_sum(m: AutoMap, seed_transformed, n_max: int,
                      record_every: int | None = None) -> ProductSumTrack:
    """Split w_n = w_0 P_n + S_n along one orbit and track both limits.

    P multiplies the per-step homogeneous multiplier (the difference
    quotient against the w = 0 fiber), S accumulates the rest; the split is
    exact by construction and the tracked identity defect is the rounding
    drift between the two recurrences.  Both partial sequences must be
    Cauchy (dyadic tails decreasing) or a diagnostic error is raised.
    """
    zh, w0 = complex(seed_transformed[0]), complex(seed_transformed[1])
    record_every = record_every or max(1, n_max // 64)
    partials = []
    w0_row = np.array([w0])
    defect = 0.0

    def on_step(n, z, w, P, S):
        nonlocal defect
        if not (cmath.isfinite(P[0]) and cmath.isfinite(S[0])):
            raise MapEscapeError(
                (zh, w0), f"product/sum partials are not finite at step {n}: the "
                f"orbit of the seed (zhat, w) = ({zh}, {w0}) escaped")
        defect = max(defect, _identity_defect(w0_row, w, P, S))
        if n % record_every == 0 or n == n_max:
            partials.append((n, complex(P[0]), complex(S[0])))

    _, _, n, _, P, S = _lockstep_iterate(
        m, from_transformed(np.array([zh])), w0_row, None, n_max,
        track_products=True, on_step=on_step)
    cauchy_ok = _dyadic_cauchy([p for _, p, _ in partials]) and _dyadic_cauchy(
        [s for _, _, s in partials]
    )
    if not cauchy_ok:
        raise ArithmeticError(
            "product/sum partials are not Cauchy within n_max; the seed is "
            "likely outside a verified region"
        )
    return ProductSumTrack(complex(P[0]), complex(S[0]), partials, defect,
                           cauchy_ok, n)


def track_product_sum_batch(m: AutoMap, zhat, w, n_max: int, tol: float = 0.0):
    """Vectorized product/sum split; returns (P, S, identity_defect, n_used)."""
    z = from_transformed(np.asarray(zhat, dtype=complex))
    w0 = np.array(np.ravel(w), dtype=complex)
    defect = 0.0

    def on_step(n, z, w, P, S):
        nonlocal defect
        defect = max(defect, _identity_defect(w0, w, P, S))

    z, w, n_used, _, P, S = _lockstep_iterate(
        m, z.ravel(), w0, tol, n_max, track_products=True, on_step=on_step)
    return P, S, defect, n_used


def _dyadic_cauchy(values) -> bool:
    # tail differences along the recorded partials must shrink
    if len(values) < 4:
        return True
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    half = len(diffs) // 2
    early = max(diffs[:half]) if diffs[:half] else 0.0
    late = max(diffs[half:])
    return late <= early * 0.9 + 1e-12


# -- argument-principle coverage ------------------------------------------------


@dataclass
class CoverageReport:
    R: float
    z0: complex
    windings: np.ndarray
    targets: np.ndarray
    covered: bool
    precondition_sup: float


def waxis_coverage(m: AutoMap, R: float, z0: complex, ring_samples: int = 256,
                   *, targets: int = 20, tol: float = 1e-8,
                   n_max: int = 10**5) -> CoverageReport:
    """Certify {0} x B(0,R) lies in the image of the limit map over
    {z0} x {|w| < 2R} by winding numbers of the boundary image.

    Precondition: sup over the circle |w| = 2R of |pi_2(h(z0, w)) - w| must
    be below R (h close to the identity in w); otherwise the caller is told
    to shrink |z0|.
    """
    if R <= 0:
        raise ValueError("R must be > 0")
    phis = 2 * np.pi * np.arange(ring_samples) / ring_samples
    w_circle = 2 * R * np.exp(1j * phis)
    z = np.full(ring_samples, complex(z0))
    z, w_img, n_used, sup_delta, _, _ = _lockstep_iterate(
        m, z, w_circle.copy(), tol, n_max)
    pre = float(np.max(np.abs(w_img - w_circle)))
    if not pre < R:
        raise ValueError(
            f"coverage precondition failed: sup |pi_2(h(z0,w)) - w| = {pre:.3g} "
            f">= R = {R}; shrink |z0| (push Re(-1/z0) further out)"
        )
    tg = np.zeros(targets, dtype=complex)
    tg[1:] = R * np.sqrt(halton(targets - 1, 2)) * np.exp(
        2j * np.pi * halton(targets - 1, 3))
    windings = np.empty(targets, dtype=int)
    for i, zeta in enumerate(tg):
        v = w_img - zeta
        ratios = np.roll(v, -1) / v
        total = float(np.sum(np.angle(ratios))) / (2 * np.pi)
        windings[i] = int(round(total))
        if abs(total - windings[i]) > 0.1:
            raise ArithmeticError(
                "winding sum far from an integer; raise ring_samples"
            )
    return CoverageReport(R, complex(z0), windings, tg,
                          bool(np.all(windings == 1)), pre)


# -- the invariant curve ---------------------------------------------------------


@dataclass
class CurveResult:
    polyline_z: np.ndarray   # shape (n_max+1, segments+1), original coordinates
    polyline_w: np.ndarray
    sphere_hits: list        # points (z, w) where the curve crosses the sphere
    hit_params: list         # (segment_index n, parameter t in [0,1])
    invariance_defect: float


def invariant_curve(m: AutoMap, p, q_target, segments_per_step: int,
                    n_max: int, eps: float, *, bisect_tol: float = 1e-10) -> CurveResult:
    """Push a seed segment through the iteration and locate sphere crossings.

    The curve starts as the straight segment from p to F(p) sampled at
    segments_per_step points; every forward image is one more unit of curve
    parameter.  Crossings of the sphere of radius eps around q_target are
    bisected in the segment parameter to bisect_tol.  invariance_defect is
    the largest distance from the generator-pipeline image of a row to the
    next row.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if segments_per_step < 2:
        raise ValueError("need at least 2 samples per step")
    z0, w0 = complex(p[0]), complex(p[1])
    f_p = m.eval(z0, w0)
    t = np.linspace(0.0, 1.0, segments_per_step + 1)
    poly_z = np.empty((n_max + 1, t.size), dtype=complex)
    poly_w = np.empty_like(poly_z)
    poly_z[0] = z0 + t * (f_p[0] - z0)
    poly_w[0] = w0 + t * (f_p[1] - w0)

    def on_step(n, z, w, P, S):
        if not (np.isfinite(z).all() and np.isfinite(w).all()):
            raise MapEscapeError((None, None), f"curve escaped at iterate {n}")
        poly_z[n] = z
        poly_w[n] = w

    _lockstep_iterate(m, poly_z[0], poly_w[0], None, n_max, on_step=on_step)
    qz, qw = complex(q_target[0]), complex(q_target[1])

    def radius(zv, wv):
        return np.sqrt(np.abs(zv - qz) ** 2 + np.abs(wv - qw) ** 2)

    def image(tt: float, n: int):
        # F^n of the seed-segment point at parameter tt
        zz = z0 + tt * (f_p[0] - z0)
        ww = w0 + tt * (f_p[1] - w0)
        return _lockstep_iterate(m, [zz], [ww], None, n)[:2]

    g = radius(poly_z, poly_w) - eps
    hits = []
    hit_params = []
    for n in range(poly_z.shape[0]):
        sign_change = np.nonzero(g[n, :-1] * g[n, 1:] < 0)[0]
        for k in sign_change:
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
            hit_params.append((n, tt))
    # invariance against the generator pipeline, which shares no code with
    # the closed-form kernel that made the rows; a block of rows at a time
    defect = 0.0
    for lo in range(0, n_max, 256):
        hi = min(lo + 256, n_max)
        img_z, img_w = m.eval_batch(poly_z[lo:hi], poly_w[lo:hi], use_fastpath=False)
        defect = max(defect, float(np.max(np.maximum(
            np.abs(img_z - poly_z[lo + 1:hi + 1]), np.abs(img_w - poly_w[lo + 1:hi + 1])))))
    return CurveResult(poly_z, poly_w, hits, hit_params, defect)


# -- equivariance -----------------------------------------------------------------


def check_equivariance(m: AutoMap, estimate: LimitMapEstimate, *,
                       tol: float | None = None, n_max: int | None = None) -> float:
    """max over the grid of ||h(F(p)) - F(h(p))||.

    h(F(p)) is re-estimated by iterating from F(p) with the same stopping
    rule; F(h(p)) applies the map to the stored limits.  Rotation estimates
    reuse their subsequence stride.
    """
    if estimate.stop_reason == "no_limit_full_sequence":
        raise ValueError(
            "equivariance needs a limit estimate; the full sequence of this "
            "rotation map does not converge (use a rational rotation order)"
        )
    tol = 1e-12 if tol is None else tol
    n_max = estimate.iterations_used + 10**6 if n_max is None else n_max
    stride = estimate.rotation_order or 1
    zhat, w = estimate.grid.seeds()
    z = np.asarray(from_transformed(zhat)).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    fz, fw = m.eval_batch(z, w)
    hz, hw, _, _, _, _ = _lockstep_iterate(m, fz, fw, tol, n_max, stride=stride)
    fhz, fhw = m.eval_batch(estimate.limits_z.ravel(), estimate.limits_w.ravel())
    defect = np.maximum(np.abs(hz - fhz), np.abs(hw - fhw))
    return float(np.max(defect))
