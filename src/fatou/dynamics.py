"""Orbit iteration and limit-map verification in the invariant half-plane region.

Orbits run in the original coordinates, where the preset maps are entire;
the natural chart for the invariant region is the transformed one,
z -> -1/z, in which the region U_{N,M} = {Re z > N, |w| < M} is a
half-plane times a disk and the first coordinate advances by roughly one
per step.  Seeds for regions, grids and samplers are therefore given in
the transformed chart; orbit data records both charts.  An OrbitRecord
holds its recorded steps as columns (n, z, w, zhat, in_region), and
orbit_csv_rows formats them as CSV text a chunk of rows at a time.

All multi-seed operations iterate their seeds in lockstep (the same
number of steps for every seed).  Lockstep keeps runs deterministic and
makes the finite-step estimate of a limit map a single analytic map, so
finite-difference Jacobians across the grid measure the limit's rank
instead of per-seed stopping noise.

Limit-map Jacobians are taken in the transformed chart (the chart the
region lives in); the rank verdict is chart-independent.

One engine, _lockstep_iterate, runs every orbit by iterating a step
function in blocks of steps, the q steps of check_equivariance included;
its hooks read a block's rows at a time.  Escape is data in iterate and
verify_forward_invariance; every other entry point raises MapEscapeError
through _raise_on_escape, naming the seeds and the step at which each
escaped.  The engine splits a wide hook-free run (estimate_limit_map,
track_product_sum_batch, waxis_coverage) over one forked child, with the
bits of one process; its step must then be pure.  See _in_halves.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .maps import _IN_ENGINE, AutoMap, MapEscapeError, _fast_arith, _fast_forward, eval_pipeline

__all__ = [
    "RegionUNM",
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
    "SplitRunError",
]

ESCAPE_RADIUS = 1e100

# steps between the engine's convergence checks, and the longest block
CHECK_EVERY = 64

# caps on the rows (z and w of each step in a block) that engine hooks read,
# and on the z rows a hook-free run holds for its once-a-block w-axis test
BLOCK_BYTES = 8 * 2**20
AXIS_ROW_BYTES = 2**17

# the fewest seeds at which a hook-free run splits over two processes
SPLIT_MIN_SEEDS = 1000

# rank thresholds on the median singular values of the limit's Jacobian:
# rank 0 if s1 < TAU1, else rank 1 if s2 < TAU2, else rank 2
TAU1 = 1e-4
TAU2 = 1e-7

# Empirically recorded N for forward invariance of U_{N,M}: smallest tested
# N with zero violations over 2x2000 boundary-biased samples run 2000 steps
# (rank0 also clean at 1000 x 10^4).  These values are sampled, not
# proven sufficient, and the rank1 and rotation entries fall short:
# rank1_map and rotation_map send (zhat, w) =
# (50.0001 + 49i, 10(1 - 1e-12) e^{2.33i}), a point of U_{50,10}, to
# |w_1| = 10.000779 in one step.  Keys are (preset kind, M).
EMPIRICAL_MIN_N = {
    ("rank0", 10.0): 6.0,
    ("rank1", 10.0): 50.0,
    ("rotation", 10.0): 50.0,
}


def to_transformed(z):
    """z -> -1/z (the chart where the region is a half-plane)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(z == 0, np.inf + 0j, -1.0 / z)


from_transformed = to_transformed  # z -> -1/z is an involution


@dataclass(frozen=True)
class RegionUNM:
    """U_{N,M} = {Re z > N, |w| < M} in the transformed chart."""

    N: float
    M: float

    def __post_init__(self):
        if not (0 < self.N < math.inf and 0 <= self.M < math.inf):  # NaN fails too
            raise ValueError("need finite N > 0 and M >= 0")

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
class OrbitRecord:
    """One seed's orbit; the recorded steps are the entries of five columns.

    n (int64); z, w and zhat = -1/z (complex128); in_region (bool), or
    None without a region.
    """

    seed: tuple
    seed_transformed: tuple
    n: np.ndarray
    z: np.ndarray
    w: np.ndarray
    zhat: np.ndarray
    in_region: np.ndarray | None
    escaped: bool
    stop_reason: str         # "completed" | "converged" | "escaped"
    n_performed: int
    region: RegionUNM | None


def iterate(m: AutoMap, seed, n_max: int, record_every: int = 1, *,
            transformed: bool = False, region: RegionUNM | None = None,
            stop_tol: float | None = 1e-12) -> OrbitRecord:
    """Iterate one seed, recording every record_every-th step and the last.

    A one-seed run of the lockstep engine.  Escape is data, not an error:
    the run stops after a step that leaves ESCAPE_RADIUS, or before a step
    whose image is not finite, and reports "escaped".  It also stops once
    the step delta falls below stop_tol ("converged").
    """
    if n_max < 0 or record_every < 1:
        raise ValueError("iterate needs n_max >= 0 and record_every >= 1")
    z0, w0 = complex(seed[0]), complex(seed[1])
    if transformed:
        z0 = complex(from_transformed(np.complex128(z0)))
    reason = "completed"
    last = (0, np.array([z0]), np.array([w0]))   # the last finite step
    parts = [(np.zeros(1, dtype=np.int64), last[1], last[2])]   # recorded (n, z, w)

    def on_block(n, zs, ws):
        # the first row that escapes or, with stop_tol, converges ends the run;
        # an escape wins a tie, and a non-finite row is not kept
        nonlocal reason, last
        z, w = zs[:, 0], ws[:, 0]
        k = len(z)
        esc = _escaped(z, w)
        e = int(esc.argmax()) if esc.any() else k
        c = k
        if stop_tol is not None:
            z_prev = np.concatenate((last[1], z[:-1]))
            w_prev = np.concatenate((last[2], w[:-1]))
            conv = np.maximum(np.abs(z - z_prev), np.abs(w - w_prev)) < stop_tol
            c = int(conv.argmax()) if conv.any() else k
        if e < k and e <= c:
            reason = "escaped"
        elif c < k:
            reason = "converged"
        end = min(e + 1, c + 1, k)
        kept = end - (not (np.isfinite(z[end - 1]) and np.isfinite(w[end - 1])))
        if kept:
            steps = np.arange(n - k + 1, n - k + 1 + kept)
            last = (int(steps[-1]), z[kept - 1:kept].copy(), w[kept - 1:kept].copy())
            rec = (steps % record_every == 0) | (steps == n_max)
            parts.append((steps[rec], z[:kept][rec], w[:kept][rec]))
        return reason != "completed"

    _lockstep_iterate(m.eval_batch, last[1], last[2], None, n_max, on_block=on_block)
    n_done = last[0]
    if n_done % record_every and n_done != n_max:   # the last step, unless recorded
        parts.append((np.array([n_done]), last[1], last[2]))
    ns, z, w = (np.concatenate(col) for col in zip(*parts))
    zhat = to_transformed(z)
    return OrbitRecord((z0, w0), (complex(to_transformed(np.complex128(z0))), w0),
                       ns, z, w, zhat, region.contains(zhat, w) if region else None,
                       reason == "escaped", reason, n_done, region)


ORBIT_CSV_HEADER = ("n", "re_z", "im_z", "re_w", "im_w",
                    "re_z_transformed", "im_z_transformed", "in_U")


def orbit_csv_rows(record: OrbitRecord):
    """The CSV body of an orbit as text, in chunks of up to 4096 rows; '%.17g'
    writes what format(x, '.17g') does, -0, inf and nan included."""
    for lo in range(0, record.n.size, 4096):
        rows = slice(lo, lo + 4096)
        z, w, zh = record.z[rows], record.w[rows], record.zhat[rows]
        inside = ([""] * z.size if record.in_region is None
                  else record.in_region[rows].astype(int).tolist())
        yield "".join(
            "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" % row
            for row in zip(record.n[rows].tolist(), z.real.tolist(), z.imag.tolist(),
                           w.real.tolist(), w.imag.tolist(), zh.real.tolist(),
                           zh.imag.tolist(), inside))


# -- vectorized engines -------------------------------------------------------


def _escaped(z, w):
    """Points that are not finite or lie beyond ESCAPE_RADIUS."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (~(np.isfinite(z) & np.isfinite(w))
                | (np.abs(z) > ESCAPE_RADIUS) | (np.abs(w) > ESCAPE_RADIUS))


def check_growth_bounds(m: AutoMap, zhat0, w0, n_steps: int):
    """Track n/2 <= |zhat_n| <= |zhat_0| + 2n along transformed orbits.

    Seeds are transformed-chart; iteration happens in original coordinates.
    Returns a dict with violation counts and the worst margins; an orbit
    that escapes raises MapEscapeError.
    """
    zhat0 = np.asarray(zhat0, dtype=complex)
    base = np.abs(zhat0)
    lower_margin = np.inf
    upper_margin = np.inf
    lower_viol = 0
    upper_viol = 0

    def on_block(n, zs, ws):
        nonlocal lower_margin, upper_margin, lower_viol, upper_viol
        ns = np.arange(n - len(zs) + 1, n + 1)[:, None]
        zh = np.abs(to_transformed(zs))
        lo = zh - ns / 2.0
        hi = base + 2.0 * ns - zh
        lower_viol += int(np.sum(lo < 0))
        upper_viol += int(np.sum(hi < 0))
        lower_margin = min(lower_margin, float(lo.min()))
        upper_margin = min(upper_margin, float(hi.min()))

    z, w, n, _ = _lockstep_iterate(m.eval_batch, from_transformed(zhat0), w0, None,
                                   n_steps, on_block=on_block)
    _raise_on_escape(m, zhat0, w0, _escaped(z, w), n, "growth-bound seeds")
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
                              n_steps: int, *, offset: int = 0) -> InvarianceReport:
    """Iterate a boundary-biased deterministic sample and record exits.

    The violations list is empty iff every sampled orbit stays in U for
    n_steps.  The engine steps an orbit on after it exits; the alive mask
    records each seed's first exit.  An escape is an exit, not an error.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    zhat, w = sample_region(region, samples, offset=offset, boundary_biased=True)
    alive = np.ones(samples, dtype=bool)
    violations = []

    def on_block(n, zs, ws):
        # each seed's first exit, in the order of (step, sample index)
        zh = to_transformed(zs)
        row, idx = np.nonzero(alive & ~region.contains(zh, ws))
        first = np.sort(np.unique(idx, return_index=True)[1])
        n0 = n - len(zs) + 1
        violations.extend((int(i), n0 + int(r), complex(zh[r, i]), complex(ws[r, i]))
                          for r, i in zip(row[first], idx[first]))
        alive[idx] = False
        return not alive.any()

    _lockstep_iterate(m.eval_batch, from_transformed(zhat), w, None, n_steps,
                      on_block=on_block)
    return InvarianceReport(region, samples, n_steps, violations)


def find_min_invariant_N(m: AutoMap, M: float, candidates, samples: int = 500,
                         n_steps: int = 1000) -> float:
    """Smallest candidate N whose U_{N,M} verifies forward invariant: a
    sampled value (verify_forward_invariance), not a proof of invariance."""
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

    def __post_init__(self):
        if self.nz < 1 or self.nw < 1 or not 0 < self.step < math.inf:
            raise ValueError(f"grid {self.nz}x{self.nw} at step {self.step}: "
                             "needs nz, nw >= 1 and a finite step > 0")

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
    s1: np.ndarray | None       # singular values at interior nodes
    s2: np.ndarray | None
    numerical_rank: int | None
    stop_reason: str            # "converged" | "max_iterations" | "no_limit_full_sequence"
    rotation_order: int | None = None
    oscillation: dict | None = None


def _lockstep_iterate(step, z, w, tol: float | None, n_max: int, *,
                      stride: int = 1, on_block=None, carry=()):
    """Advance all seeds together until every step delta is below tol.

    The one orbit engine of the module: step(z, w, *carry) -> (z', w',
    *carry') is one map step on arrays of seeds (AutoMap.eval_batch, or the
    product/sum step), where carry holds extra per-seed arrays that ride
    along.  stride > 1 iterates the stride-th power of the map (subsequence
    mode).  The seeds advance in blocks of CHECK_EVERY strides, in one loop
    that steps and, for a hook, copies each state into row buffers.  After
    each block, and at n_max, on_block(n, zs, ws, *carry_rows) sees the
    block's k rows of every state array (row i is the state after step
    n - (k-1-i)*stride) and returns True to stop; so the engine may run up
    to CHECK_EVERY - 1 strides past the step at which a hook stops.  The
    buffers hold at most BLOCK_BYTES, down to one row: a big batch gets
    shorter blocks that divide CHECK_EVERY.  The sup of the last step's
    deltas of z and w is checked every CHECK_EVERY strides and at n_max;
    tol None runs all n_max steps.  Escaped seeds ride along as non-finite
    data.  Returns (z, w, *carry, n_used, sup_delta).

    Where step shows the map's FastPath (step.__self__'s, a bound
    AutoMap.eval_batch, or its own) at stride 1, its steps run the
    arithmetic alone, and maps._fast_forward's w-axis test runs once a block
    on the z rows (a hook's, or a buffer capped by AXIS_ROW_BYTES); a block
    with a row below FastPath.guard runs again with the per-step test, kept
    from then on (one DEBUG record), as are runs whose seeds start below it.

    The engine splits a run with no hook, at least SPLIT_MIN_SEEDS seeds
    and at least CHECK_EVERY strides over two processes (_in_halves), with
    the bits of one process; a shorter run would not repay the fork.  So a
    hook-free step must be a pure function of its arguments: the side
    effects of the half a forked child steps are lost.

    The loop, in each process of a split, holds np.errstate(all="ignore")
    and sets maps._IN_ENGINE to the kernel AutoMap.eval_batch calls (reset
    on return or raise), so steps and hooks run with overflow as data and
    eval_batch enters no error state of its own; only this function sets it.
    """
    state = (np.array(z, dtype=complex), np.array(w, dtype=complex),
             *(np.asarray(a) for a in carry))
    fp = getattr(getattr(step, "__self__", step), "fastpath", None) if stride == 1 else None
    if stride > 1:
        map_step = step

        def step(*state):
            for _ in range(stride):
                state = map_step(*state)
            return state

    def below_guard(n, zs):
        # the w-axis test of maps._fast_forward over rows zs, row i at step n + i
        if np.fmin.reduce(np.abs(zs), axis=None, initial=np.inf) >= fp.guard:
            return False
        low = (np.abs(zs) < fp.guard).reshape(len(zs), -1)
        first = int(low.any(axis=1).argmax())
        logging.getLogger(__name__).debug(
            "w-axis test per step from step %d: %d seeds below the guard %g",
            n + first, int(low[first].sum()), fp.guard)
        return True

    def loop(state, agree):
        # agree(sup_delta), in a split run, is the sup over both halves
        guard = fp is not None and not below_guard(0, state[0][None])
        held = state if on_block is not None else state[:1] if guard else ()   # into rows
        block = CHECK_EVERY
        cap = BLOCK_BYTES if on_block is not None else AXIS_ROW_BYTES
        nbytes = sum(a.nbytes for a in held)
        while held and block > 1 and (CHECK_EVERY % block or block * nbytes > cap):
            block -= 1
        rows = [np.empty((block,) + a.shape, dtype=a.dtype) for a in held]
        n = 0
        since_check = 0
        sup_delta = math.inf
        engine = _IN_ENGINE.set(_fast_arith if guard else _fast_forward)
        try:
            with np.errstate(all="ignore"):
                while n < n_max:
                    k = min(block, -(-(n_max - n) // stride))
                    start = state
                    for i in range(k):
                        prev = state
                        state = step(*state)
                        if on_block is not None:
                            for row, a in zip(rows, state):
                                row[i] = a
                        elif rows:
                            rows[0][i] = state[0]
                    if guard and below_guard(n + 1, rows[0][:k]):
                        state, guard = start, False     # the block again, tested per step
                        _IN_ENGINE.set(_fast_forward)
                        continue
                    n += k * stride
                    if on_block is not None and on_block(n, *(row[:k] for row in rows)):
                        break
                    since_check += k
                    if tol is not None and (since_check == CHECK_EVERY or n >= n_max):
                        since_check = 0
                        deltas = np.maximum(np.abs(state[0] - prev[0]),
                                            np.abs(state[1] - prev[1]))
                        sup_delta = float(np.fmax.reduce(deltas, axis=None))
                        if agree is not None:
                            sup_delta = agree(sup_delta)
                        if sup_delta < tol:
                            break
        finally:
            _IN_ENGINE.reset(engine)
        return (*state, n, sup_delta)

    if (on_block is None and state[0].size >= SPLIT_MIN_SEEDS
            and n_max >= CHECK_EVERY * stride):
        return _in_halves(loop, state)
    return loop(state, None)


class SplitRunError(RuntimeError):
    """The forked half of a split lockstep run failed or died."""


def _in_halves(loop, state):
    """loop(state, agree) on two contiguous halves of the seeds (the first
    axis of every array in state), the second in one forked child; the
    halves' arrays join in seed order, their n_used and sup_delta by max.

    agree swaps the halves' local sup-delta at each check, and both go on
    with the np.fmax of the two: fmax is exact and, like np.fmax.reduce,
    ignores NaN unless every delta is NaN, so both halves stop where one
    process does and each seed keeps its bits.  The two processes are
    pinned to one usable core each (left to the scheduler, a 1,000-seed run
    of 1,280 steps often shared one core), and the parent's cores are
    restored after.  Without os.fork or two usable cores, with other
    threads (a fork does not copy them) or when the fork fails, loop runs
    all seeds here.  On a 2-core Xeon a rank-1 step took 31, 55, 86 and 129
    us at 100, 250, 500 and 1,000 seeds in one process and 31, 44, 63 and
    91 us split; the fork costs 2-5 ms.

    Each side pickles to the other through its own pipe.  The child writes
    nothing to stdout or stderr, sends its result with its fatou log records
    (re-emitted by the parent) or a SplitRunError naming its failure, and
    leaves with os._exit, so no buffered output is flushed twice.  The
    parent raises that error; a failure in the parent kills and reaps the
    child before it propagates.  No child outlives the call.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if not hasattr(os, "fork") or len(cpus) < 2 or threading.active_count() > 1:
        return loop(state, None)
    half = len(state[0]) // 2
    down_r, down_w = os.pipe()     # parent -> child
    up_r, up_w = os.pipe()         # child -> parent
    try:
        pid = os.fork()
    except OSError:                # no process to spare: run it all here
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        return loop(state, None)
    if pid == 0:
        code = 1
        try:
            up = os.fdopen(up_w, "wb")
            down = os.fdopen(down_r, "rb")
            os.close(down_w)
            os.close(up_r)
            os.sched_setaffinity(0, cpus[1:2])
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            records, keep = [], logging.Handler()   # its filter keeps what fatou logs here
            keep.addFilter(lambda rec: records.append(logging.makeLogRecord(
                {**vars(rec), "msg": rec.getMessage(), "args": None, "exc_info": None})))
            logging.getLogger("fatou").addHandler(keep)

            def agree(mine):
                _dump(up, mine)
                return float(np.fmax(_load(down), mine))

            _dump(up, (loop(tuple(a[half:] for a in state), agree), records))
            code = 0
        except BaseException as exc:
            with contextlib.suppress(BaseException):
                _dump(up, SplitRunError(f"the forked half of a split run failed: "
                                        f"{type(exc).__name__}: {exc}"))
        finally:
            os._exit(code)
    os.close(down_r)
    os.close(up_w)
    down = os.fdopen(down_w, "wb")
    up = os.fdopen(up_r, "rb")
    finished = False
    try:
        os.sched_setaffinity(0, cpus[:1])

        def agree(mine):
            with contextlib.suppress(BrokenPipeError):
                _dump(down, mine)       # the child has ended; the read says why
            return float(np.fmax(mine, _load(up)))

        mine = loop(tuple(a[:half] for a in state), agree)
        theirs, records = _load(up)
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.sched_setaffinity(0, cpus)
        up.close()
        with contextlib.suppress(BrokenPipeError):
            down.close()                # closes the fd even when its flush fails
    for record in records:              # the child's log records, after the parent's
        logging.getLogger(record.name).handle(record)
    return tuple(np.concatenate((a, b)) if isinstance(a, np.ndarray) else max(a, b)
                 for a, b in zip(mine, theirs))


def _dump(f, obj):
    pickle.dump(obj, f, pickle.HIGHEST_PROTOCOL)
    f.flush()


def _load(f):
    # the next object the other half sent; its SplitRunError, or its end, raises
    try:
        got = pickle.load(f)
    except (EOFError, pickle.UnpicklingError):
        raise SplitRunError("the other half of a split run ended without a result") from None
    if isinstance(got, SplitRunError):
        raise got
    return got


def estimate_limit_map(m: AutoMap, grid: Grid2D, tol: float = 1e-12,
                       n_max: int = 10**6) -> LimitMapEstimate:
    """Per-seed limits with a finite-difference rank verdict.

    Seeds iterate in lockstep until every step delta is below tol
    (stop_reason "converged") or n_max is hit ("max_iterations").
    "Converged" means the sup step delta fell below tol, not that the
    estimate is within tol of the limit: on rank 1, w_n - w_inf ~ A/n, so
    the distance is about n * sup_step_delta.  The Jacobian of the
    finite-step limit is taken over the grid spacing in the transformed
    chart and its singular values (closed-form 2x2 SVD via numpy) feed the
    rank thresholds TAU1 and TAU2.

    A map whose closed form ends in a rotation (a Theta generator) switches
    to subsequence mode: for a rotation number p/q, carried by the Theta
    generator, the subsequence n = 0 mod q converges and is used; without
    one no limit map exists and the estimate reports modulus convergence
    and argument equidistribution diagnostics instead.  An
    escaped seed raises MapEscapeError naming its grid node and step.
    n_max < 1 raises ValueError.

    The engine steps a wide grid over two processes, plain or at stride q,
    with the bits of one process (see _lockstep_iterate).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    fp = m.fastpath
    q = None
    if fp is not None and fp.rotation is not None:
        if fp.rotation.frac is None:
            return _rotation_oscillation_estimate(m, grid, n_max)
        q = fp.rotation.frac.denominator
    zhat, w0 = grid.seeds()
    z, w, n_used, sup_delta = _lockstep_iterate(
        m.eval_batch, from_transformed(zhat).ravel(), w0.ravel(), tol, n_max,
        stride=q or 1)
    _raise_on_escape(m, zhat, w0, _escaped(z, w), n_used, "grid seeds")
    shape = (grid.nz, grid.nw)
    est = _finish_estimate(grid, z.reshape(shape), w.reshape(shape),
                           n_used, sup_delta, tol)
    est.rotation_order = q
    return est


def _raise_on_escape(m, zhat, w0, escaped, n_used, label, z0=None):
    """The one escape rule: raise MapEscapeError naming the seeds flagged in
    escaped after n_used steps, each with the step at which it escaped (found
    by running them alone again).  zhat, w0 are the seeds (a 2-D grid names
    nodes (i, j)), z0 the original-chart start (default -1/zhat)."""
    idx = np.flatnonzero(escaped)
    if idx.size == 0:
        return
    zh = np.ravel(zhat)[idx]
    w0 = np.asarray(w0, dtype=complex).ravel()[idx]
    z0 = from_transformed(zh) if z0 is None else np.ravel(z0)[idx]
    steps = np.zeros(idx.size, dtype=int)

    def on_block(n, zs, ws):
        new = (steps == 0) & _escaped(zs, ws)
        hit = new.any(axis=0)
        steps[hit] = n - len(zs) + 1 + new.argmax(axis=0)[hit]
        return steps.all()

    _lockstep_iterate(m.eval_batch, z0, w0, None, n_used, on_block=on_block)
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


def _finish_estimate(grid, limz, limw, n_used, sup_delta, tol) -> LimitMapEstimate:
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
        if s1_med < TAU1:
            rank = 0
        elif s2_med < TAU2:
            rank = 1
        else:
            rank = 2
    return LimitMapEstimate(grid, limz, limw, n_used, sup_delta, s1, s2, rank,
                            "converged" if sup_delta < tol else "max_iterations")


def _rotation_oscillation_estimate(m, grid, n_max):
    """Irrational rotation: the full sequence does not converge; report the
    modulus limit and argument statistics over a tail window."""
    zhat, w0 = grid.seeds()
    burn = max(0, n_max - 2000)
    window = min(2000, n_max - burn) or 1
    tail = np.empty((window, w0.size), dtype=complex)   # w at steps burn+1 ...

    def on_block(n, zs, ws):
        if n > burn:
            first = max(n - len(ws), burn)
            tail[first - burn:n - burn] = ws[first - n:]

    z, w, n_used, _ = _lockstep_iterate(m.eval_batch, from_transformed(zhat).ravel(),
                                        w0.ravel(), None, burn + window, on_block=on_block)
    _raise_on_escape(m, zhat, w0, _escaped(z, w), n_used, "grid seeds")
    mods = np.abs(tail)
    args = np.angle(tail)
    tail_var = float(np.max(mods.max(axis=0) - mods.min(axis=0)))
    bins = np.floor((args + np.pi) / (2 * np.pi) * 1000).astype(int) % 1000
    distinct = min(len(np.unique(bins[:, j])) for j in range(w.size))
    shape = (grid.nz, grid.nw)
    return LimitMapEstimate(
        grid, np.full(shape, np.nan + 0j), w.reshape(shape).copy(),
        burn + window, math.inf, None, None, None, "no_limit_full_sequence", None,
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
    n_performed: int


def track_product_sum(m: AutoMap, seed_transformed, n_max: int,
                      record_every: int | None = None) -> ProductSumTrack:
    """Split w_n = w_0 P_n + S_n along one orbit and track both limits.

    The one-seed view of track_product_sum_batch, run for all n_max steps,
    plus the partials (n, P_n, S_n) every record_every steps and at n_max,
    read by an engine hook (so the run stays in one process), which must be
    Cauchy (dyadic tails decreasing) or a diagnostic error is raised.
    """
    zh, w0 = complex(seed_transformed[0]), complex(seed_transformed[1])
    record_every = record_every or max(1, n_max // 64)
    partials = []

    def on_block(n, zs, ws, w0s, Ps, Ss, Ds):
        steps = np.arange(n - len(zs) + 1, n + 1)
        for i in np.flatnonzero((steps % record_every == 0) | (steps == n_max)):
            partials.append((int(steps[i]), complex(Ps[i, 0]), complex(Ss[i, 0])))

    P, S, defect, n = _product_sum_run(m, [zh], [w0], n_max, None, on_block)
    if not (_dyadic_cauchy([p for _, p, _ in partials])
            and _dyadic_cauchy([s for _, _, s in partials])):
        raise ArithmeticError(
            "product/sum partials are not Cauchy within n_max; the seed is "
            "likely outside a verified region"
        )
    return ProductSumTrack(complex(P[0]), complex(S[0]), partials, defect, n)


def track_product_sum_batch(m: AutoMap, zhat, w, n_max: int, tol: float = 0.0):
    """Split each step as w' = mult w + s, s = pi_2(F(z, 0)), into P = prod mult
    and S, so that w_n = w_0 P_n + S_n; returns (P, S, identity_defect, n_used),
    the defect being the rounding drift between the two recurrences,
    max |w_n - (w_0 P_n + S_n)| / max(1, |w_n|) over every seed and step.  tol
    as in estimate_limit_map (0 runs all n_max steps); an escaped orbit, P or
    S raises MapEscapeError.  A wide batch runs over two processes as in
    estimate_limit_map, with the bits of one process."""
    return _product_sum_run(m, zhat, w, n_max, tol)


def _product_sum_run(m, zhat, w, n_max, tol, on_block=None):
    """The engine on the product/sum step, whose carry is (w0, P, S, D), D
    being each seed's running np.fmax of the defect; the escape check runs on
    the end state.  Returns (P, S, defect, n_used).

    One kernel call per step on the rows (z, z) and (0, w), stacked in
    scratch buffers made once (stacking them afresh each step made a split
    2,304-seed, 3,000-step run 6% slower on a 2-core Xeon); each seed gets
    the bits of a call on its own.  The defect is taken at every step, not only at the checks: the
    drift is not monotone in n.  On the 48x48 rank-1 grid at (zhat, w) =
    (50, 0.5), spacing 1e-3, its max over 2000 steps is 7.44e-15 (at step
    1735) against 7.22e-15 over the 64-step checks."""
    zhat = np.ravel(np.asarray(zhat, dtype=complex))
    w0 = np.array(np.ravel(w), dtype=complex)
    zz = np.empty(2 * w0.size, dtype=complex)   # a process steps k seeds: it writes
    ww = np.zeros_like(zz)                      # zz[:2k] and ww[k:2k], and ww[:k] stays 0

    def step(z, w, w0, P, S, D):
        k = len(z)
        zz[:k] = zz[k:2 * k] = z
        ww[k:2 * k] = w
        zo, wo = m.eval_batch(zz[:2 * k], ww[:2 * k])
        s, w_next = wo[:k], wo[k:]
        mult = np.where(w != 0, (w_next - s) / np.where(w != 0, w, 1.0), 1.0 + 0j)
        P = P * mult
        S = S * mult + s
        d = np.abs(w_next - (w0 * P + S)) / np.maximum(1.0, np.abs(w_next))  # rounding drift
        return zo[k:], w_next, w0, P, S, np.fmax(D, d)

    step.fastpath = m.fastpath    # for the engine's w-axis test, on the z both kernel rows take
    z, w, _, P, S, D, n_used, _ = _lockstep_iterate(
        step, from_transformed(zhat), w0, tol, n_max, on_block=on_block,
        carry=(w0, np.ones_like(w0), np.zeros_like(w0), np.zeros(w0.shape)))
    escaped = _escaped(z, w) | ~(np.isfinite(P) & np.isfinite(S))
    _raise_on_escape(m, zhat, w0, escaped, n_used, "product/sum seeds")
    return P, S, float(np.fmax.reduce(D, initial=0.0)), n_used


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
    to shrink |z0|.  An escaped ring seed raises MapEscapeError.
    """
    if R <= 0:
        raise ValueError("R must be > 0")
    if ring_samples < 3:   # fewer points make no closed curve to wind around
        raise ValueError("ring_samples must be >= 3")
    if targets < 1:
        raise ValueError("targets must be >= 1")
    phis = 2 * np.pi * np.arange(ring_samples) / ring_samples
    w_circle = 2 * R * np.exp(1j * phis)
    z_ring = np.full(ring_samples, complex(z0))
    z, w_img, n_used, _ = _lockstep_iterate(m.eval_batch, z_ring, w_circle, tol, n_max)
    _raise_on_escape(m, to_transformed(z_ring), w_circle, _escaped(z, w_img), n_used,
                     "coverage ring seeds", z_ring)
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
    bisected in the segment parameter to bisect_tol, five levels per engine
    batch (the bracket's lower end and the 31 midpoints those levels may
    take), with the bits of one midpoint at a time.  invariance_defect is
    the largest distance from the generator-pipeline image of a row to the
    next row.  A curve point that escapes raises MapEscapeError.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if segments_per_step < 2:
        raise ValueError("need at least 2 samples per step")
    z0, w0 = complex(p[0]), complex(p[1])
    f_p = m.eval(z0, w0)
    t = np.linspace(0.0, 1.0, segments_per_step + 1)
    poly_z = np.empty((n_max + 1, t.size), dtype=complex)
    poly_w = np.empty_like(poly_z)
    poly_z[0] = z0 + t * (f_p[0] - z0)
    poly_w[0] = w0 + t * (f_p[1] - w0)

    def on_block(n, zs, ws):
        poly_z[n - len(zs) + 1:n + 1] = zs
        poly_w[n - len(ws) + 1:n + 1] = ws

    _lockstep_iterate(m.eval_batch, poly_z[0], poly_w[0], None, n_max, on_block=on_block)
    _raise_on_escape(m, to_transformed(poly_z[0]), poly_w[0],
                     _escaped(poly_z[-1], poly_w[-1]), n_max, "curve points", poly_z[0])
    qz, qw = complex(q_target[0]), complex(q_target[1])

    def radius(zv, wv):
        return np.sqrt(np.abs(zv - qz) ** 2 + np.abs(wv - qw) ** 2)

    def images(lo: float, hi: float, n: int) -> dict:
        # F^n of lo and the 31 midpoints of five more bisection levels, in one batch
        def mids(a, b, depth):
            c = 0.5 * (a + b)
            return [c, *mids(a, c, depth - 1), *mids(c, b, depth - 1)] if depth else []
        tts = [lo, *mids(lo, hi, 5)]
        zn, wn = _lockstep_iterate(m.eval_batch, [z0 + tt * (f_p[0] - z0) for tt in tts],
                                   [w0 + tt * (f_p[1] - w0) for tt in tts], None, n)[:2]
        return {tt: (zn[j:j + 1], wn[j:j + 1]) for j, tt in enumerate(tts)}

    # the crossing scan and the invariance defect read a block of rows at a time
    hits = []
    hit_params = []
    for row in range(0, n_max + 1, 256):
        g = radius(poly_z[row:row + 256], poly_w[row:row + 256]) - eps
        for i, k in zip(*np.nonzero(g[:, :-1] * g[:, 1:] < 0)):
            n = row + int(i)
            lo, hi = t[k], t[k + 1]
            seen = images(lo, hi, n)
            f_lo = float(radius(*seen[lo])[0]) - eps
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                seen = seen if mid in seen else images(lo, hi, n)
                f_mid = float(radius(*seen[mid])[0]) - eps
                if (f_lo < 0) == (f_mid < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            tt = 0.5 * (lo + hi)
            zz, ww = (seen if tt in seen else images(lo, hi, n))[tt]
            hits.append((complex(zz[0]), complex(ww[0])))
            hit_params.append((n, tt))
    # invariance against the generator pipeline, which shares no code with
    # the closed-form kernel that made the rows
    defect = 0.0
    for lo in range(0, n_max, 256):
        hi = min(lo + 256, n_max)
        img_z, img_w = eval_pipeline(m.pipeline, poly_z[lo:hi], poly_w[lo:hi])
        defect = max(defect, float(np.max(np.maximum(
            np.abs(img_z - poly_z[lo + 1:hi + 1]), np.abs(img_w - poly_w[lo + 1:hi + 1])))))
    return CurveResult(poly_z, poly_w, hits, hit_params, defect)


# -- equivariance -----------------------------------------------------------------


def check_equivariance(m: AutoMap, estimate: LimitMapEstimate) -> float:
    """max over the grid of ||F^q(h(p)) - h(p)||, q = rotation_order or 1.

    The limit h = lim F^{qn} satisfies h o F^q = h along every orbit, so
    the equivariance h o F^q = F^q o h reduces to the fixed-point equation
    F^q o h = h, checked on the stored limits with q map steps.  For the
    finite-step estimate this is the step delta one stride past its last
    step, about sup_step_delta.  Re-estimating h at F(p) from the same
    orbit is no check: the estimate F^N commutes with F exactly, so it
    gives F(h(p)) back bit for bit and reads 0 by construction.  A limit
    point whose image escapes raises MapEscapeError naming its grid node
    and step.
    """
    if estimate.stop_reason == "no_limit_full_sequence":
        raise ValueError(
            "equivariance needs a limit estimate; the full sequence of this "
            "rotation map does not converge (use a rational rotation order)"
        )
    q = estimate.rotation_order or 1
    hz, hw = estimate.limits_z, estimate.limits_w
    fz, fw = _lockstep_iterate(m.eval_batch, hz.ravel(), hw.ravel(), None, q)[:2]
    _raise_on_escape(m, to_transformed(hz), hw, _escaped(fz, fw).reshape(hz.shape), q,
                     "limit points", hz)
    return float(np.max(np.maximum(np.abs(fz - hz.ravel()), np.abs(fw - hw.ravel()))))
