"""The block-wise orbit engine against the per-step engine of engine_oracle.

Every comparison asks for equal bits: the block engine runs the same steps
with the same float operations, and its hooks read the same states, only
a block of rows at a time.  A wide hook-free run split over two processes
is compared with the same run in one.
"""

import errno
import logging
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import engine_oracle as oracle
from fatou import dynamics as dyn
from fatou import maps
from fatou.dynamics import Grid2D, RegionUNM, SplitRunError
from fatou.maps import MapEscapeError, rank0_map, rank1_map, rotation_map

H0 = rank0_map(2)
H1 = rank1_map()
GOLD = 0.6180339887498949
ROT3 = rotation_map(2 * math.pi / 3, theta_frac=Fraction(1, 3))
ESCAPE_STEPS = [1, 63, 64, 65, 127]


class ScaleMap:
    """(z, w) -> (10 z, w + z): the seed z = 5e(100 - s) leaves the escape
    radius 1e100 at step s, and z = 1e-300 stays inside for 399 steps."""

    fastpath = None

    def eval_batch(self, z, w):
        z = np.asarray(z, dtype=complex)
        return z * 10.0, np.asarray(w, dtype=complex) + z

    def eval(self, z, w):
        z1, w1 = self.eval_batch([z], [w])
        return complex(z1[0]), complex(w1[0])


class NaNMap:
    """(z, w) -> (z + 1, w), with w NaN once z reaches 0: the seed z = -s
    stays finite and small for s - 1 steps and turns non-finite at step s."""

    fastpath = None

    def eval_batch(self, z, w):
        z1 = np.asarray(z, dtype=complex) + 1.0
        return z1, np.where(z1 == 0, np.nan, np.asarray(w, dtype=complex))


class HalfMap:
    """(z, w) -> (z/2, w/2): from z = 2^k the step delta is 2^(k-n) at step
    n, first below 1e-12 at n = k + 40."""

    fastpath = None

    def eval_batch(self, z, w):
        return np.asarray(z, dtype=complex) / 2, np.asarray(w, dtype=complex) / 2


def outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except (MapEscapeError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def same(a, b):
    """Equal bits, through tuples, lists, dicts and dataclass-like records."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and same(vars(a), vars(b))
    if isinstance(a, (float, complex)):
        return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return type(a) is type(b) and a == b


def escaping_seeds(s):
    """Original-chart seeds leaving the radius at steps s, s + 1, s + 5, and
    one that stays inside; the transformed chart for the entry points."""
    z0 = np.array([5 * 10.0 ** (100 - s), 5 * 10.0 ** (99 - s), 5 * 10.0 ** (95 - s),
                   1e-300], dtype=complex)
    return dyn.to_transformed(z0), np.array([0.5, 1j, 2.0, 0.1], dtype=complex)


def rank0_seeds(count=40):
    rng = np.random.default_rng(11)
    zhat = 6.0 + rng.uniform(0, 1, count) + 1j * rng.uniform(-0.5, 0.5, count)
    w = 9.9 * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * np.pi * rng.uniform(0, 1, count))
    return zhat, w


# -- the engine itself ---------------------------------------------------------------


@pytest.mark.parametrize("stride, n_max, tol", [
    (1, 100, None), (1, 100, 1e-8), (1, 64, 0.0), (1, 130, 0.0),
    (3, 100, None), (3, 200, 1e-10), (3, 64, 0.0),
])
def test_block_rows_are_the_per_step_states(stride, n_max, tol):
    # row i of a block of k rows ending at n is the state after step
    # n - (k-1-i)*stride; the run stops and reports as the per-step engine
    m = ROT3 if stride == 3 else H1
    zhat, w = Grid2D(50 + 0j, 0.5 + 0j, 3, 3, 1e-3).seeds()
    z0 = dyn.from_transformed(zhat).ravel()
    want = []
    ref = oracle.lockstep_iterate(m.eval_batch, z0, w.ravel(), tol, n_max, stride=stride,
                                  on_step=lambda n, z, w: want.append((n, z, w)) and False)
    got = []

    def on_block(n, zs, ws):
        got.extend((n - (len(zs) - 1 - i) * stride, zs[i].copy(), ws[i].copy())
                   for i in range(len(zs)))

    out = dyn._lockstep_iterate(m.eval_batch, z0, w.ravel(), tol, n_max, stride=stride,
                                on_block=on_block)
    assert same(list(out), list(ref))
    assert same(got, want)
    hookless = dyn._lockstep_iterate(m.eval_batch, z0, w.ravel(), tol, n_max, stride=stride)
    assert same(list(hookless), list(ref))


@pytest.mark.parametrize("rows, block", [(1, 1), (24, 16), (64, 64)])
def test_short_blocks_keep_the_checks(monkeypatch, rows, block):
    # a batch too big for BLOCK_BYTES gets blocks that divide check_every,
    # so the tol checks, n_used and sup_delta do not move
    zhat, w = rank0_seeds()
    monkeypatch.setattr(dyn, "BLOCK_BYTES", 32 * rows * zhat.size)
    z0 = dyn.from_transformed(zhat)
    sizes = []

    def on_block(n, zs, ws):
        sizes.append(len(zs))

    for tol, n_max in ((1e-6, 5000), (0.0, 100)):
        got = dyn._lockstep_iterate(H0.eval_batch, z0, w, tol, n_max, on_block=on_block)
        want = oracle.lockstep_iterate(H0.eval_batch, z0, w, tol, n_max)
        assert same(list(got), list(want))
    assert max(sizes) == block
    for n_steps in (100, 1000):
        assert same(dyn.check_growth_bounds(H0, zhat, w, n_steps),
                    oracle.check_growth_bounds(H0, zhat, w, n_steps))
    region = RegionUNM(2.0, 3.0)
    assert same(dyn.verify_forward_invariance(H0, region, 200, 500).violations,
                oracle.forward_invariance_violations(H0, region, 200, 500))


def test_limit_map_subsequence_stride_3():
    # rotation 1/3 runs the engine at stride 3; n_max = 100 is not a multiple
    # of 3 or of 64, so the last check lands past n_max
    m = ROT3
    grid = Grid2D(50 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    zhat, w = grid.seeds()
    for tol, n_max in ((1e-10, 100), (1e-10, 20000), (0.0, 100)):
        est = dyn.estimate_limit_map(m, grid, tol=tol, n_max=n_max)
        z, w_lim, n_used, sup = oracle.lockstep_iterate(
            m.eval_batch, dyn.from_transformed(zhat).ravel(), w.ravel(), tol, n_max, stride=3)
        assert est.rotation_order == 3
        assert (est.iterations_used, est.sup_step_delta) == (n_used, sup)
        assert same(est.limits_z.ravel(), z) and same(est.limits_w.ravel(), w_lim)


# -- the hooks --------------------------------------------------------------------------


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 100])
def test_growth_bounds_match(n_steps):
    zhat, w = rank0_seeds()
    for zh, ww in ((zhat, w), (0.5 * zhat, w)):   # clean, and with violations
        assert same(outcome(lambda: dyn.check_growth_bounds(H0, zh, ww, n_steps)),
                    outcome(lambda: oracle.check_growth_bounds(H0, zh, ww, n_steps)))


@pytest.mark.parametrize("N, M, samples, n_steps, exits", [
    (2.0, 3.0, 200, 500, 2),
    (50.0, 1e-3, 200, 500, 200),    # every seed exits, so the run stops early
    (0.5, 1000.0, 60, 130, 60),     # 43 of the exits are escapes to non-finite values
])
def test_forward_invariance_matches(N, M, samples, n_steps, exits):
    region = RegionUNM(N, M)
    got = dyn.verify_forward_invariance(H0, region, samples, n_steps).violations
    want = oracle.forward_invariance_violations(H0, region, samples, n_steps)
    assert len(want) == exits and same(got, want)


def orbit_rows(record):
    """iterate's columns as the oracle's (rows, escaped, stop_reason, n_performed)."""
    inside = [None] * record.n.size if record.in_region is None else record.in_region.tolist()
    rows = list(zip(record.n.tolist(), record.z.tolist(), record.w.tolist(),
                    record.zhat.tolist(), inside))
    return rows, record.escaped, record.stop_reason, record.n_performed


@pytest.mark.parametrize("m, seed, n_max, kw", [
    (H0, (100, 1), 3000, dict(transformed=True, region=RegionUNM(6.0, 10.0))),
    (H0, (0.5, 30), 100, dict(record_every=7)),
    (H0, (0.9, 600), 50, {}),                        # escapes at step 1
    (H0, (0, 5 + 1j), 100, {}),                      # on the axis: converged at step 1
    (H1, (50, 0.5), 3000, dict(transformed=True, stop_tol=1e-6, record_every=13)),
    (H1, (50, 0.5), 130, dict(transformed=True, stop_tol=None)),
    (HalfMap(), (2.0 ** 60, 1), 500, {}),            # converged at step 100
    (HalfMap(), (2.0 ** 60, 1), 100, dict(record_every=64)),
    (H0, (1, 1), 0, {}),
    (ScaleMap(), (5e99, 1), 10, dict(stop_tol=1e200)),   # escapes as it converges
    (H0, (complex(-0.0, -0.0), -0.0), 10, {}),       # rows holding -0.0
    (H0, (1e-320, 1), 10, dict(region=RegionUNM(6.0, 10.0))),  # zhat = -inf + nan i
])
def test_iterate_matches(m, seed, n_max, kw):
    got = dyn.iterate(m, seed, n_max, **kw)
    want = oracle.iterate(m, seed, n_max, **kw)
    assert [c.dtype for c in (got.n, got.z, got.w, got.zhat)] == [
        np.int64, np.complex128, np.complex128, np.complex128]
    assert got.in_region is None if "region" not in kw else got.in_region.dtype == bool
    assert same(orbit_rows(got), want)
    # the CSV text, against a writer that formats one cell at a time
    assert "".join(dyn.orbit_csv_rows(got)) == oracle.orbit_csv_text(want[0])


def test_iterate_converges_off_the_block_grid():
    rec = dyn.iterate(HalfMap(), (2.0 ** 60, 1), 500)
    assert (rec.stop_reason, rec.n_performed, rec.n[-1]) == ("converged", 100, 100)
    # an escape wins a tie: step 1 leaves the radius with a delta below stop_tol
    rec = dyn.iterate(ScaleMap(), (5e99, 1), 10, stop_tol=1e200)
    assert (rec.stop_reason, rec.n_performed) == ("escaped", 1)


@pytest.mark.parametrize("s", ESCAPE_STEPS)
def test_iterate_escape_steps(s):
    # beyond the radius: the escaping step is kept; not finite: the run
    # stops before it (the tiny early steps of ScaleMap would read as converged)
    seed = (5 * 10.0 ** (100 - s), 1)
    far = dyn.iterate(ScaleMap(), seed, 200, stop_tol=None)
    nan = dyn.iterate(NaNMap(), (-float(s), 1), 200)
    assert (far.stop_reason, far.n_performed, nan.stop_reason, nan.n_performed) == (
        "escaped", s, "escaped", s - 1)
    assert same(orbit_rows(far), oracle.iterate(ScaleMap(), seed, 200, stop_tol=None))
    assert same(orbit_rows(nan), oracle.iterate(NaNMap(), (-float(s), 1), 200))


@pytest.mark.parametrize("s", ESCAPE_STEPS)
def test_escape_messages_match(s):
    zhat, w = escaping_seeds(s)
    grid = Grid2D(complex(zhat[0]), 0.5 + 0j, 2, 2, 1e-3 * abs(zhat[0]))
    m = ScaleMap()
    pairs = [
        (lambda: dyn.check_growth_bounds(m, zhat, w, 200),
         lambda: oracle.check_growth_bounds(m, zhat, w, 200)),
        (lambda: dyn.track_product_sum_batch(m, zhat, w, 200),
         lambda: oracle.product_sum_run(m, zhat, w, 200, 0.0, None)[:4]),
        (lambda: dyn.estimate_limit_map(m, grid, tol=0.0, n_max=200).limits_w,
         lambda: oracle.raise_on_escape(m, *grid.seeds(), np.ones((2, 2), bool), 200,
                                        "grid seeds")),
        (lambda: dyn.invariant_curve(m, (complex(5 * 10.0 ** (99 - s)), 1), (0, 0), 4,
                                     200, 1e-2).polyline_z,
         lambda: oracle.curve_polylines(m, (complex(5 * 10.0 ** (99 - s)), 1), 4, 200)[0]),
    ]
    for new, old in pairs:
        got, want = outcome(new), outcome(old)
        assert got[0] == "raised" and same(got, want)
        assert f"at step {s}" in got[2]


@pytest.mark.parametrize("n_max", [150, 2100])
def test_rotation_oscillation_matches(n_max):
    m = rotation_map(2 * math.pi * GOLD)
    grid = Grid2D(50 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    est = dyn.estimate_limit_map(m, grid, n_max=n_max)
    w, diag = oracle.rotation_oscillation(m, grid, n_max)
    assert same(est.oscillation, diag)
    assert same(est.limits_w.ravel(), w)


def test_curve_polylines_match():
    p = (-1 / 60 + 0j, 0j)
    cur = dyn.invariant_curve(H0, p, (0, 0), 16, 700, 1e-2)
    z, w = oracle.curve_polylines(H0, p, 16, 700)
    assert same(cur.polyline_z, z) and same(cur.polyline_w, w)


@pytest.mark.parametrize("tol, n_max", [(0.0, 100), (1e-9, 3000)])
def test_product_sum_matches(tol, n_max):
    zhat, w = Grid2D(50 + 0j, 0.5 + 0j, 6, 6, 1e-3).seeds()
    got = dyn.track_product_sum_batch(H1, zhat, w, n_max, tol)
    assert same(list(got), list(oracle.product_sum_run(H1, zhat, w, n_max, tol, None)[:4]))


def test_product_sum_partials_match():
    trk = dyn.track_product_sum(H1, (50, 0.5), 1000)
    P, S, defect, n, partials = oracle.product_sum_run(H1, [50], [0.5], 1000, None, 15)
    assert same((trk.P, trk.S, trk.identity_defect, trk.n_performed),
                (complex(P[0]), complex(S[0]), defect, n))
    assert same(trk.partials, [(k, complex(p[0]), complex(s[0])) for k, p, s in partials])


# -- the split over two processes -------------------------------------------------------


# The engine steps a hook-free run of at least SPLIT_MIN_SEEDS seeds and
# CHECK_EVERY strides in two halves, the second in one forked child.  Each
# test runs the split and the one-process path (forced by raising the
# threshold) and asks for equal bits; the hygiene tests check that no child
# and no open fd is left after a call, whether it returns or raises.

WIDE = Grid2D(50 + 0j, 0.5 + 0j, 32, 32, 1e-3)      # 1,024 seeds
two_cores = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="the split needs os.fork and two usable cores")


@pytest.fixture
def forks(monkeypatch):
    """The number of forks made so far; os.fork is wrapped to count them."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def both_ways(monkeypatch, forks, call):
    """call() split and in one process, and the forks the split made."""
    split = call()
    made = forks[0]
    with monkeypatch.context() as mp:
        mp.setattr(dyn, "SPLIT_MIN_SEEDS", math.inf)
        one = call()
    assert forks[0] == made
    return split, one, made


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def open_fds():
    """The number of fds this process has open; None without /proc/self/fd,
    where the before/after checks compare None with None."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@two_cores
def test_split_threshold(forks):
    assert dyn.SPLIT_MIN_SEEDS == 1000
    dyn.estimate_limit_map(H1, Grid2D(50 + 0j, 0.5 + 0j, 10, 99, 1e-3), tol=0.0, n_max=64)
    assert forks[0] == 0
    fds = open_fds()
    dyn.estimate_limit_map(H1, Grid2D(50 + 0j, 0.5 + 0j, 10, 100, 1e-3), tol=0.0, n_max=64)
    assert forks[0] == 1 and no_child_left()
    assert open_fds() == fds


@two_cores
def test_split_limit_map_48x48_at_tol_1e8(monkeypatch, forks):
    grid = Grid2D(50 + 0j, 0.5 + 0j, 48, 48, 1e-3)
    split, one, made = both_ways(monkeypatch, forks,
                                 lambda: dyn.estimate_limit_map(H1, grid, tol=1e-8))
    assert made == 1
    assert split.stop_reason == "converged" and split.numerical_rank == 1
    assert same(split, one)


@two_cores
def test_split_limit_map_rational_rotation(monkeypatch, forks):
    # stride 3; tol 1e-10 stops at a check, n_max = 1000 ends off the 64-step grid
    for tol, n_max in ((1e-10, 20000), (0.0, 1000)):
        split, one, made = both_ways(
            monkeypatch, forks, lambda: dyn.estimate_limit_map(ROT3, WIDE, tol=tol, n_max=n_max))
        assert split.rotation_order == 3
        assert same(split, one)
    assert made == 2


@two_cores
@pytest.mark.parametrize("tol, n_max", [(0.0, 300), (1e-6, 3000)])
@pytest.mark.parametrize("order", [1, -1])
def test_split_product_sum(monkeypatch, forks, tol, n_max, order):
    # the seeds in reverse order swap the halves, so that each half in turn
    # holds the largest defect
    zhat, w = (a.ravel()[::order] for a in WIDE.seeds())
    split, one, made = both_ways(
        monkeypatch, forks, lambda: dyn.track_product_sum_batch(H1, zhat, w, n_max, tol))
    assert made == 1
    assert same(split, one)
    assert (split[3] < n_max) == (tol > 0)      # tol 1e-6 stops at a check


@two_cores
def test_split_product_sum_against_the_per_step_engine(forks):
    zhat, w = WIDE.seeds()
    got = dyn.track_product_sum_batch(H1, zhat, w, 300, 0.0)
    assert forks[0] == 1
    assert same(list(got), list(oracle.product_sum_run(H1, zhat, w, 300, 0.0, None)[:4]))


@two_cores
def test_split_escapes_raise_the_same_error(monkeypatch, forks):
    # ScaleMap multiplies z by 10: seeds from z = 5e90 up escape within 10 steps,
    # in both halves of the batch
    grid = Grid2D(complex(dyn.to_transformed(np.complex128(5e90))), 0.5 + 0j, 40, 30, 1e-91)
    zhat, w = grid.seeds()
    for call in (lambda: dyn.estimate_limit_map(ScaleMap(), grid, tol=0.0, n_max=200),
                 lambda: dyn.track_product_sum_batch(ScaleMap(), zhat, w, 200)):
        split, one, _ = both_ways(monkeypatch, forks, lambda: outcome(call))
        assert split[0] == "raised" and split[1] == MapEscapeError.__name__
        assert "1200 of 1200" in split[2]
        assert same(split, one)
    # escapes in the second half only: its local sup-delta turns NaN once its
    # seeds are not finite (step 305), and fmax lets the first half's stop
    # the run at the next check, as np.fmax.reduce does in one process
    w = np.r_[np.ones(600), np.full(600, 1e4)] + 0j
    zhat = np.full(1200, 50 + 0j)
    split, one, _ = both_ways(monkeypatch, forks, lambda: outcome(
        lambda: dyn.track_product_sum_batch(GrowMap(), zhat, w, 5000, 1e-12)))
    assert "600 of 1200 product/sum seeds" in split[2] and "within 320 steps" in split[2]
    assert same(split, one)
    assert forks[0] == 3 and no_child_left()


class GrowMap:
    """(z, w) -> (z/2, w/2), but w -> 10 w once |w| > 1e3: seeds from w = 1e4
    escape and turn non-finite, and the rest converge."""

    fastpath = None

    def eval_batch(self, z, w):
        w = np.asarray(w, dtype=complex)
        return np.asarray(z, dtype=complex) / 2, np.where(np.abs(w) > 1e3, w * 10, w / 2)


class ChildFails:
    """rank-1 steps in the process that built it; elsewhere the step fails."""

    fastpath = None

    def __init__(self, fail):
        self.parent = os.getpid()
        self.fail = fail

    def eval_batch(self, z, w):
        if os.getpid() != self.parent:
            self.fail()
        return H1.eval_batch(z, w)


@two_cores
def test_a_failing_child_raises_a_typed_error(forks):
    def boom():
        raise ZeroDivisionError("boom in the child")

    cpus = os.sched_getaffinity(0)
    fds = open_fds()
    with pytest.raises(SplitRunError, match="ZeroDivisionError: boom in the child"):
        dyn.estimate_limit_map(ChildFails(boom), WIDE, tol=0.0, n_max=200)
    assert forks[0] == 1 and no_child_left()
    assert open_fds() == fds
    assert os.sched_getaffinity(0) == cpus


@two_cores
def test_a_killed_child_raises_a_typed_error(forks):
    def die():
        os.kill(os.getpid(), 9)

    zhat, w = WIDE.seeds()
    fds = open_fds()
    with pytest.raises(SplitRunError, match="ended without a result"):
        dyn.track_product_sum_batch(ChildFails(die), zhat, w, 200)
    assert forks[0] == 1 and no_child_left()
    assert open_fds() == fds


@two_cores
def test_an_interrupted_parent_kills_and_reaps_the_child(forks):
    class ParentInterrupted:
        fastpath = None

        def __init__(self):
            self.parent = os.getpid()
            self.calls = 0

        def eval_batch(self, z, w):
            if os.getpid() == self.parent:
                self.calls += 1
                if self.calls == 100:
                    raise KeyboardInterrupt
            return H1.eval_batch(z, w)

    cpus = os.sched_getaffinity(0)
    fds = open_fds()
    with pytest.raises(KeyboardInterrupt):
        dyn.estimate_limit_map(ParentInterrupted(), WIDE, tol=0.0, n_max=10**6)
    assert forks[0] == 1 and no_child_left()
    assert open_fds() == fds
    assert os.sched_getaffinity(0) == cpus


@two_cores
def test_a_failed_fork_runs_in_one_process(monkeypatch):
    # os.fork raising (EAGAIN: no process to spare) closes the pipes and
    # runs every seed in the parent
    tried = []

    def no_fork():
        tried.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    with monkeypatch.context() as mp:
        mp.setattr(dyn, "SPLIT_MIN_SEEDS", math.inf)
        one = dyn.estimate_limit_map(H1, WIDE, tol=1e-9, n_max=3000)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = open_fds()
    got = dyn.estimate_limit_map(H1, WIDE, tol=1e-9, n_max=3000)
    assert open_fds() == fds
    assert tried == [1] and same(got, one)


@two_cores
def test_carry_joins_in_seed_order(monkeypatch, forks):
    # extra per-seed arrays ride along: the seed index and a step counter
    # come back joined in seed order, and n_used and sup-delta agree
    def step(z, w, idx, count):
        return z / 2, w / 2, idx, count + 1

    z = np.arange(1, 1201) + 0j
    split, one, made = both_ways(monkeypatch, forks, lambda: dyn._lockstep_iterate(
        step, z, z, 1e-12, 10**4, carry=(np.arange(1200), np.zeros(1200, dtype=int))))
    assert made == 1
    assert same(split, one)
    z, w, idx, count, n_used, sup_delta = split
    assert same(idx, np.arange(1200))
    assert n_used == 64 and same(count, np.full(1200, 64))
    assert sup_delta < 1e-12 and same(z, w)


@two_cores
def test_wide_coverage_splits(monkeypatch, forks):
    split, one, made = both_ways(monkeypatch, forks, lambda: dyn.waxis_coverage(
        H1, 1.0, -1 / 200 + 0j, ring_samples=1200))
    assert made == 1 and split.covered
    assert same(split, one)


@two_cores
def test_short_runs_keep_one_process(monkeypatch, forks):
    # a run of fewer than CHECK_EVERY strides would not repay the fork:
    # check_equivariance's q steps, n_max < 64, and the rotation's stride 3
    # below 192 steps
    est = dyn.estimate_limit_map(H1, WIDE, tol=0.0, n_max=64)
    assert forks[0] == 1
    for call in (lambda: dyn.check_equivariance(H1, est),
                 lambda: dyn.estimate_limit_map(H1, WIDE, tol=0.0, n_max=63),
                 lambda: dyn.estimate_limit_map(ROT3, WIDE, tol=0.0, n_max=191)):
        split, one, _ = both_ways(monkeypatch, forks, call)
        assert same(split, one)
    assert forks[0] == 1
    dyn.estimate_limit_map(ROT3, WIDE, tol=0.0, n_max=192)
    assert forks[0] == 2 and no_child_left()


@two_cores
def test_other_threads_keep_one_process(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        dyn.estimate_limit_map(H1, WIDE, tol=0.0, n_max=64)
    finally:
        stop.set()
        thread.join()
    assert forks[0] == 0


@two_cores
def test_hooked_runs_keep_one_process(forks):
    zhat, w = WIDE.seeds()
    dyn.check_growth_bounds(H1, zhat.ravel(), w.ravel(), 64)
    dyn.estimate_limit_map(rotation_map(2 * math.pi * 0.6180339887498949), WIDE, n_max=64)
    assert forks[0] == 0


@two_cores
def test_buffered_output_is_written_once():
    # stdout to a pipe is block-buffered, so the text is still in the buffer
    # when the run forks; the child must neither flush it nor write its own,
    # even where the map it steps writes to both streams
    probe = (
        "import os\n"
        "from fatou import dynamics as dyn, rank1_map\n"
        "class Loud:\n"
        "    fastpath = None\n"
        "    def eval_batch(self, z, w, parent=os.getpid()):\n"
        "        if os.getpid() != parent:\n"
        "            os.write(1, b'child stdout\\n')\n"
        "            os.write(2, b'child stderr\\n')\n"
        "        return rank1_map().eval_batch(z, w)\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('before the run')\n"
        "dyn.estimate_limit_map(Loud(), dyn.Grid2D(50, 0.5, 32, 32, 1e-3), tol=0.0, n_max=200)\n"
        "print('after the run, forks:', len(forks))\n"
    )
    src = os.path.dirname(os.path.dirname(dyn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "before the run\nafter the run, forks: 1\n"
    assert out.stderr == ""


# -- near the w-axis ----------------------------------------------------------------------


# The engine tests the w-axis once a block and, when a state of the block lies
# below FastPath.guard, runs the block again with the kernel's per-step test
# (see _lockstep_iterate).  These orbits enter that band at the step named:
# (-1, 1 + ln 235) lands at |z1| = 8.7e-103 under rank0_map(2); the rest were
# found by a forward scan of random seeds.  Their w is past 1e200 by then, so
# they are escaped data, and the per-step test sends the next step to the axis
# limit (0, w) where the arithmetic alone does not.  Pre-images under
# eval_inverse_batch would not do: that of (-1, 1 + ln 235) overflows, and
# those of other landing points lose the landing within three forward steps.
H4 = rank0_map(4)     # guard 1e-75, above AXIS_THRESHOLD
ENTRIES = {
    "rank0_2": (H0, {
        1: (-1 + 0j, 1 + math.log(235) + 0j),
        63: (0.061614530730090676 - 0.01600525054663978j,
             5.123447905828073 - 14.814165920995341j),
        64: (0.053951864984199016 - 0.007047643912257529j,
             -5.595277986034937 - 13.851700189307481j),
        65: (0.06467636841103462 + 0.01220650871545834j,
             9.73727888993465 - 1.1185067424150965j),
        127: (0.05575902567456508 - 0.017419985491820174j,
              19.554127547379608 - 19.899440240103328j),
    }),
    "rank0_4": (H4, {
        1: (0.8515624299162406 - 0.6246061361042768j,
            -3.6244920496422814 + 9.078434427460348j),
        63: (0.06079418052285457 - 5.799588103245366e-05j,
             11.28730389650125 + 9.820380296952909j),
        64: (0.05877357141078193 - 0.007194760635393682j,
             -11.719489583079842 + 4.547176550087148j),
        65: (0.2142707609665243 - 0.07802561510208997j,
             15.865850940474658 - 8.539109344235332j),
    }),
    "rotation_1_3": (ROT3, {
        63: (0.1405722556510554 + 0.013835622505301725j,
             -2.0036125740078568 + 15.202800648040956j),
        64: (0.05118390018229007 - 0.0038126858325944753j,
             -2.0185143911614 + 6.362895069604342j),
        65: (0.06428939048057308 - 0.0014751885259025306j,
             -13.332535077191663 - 7.229984406568711j),
        127: (0.12714785447883387 + 0.011508507193839565j,
              13.97181535552393 - 1.1465542637195156j),
    }),
}
NEAR_AXIS = [(name, s) for name, (_, seeds) in ENTRIES.items() for s in seeds
             if name != "rotation_1_3"]


def entry_batch(name, s):
    """The map, and 40 seeds of rank0_seeds in the original chart with the
    seed entering at step s as the 18th; its entry is checked per step."""
    m, seeds = ENTRIES[name]
    zhat, w = rank0_seeds()
    z = dyn.from_transformed(zhat)
    z[17], w[17] = seeds[s]
    rows = []
    oracle.lockstep_iterate(m.eval_batch, z, w, None, s,
                            on_step=lambda n, z, w: rows.append(np.abs(z)))
    low = np.array(rows) < m.fastpath.guard
    assert low[-1, 17] and not low[:-1].any() and low[-1].sum() == 1
    return m, z, w


@pytest.fixture
def kernels():
    """The kernel each engine step runs: a step that shows the map's FastPath
    records maps._IN_ENGINE, which the engine sets to the kernel
    AutoMap.eval_batch calls."""
    seen = []

    def stepper(m):
        def step(z, w):
            seen.append(maps._IN_ENGINE.get().__name__)
            return m.eval_batch(z, w)

        step.fastpath = m.fastpath
        return step

    return seen, stepper


def one_replay(s, n_max, block):
    """The kernels of a run that enters the band at step s: the arithmetic up
    to the end of the entering block, that block again and the rest with the
    per-step test."""
    start = (s - 1) // block * block
    end = min(start + block, n_max)
    return ["_fast_arith"] * end + ["_fast_forward"] * (n_max - start)


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("name, s", NEAR_AXIS)
def test_a_hook_free_run_near_the_axis_replays_one_block(monkeypatch, caplog, kernels,
                                                         name, s, short):
    m, z, w = entry_batch(name, s)
    if short:     # blocks of 16: the entry falls at another place in its block
        monkeypatch.setattr(dyn, "AXIS_ROW_BYTES", 16 * z.nbytes)
    seen, stepper = kernels
    caplog.set_level("DEBUG", logger="fatou")
    for tol, n_max in ((None, 200), (1e-6, 200)):
        seen.clear()
        caplog.clear()
        got = dyn._lockstep_iterate(stepper(m), z, w, tol, n_max)
        assert same(list(got), list(oracle.lockstep_iterate(m.eval_batch, z, w, tol, n_max)))
        assert seen == one_replay(s, got[2], 16 if short else dyn.CHECK_EVERY)
        (record,) = caplog.records
        assert record.levelname == "DEBUG" and record.name == "fatou.dynamics"
        assert f"from step {s}: 1 seeds below the guard" in record.getMessage()
        plain = dyn._lockstep_iterate(m.eval_batch, z, w, tol, n_max)
        assert same(list(plain), list(got))


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("name, s", NEAR_AXIS)
def test_hooked_runs_near_the_axis_see_the_per_step_rows(monkeypatch, caplog, name, s, short):
    m, z, w = entry_batch(name, s)
    if short:     # blocks of 16 rows
        monkeypatch.setattr(dyn, "BLOCK_BYTES", 32 * 16 * z.size)
    caplog.set_level("DEBUG", logger="fatou")
    want = []
    ref = oracle.lockstep_iterate(m.eval_batch, z, w, None, 200,
                                  on_step=lambda n, z, w: want.append((n, z, w)) and False)
    got = []

    def on_block(n, zs, ws):
        got.extend((n - len(zs) + 1 + i, zs[i].copy(), ws[i].copy()) for i in range(len(zs)))

    out = dyn._lockstep_iterate(m.eval_batch, z, w, None, 200, on_block=on_block)
    assert same(list(out), list(ref)) and same(got, want)
    assert len(caplog.records) == 1
    zhat = dyn.to_transformed(z)
    assert same(outcome(lambda: dyn.check_growth_bounds(m, zhat, w, 200)),
                outcome(lambda: oracle.check_growth_bounds(m, zhat, w, 200)))
    # the entering seed alone: iterate stops at its escape, before or in the
    # block that meets the axis
    seed = (complex(z[17]), complex(w[17]))
    for kw in ({}, dict(stop_tol=None, record_every=5)):
        assert same(orbit_rows(dyn.iterate(m, seed, 200, **kw)),
                    oracle.iterate(m, seed, 200, **kw))


@pytest.mark.parametrize("m", [H0, H4, H1])
def test_invariance_samples_that_meet_the_axis(caplog, m):
    # 10 of the 60 samples of U_{0.5,1000} land below the guard at step 1
    caplog.set_level("DEBUG", logger="fatou")
    region = RegionUNM(0.5, 1000.0)
    got = dyn.verify_forward_invariance(m, region, 60, 130).violations
    assert same(got, oracle.forward_invariance_violations(m, region, 60, 130))
    (record,) = caplog.records
    assert "from step 1: 10 seeds below the guard" in record.getMessage()


@pytest.mark.parametrize("name, s", NEAR_AXIS)
def test_product_sum_near_the_axis(caplog, name, s):
    # the kernel rows (z, z) come from the state z that the engine tests
    m, z, w = entry_batch(name, s)
    zhat = dyn.to_transformed(z)
    caplog.set_level("DEBUG", logger="fatou")
    got = outcome(lambda: dyn.track_product_sum_batch(m, zhat, w, 200))
    assert got[0] == "raised" and "1 of 40 product/sum seeds" in got[2]
    assert same(got, outcome(lambda: oracle.product_sum_run(m, zhat, w, 200, 0.0, None)[:4]))
    # the run, and the run of the escaped seed alone that names its step when
    # its escape and its entry share a block
    assert 1 <= len(caplog.records) <= 2
    assert all(f"from step {s}: 1 seeds" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("s", sorted(ENTRIES["rotation_1_3"][1]))
def test_stride_3_keeps_the_per_step_test(caplog, kernels, s):
    # the engine's rows hold every third state only, so the kernel tests the
    # axis at every step
    m, z, w = entry_batch("rotation_1_3", s)
    seen, stepper = kernels
    caplog.set_level("DEBUG", logger="fatou")
    got = dyn._lockstep_iterate(stepper(m), z, w, None, 300, stride=3)
    assert same(list(got), list(oracle.lockstep_iterate(m.eval_batch, z, w, None, 300,
                                                        stride=3)))
    assert seen == ["_fast_forward"] * 300 and caplog.records == []


@pytest.mark.parametrize("m", [H0, H4, H1])
def test_a_run_that_starts_below_the_guard_never_runs_unguarded(caplog, kernels, m):
    # z = 1e-90 and -0.0 take the axis limit at every l; 1e-80 + 1e-80i lies
    # below rank0_map(4)'s guard without its z^4 underflowing; the rest lie
    # in the rank-0 region
    seen, stepper = kernels
    caplog.set_level("DEBUG", logger="fatou")
    z = np.array([1e-90, -0.0, 1e-80 + 1e-80j, -1 / 6.5, -1 / (7 + 1j)])
    w = np.array([0.5 + 0.2j, 2.0, -1j, 0.3, 0.7j])
    starts = z if m is H4 else z[1:]
    for n_max in (1, 130):
        seen.clear()
        caplog.clear()
        got = dyn._lockstep_iterate(stepper(m), starts, w[-len(starts):], None, n_max)
        assert same(list(got), list(oracle.lockstep_iterate(
            m.eval_batch, starts, w[-len(starts):], None, n_max)))
        assert seen == ["_fast_forward"] * n_max
        (record,) = caplog.records
        assert "from step 0: " in record.getMessage()


def test_a_run_away_from_the_axis_logs_nothing(caplog, kernels):
    # the package logger is silent unless configured
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("fatou").handlers)
    seen, stepper = kernels
    caplog.set_level("DEBUG", logger="fatou")
    zhat, w = rank0_seeds()
    got = dyn._lockstep_iterate(stepper(H0), dyn.from_transformed(zhat), w, None, 300)
    assert seen == ["_fast_arith"] * 300
    assert same(list(got), list(oracle.lockstep_iterate(
        H0.eval_batch, dyn.from_transformed(zhat), w, None, 300)))
    dyn.estimate_limit_map(H1, Grid2D(50 + 0j, 0.5 + 0j, 3, 3, 1e-3), tol=1e-9)
    assert caplog.records == []


@two_cores
def test_a_split_run_logs_the_switch_of_each_half(caplog, forks):
    # the forked half's records reach the parent's handlers, after its own
    zhat, w = (a.ravel() for a in Grid2D(6.2 + 0j, 0.5 + 0j, 32, 32, 1e-3).seeds())
    z = dyn.from_transformed(zhat)
    z[100], w[100] = z[900], w[900] = ENTRIES["rank0_2"][1][1]
    caplog.set_level("DEBUG", logger="fatou")
    got = dyn._lockstep_iterate(H0.eval_batch, z, w, None, 200)
    assert forks[0] == 1 and no_child_left()
    assert same(list(got), list(oracle.lockstep_iterate(H0.eval_batch, z, w, None, 200)))
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("fatou.dynamics", "DEBUG",
         "w-axis test per step from step 1: 1 seeds below the guard 1e-100")] * 2
    assert caplog.records[0].process == os.getpid() != caplog.records[1].process


@two_cores
def test_split_runs_near_the_axis(monkeypatch, forks):
    # an entry in each half of a 1,024-seed run: each process replays its own block
    zhat, w = (a.ravel() for a in Grid2D(6.2 + 0j, 0.5 + 0j, 32, 32, 1e-3).seeds())
    z = dyn.from_transformed(zhat)
    (z[100], w[100]), (z[900], w[900]) = ENTRIES["rank0_2"][1][64], ENTRIES["rank0_2"][1][127]
    for tol, n_max in ((None, 200), (1e-9, 3000)):
        split, one, _ = both_ways(
            monkeypatch, forks, lambda: dyn._lockstep_iterate(H0.eval_batch, z, w, tol, n_max))
        assert same(split, one)
        assert same(list(split), list(oracle.lockstep_iterate(H0.eval_batch, z, w, tol, n_max)))
    assert forks[0] == 2 and no_child_left()
