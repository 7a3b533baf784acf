"""The orbit engine holds numpy's error state for a whole run.

``dynamics._lockstep_iterate`` enters ``np.errstate(all="ignore")`` once per
run and, while its loop runs, sets ``maps._IN_ENGINE`` to the step kernel
that ``AutoMap.eval_batch`` then calls directly: ``maps._fast_arith`` where
the engine tests the w-axis once a block itself, else ``maps._fast_forward``
with its per-step test.  Outside the engine the flag is None and
``eval_batch`` keeps an error state of its own.  Here:

- a run enters ``np.errstate``, and runs the w-axis test, a number of times
  that does not grow with its steps (once a block for the test);
- ``eval_batch`` gives the same bits inside the engine and outside it, on
  edge inputs (zero, signed zero, tiny, infinite and NaN z; escaping w);
- the engine still steps through ``AutoMap.eval_batch``, one call per step,
  which is what the benchmark's tracer counts.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fatou import dynamics as dyn
from fatou.maps import (
    _IN_ENGINE,
    AutoMap,
    _fast_arith,
    _fast_forward,
    four_map_composite,
    rank0_map,
    rank1_map,
    rotation_map,
)


@pytest.fixture
def errstate_entries(monkeypatch):
    """Counts every entry into np.errstate while the test runs."""
    real = np.errstate
    entries = []

    class Counting(real):
        def __enter__(self):
            entries.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counting)
    return entries


def _rank0_grid():
    return dyn.Grid2D(7.0 + 0j, 0.25 + 0.1j, 10, 10, 1e-3)


def test_a_run_enters_errstate_a_bounded_number_of_times(errstate_entries):
    # the parent entered it at every step, 1,000 times and more here
    m = rank0_map(2)
    counts = []
    for n_max in (100, 1000):
        errstate_entries.clear()
        est = dyn.estimate_limit_map(m, _rank0_grid(), tol=0.0, n_max=n_max)
        assert est.iterations_used == n_max
        counts.append(len(errstate_entries))
    assert counts[0] == counts[1] <= 8


@pytest.fixture
def fmin_reductions(monkeypatch):
    """Counts every np.fmin.reduce call, the w-axis test's reduction, while
    the test runs."""
    real = np.fmin
    calls = []

    class Counting:
        def __call__(self, *args, **kwargs):
            return real(*args, **kwargs)

        def reduce(self, *args, **kwargs):
            calls.append(1)
            return real.reduce(*args, **kwargs)

    monkeypatch.setattr(np, "fmin", Counting())
    return calls


def test_a_run_tests_the_w_axis_once_a_block(fmin_reductions):
    # the parent tested it in the kernel at every step, 1,000 times here
    m = rank0_map(2)
    est = dyn.estimate_limit_map(m, _rank0_grid(), tol=0.0, n_max=1000)
    assert est.iterations_used == 1000
    assert len(fmin_reductions) <= math.ceil(1000 / dyn.CHECK_EVERY) + 1


def test_the_engine_flag_is_set_only_while_its_loop_runs():
    # the flag holds the kernel eval_batch calls: the per-step w-axis test for
    # a step that shows no FastPath, the arithmetic alone for one that does,
    # and the test again from a block that meets the axis
    seen = []
    m = rank0_map(2)

    def step(z, w):
        seen.append(_IN_ENGINE.get())
        return m.eval_batch(z, w)

    assert _IN_ENGINE.get() is None
    dyn._lockstep_iterate(step, [-1 / 50], [0.5], None, 3)
    assert seen == [_fast_forward] * 3 and _IN_ENGINE.get() is None
    step.fastpath = m.fastpath
    seen.clear()
    dyn._lockstep_iterate(step, [-1 / 50], [0.5], None, 3)
    assert seen == [_fast_arith] * 3 and _IN_ENGINE.get() is None
    seen.clear()
    dyn._lockstep_iterate(step, [-1], [1 + math.log(235)], None, 3)   # |z1| = 8.7e-103
    assert seen == [_fast_arith] * 3 + [_fast_forward] * 3 and _IN_ENGINE.get() is None
    with pytest.raises(ZeroDivisionError):
        dyn._lockstep_iterate(lambda z, w: 1 / 0, [-1 / 50], [0.5], None, 3)
    assert _IN_ENGINE.get() is None
    seen.clear()

    def fails_on_replay(z, w):
        if len(seen) == 3:
            raise ZeroDivisionError
        return step(z, w)

    fails_on_replay.fastpath = m.fastpath
    with pytest.raises(ZeroDivisionError):
        dyn._lockstep_iterate(fails_on_replay, [-1], [1 + math.log(235)], None, 3)
    assert seen == [_fast_arith] * 3 and _IN_ENGINE.get() is None


EDGE_Z = [0.0, -0.0, 1e-200, -1e-200j, -0.02 + 0.001j, 0.9, math.inf, complex(math.inf, 1),
          math.nan, complex(0, math.nan)]
EDGE_W = [0.5 + 0.2j, -0.0, 600.0, 1e300 + 1e300j, math.inf, math.nan]
MAPS = {
    "rank0_2": rank0_map(2),
    "rank0_3": rank0_map(3),
    "rank1": rank1_map(),
    "rotation_1_3": rotation_map(2 * math.pi / 3, Fraction(1, 3)),
    "four": four_map_composite(),      # no closed form: the generator pipeline
}


@pytest.mark.parametrize("name", MAPS)
def test_eval_batch_has_the_same_bits_inside_and_outside_the_engine(name):
    m = MAPS[name]
    z, w = (np.array(col, dtype=complex) for col in zip(*itertools.product(EDGE_Z, EDGE_W)))
    outside = m.eval_batch(z, w)
    inside = dyn._lockstep_iterate(m.eval_batch, z, w, None, 1)[:2]
    for a, b in zip(outside, inside):
        assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


@pytest.mark.parametrize("name", MAPS)
def test_eval_batch_has_the_same_bits_without_the_per_step_test(name):
    # the edge inputs that lie on no side of the guard: the engine runs the
    # first step with the arithmetic alone
    m = MAPS[name]
    z, w = (np.array(col, dtype=complex)
            for col in zip(*itertools.product(EDGE_Z[4:], EDGE_W)))
    outside = m.eval_batch(z, w)
    inside = dyn._lockstep_iterate(m.eval_batch, z, w, None, 1)[:2]
    for a, b in zip(outside, inside):
        assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Wraps AutoMap.eval_batch on the class, as perfbench's tracer does."""
    calls = []
    real = AutoMap.eval_batch

    def counted(self, z, w):
        calls.append(len(np.ravel(z)))
        return real(self, z, w)

    monkeypatch.setattr(AutoMap, "eval_batch", counted)
    return calls


def test_the_engine_steps_through_eval_batch_once_a_step(kernel_calls):
    m = rank0_map(2)
    est = dyn.estimate_limit_map(m, _rank0_grid(), tol=0.0, n_max=300)
    assert est.iterations_used == 300
    assert kernel_calls == [100] * 300
    kernel_calls.clear()
    zhat, w = _rank0_grid().seeds()
    P, S, defect, n_used = dyn.track_product_sum_batch(m, zhat, w, 200)
    assert n_used == 200
    assert kernel_calls == [200] * 200    # the rows (z, 0) and (z, w) in one call
