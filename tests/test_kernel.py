"""The step kernel against its references in kernel_oracle.

``fatou.maps._fast_forward`` orders its float operations differently from
the kernel as first written (``kernel_oracle.fast_forward``), so orbits are
compared by stated bounds, not bits.  For one step from (z, w) to
(z1, w1) the scale of w1's rounding error is |w1| + |z|^(2-l): the bracket
of the closed form cancels terms of size |z|^2 down to z^l w.  With
eps = 2^-52:

- one step, from the same point: |dz1| <= 4 eps |z1| and
  |dw1| <= 8 eps (|w1| + |z|^(2-l));
- after 10^4 steps of each kernel: |dz| <= 16 eps |z| and
  |dw| <= 256 eps (|w| + |z|^(2-l));
- escape (a non-finite z or w) and the axis limit (z1 == 0, with w1 equal
  to the oracle's) classify every seed as the oracle does;
- against the generator pipeline in 80-digit mpmath, one step is within
  4 eps of z1 and 16 eps |z|^(2-l) of w1, relative.

A seed's image does not depend on the batch it is in: that stays exact,
apart from the sign bit of a NaN part.
"""

import itertools
import math

import numpy as np
import pytest

from kernel_oracle import fast_forward as oracle_step
from kernel_oracle import mp_step
from test_engine_fp_state import EDGE_W, EDGE_Z

from fatou.cli import main
from fatou.dynamics import (
    EMPIRICAL_MIN_N,
    Grid2D,
    RegionUNM,
    from_transformed,
    sample_region,
    to_transformed,
)
from fatou.maps import rank0_map, rank1_map, rotation_map

GOLD = 0.6180339887498949
EPS = np.finfo(float).eps
STEP_EPS_Z, STEP_EPS_W = 4, 8
DRIFT_EPS_Z, DRIFT_EPS_W = 16, 256


def crit1_seeds():
    region = RegionUNM(EMPIRICAL_MIN_N[("rank0", 10.0)], 10.0)
    zhat, w = sample_region(region, 100, re_span=1.0, im_span=1.0)
    return np.asarray(from_transformed(zhat)), w


def grid_seeds(n):
    zhat, w = Grid2D(50.0 + 0j, 0.5 + 0j, n, n, 1e-3).seeds()
    return np.asarray(from_transformed(zhat)).ravel(), w.ravel()


def case_map(case):
    if case == "rank0":
        return rank0_map(2)
    if case == "rank1":
        return rank1_map()
    return rotation_map(2 * math.pi / 5 if case == "rotation_2pi/5" else 2 * math.pi * GOLD)


CASES = ["rank0", "rank1", "rotation_2pi/5", "rotation_golden"]


def errors_in_eps(l, z, got, want):
    """Largest |dz1| / (eps |z1|) and |dw1| / (eps (|w1| + |z|^(2-l))) of
    got = (z1, w1) against want, after checking that both classify every
    seed alike: escape (non-finite) and the axis limit (z1 == 0)."""
    (za, wa), (zo, wo) = got, want
    for a, b in ((za, zo), (wa, wo)):
        assert np.array_equal(np.isfinite(a), np.isfinite(b)), "escape classification"
    axis = zo == 0
    assert np.array_equal(za == 0, axis), "axis classification"
    assert np.array_equal(wa[axis], wo[axis], equal_nan=True), "axis limit"
    ok = np.isfinite(zo) & np.isfinite(wo) & ~axis
    if not ok.any():
        return 0.0, 0.0
    with np.errstate(over="ignore"):
        scale_w = np.abs(wo[ok]) + np.abs(z[ok]) ** (2 - l)
    ez = np.abs(za[ok] - zo[ok]) / (EPS * np.abs(zo[ok]))
    ew = np.abs(wa[ok] - wo[ok]) / (EPS * scale_w)
    return float(ez.max()), float(ew.max())


def assert_steps_within_bound(m, z, w, steps):
    """Each step of the kernel, from the oracle's orbit point, against the
    oracle's step from the same point."""
    for n in range(1, steps + 1):
        got = m.eval_batch(z, w)
        with np.errstate(all="ignore"):
            want = oracle_step(m.fastpath, z, w)
        ez, ew = errors_in_eps(m.fastpath.l, z, got, want)
        assert ez <= STEP_EPS_Z and ew <= STEP_EPS_W, f"step {n}: {ez:.2f}, {ew:.2f} eps"
        z, w = want


@pytest.mark.parametrize("case", CASES)
def test_step_error_within_ulp_bound(case):
    m = case_map(case)
    if case == "rank0":
        assert_steps_within_bound(m, *crit1_seeds(), 10**4)
    elif case == "rank1":
        assert_steps_within_bound(m, *grid_seeds(48), 2000)
    else:
        assert_steps_within_bound(m, *grid_seeds(3), 5000)


@pytest.mark.parametrize("case", CASES)
def test_trajectory_drift_within_bound(case):
    m = case_map(case)
    z, w = crit1_seeds() if case == "rank0" else grid_seeds(3)
    za, wa = z, w
    with np.errstate(all="ignore"):
        for _ in range(10**4):
            z, w = oracle_step(m.fastpath, z, w)
            za, wa = m.eval_batch(za, wa)
    ez, ew = errors_in_eps(m.fastpath.l, z, (za, wa), (z, w))
    assert ez <= DRIFT_EPS_Z and ew <= DRIFT_EPS_W, f"{ez:.2f}, {ew:.2f} eps"


def test_edge_inputs_classified_as_oracle():
    # z = 1e-90 and 1e-70 at l = 4: z^4 underflows to 0 (the axis limit) at
    # the first, not at the second, though both lie above AXIS_THRESHOLD
    z = np.array([0, 1e-170, 1e-170j, np.nan, 1e300, -1e300j, 1e-100, 0.5, 0.9,
                  complex(np.inf, 0), complex(np.nan, 1.0), 1e-90, 1e-70, 1e-90j],
                 dtype=complex)
    w = np.array([1, 2 + 1j, 0, 1, 1, np.nan, 3, 1e300, 600, 1, 1, 0.5 + 0.2j,
                  0.5 + 0.2j, 1], dtype=complex)
    for m in (rank0_map(2), rank0_map(3), rank0_map(4), rank1_map(),
              rotation_map(2 * math.pi / 5)):
        got = m.eval_batch(z, w)
        with np.errstate(all="ignore"):
            want = oracle_step(m.fastpath, z, w)
        ez, ew = errors_in_eps(m.fastpath.l, z, got, want)
        assert ez <= STEP_EPS_Z and ew <= STEP_EPS_W
    z1, w1 = rank0_map(4).eval_batch(z[11:13], w[11:13])
    assert z1[0] == 0 and w1[0] == w[11] and z1[1] != 0


@pytest.mark.parametrize("case", ["rank0", "rank0_l3", "rank0_l4", "rank1", "rotation_2pi/5"])
def test_step_against_mpmath_pipeline(case):
    """One step against the pipeline in 80-digit mpmath, 1e-8 <= |z| <= 0.5.

    w's relative error grows like eps |z|^(2-l): the closed form cancels
    terms of size |z|^2 down to z^l w.  That is no loss at l = 2, 2e-8 at
    |z| = 1e-8 for l = 3, and for l = 4 4e-4 at |z| = 8e-7 and over 1 at
    1e-8.  The bound pins that form; it does not mend it.
    """
    pytest.importorskip("mpmath")
    m = rank0_map(int(case[-1])) if case.startswith("rank0_l") else case_map(case)
    l = m.fastpath.l
    r = np.geomspace(1e-8, 0.5, 41)
    z = r * np.exp(2j * np.pi * np.random.default_rng(5).random(r.size))
    w = np.full(r.size, 0.5 + 0.2j)
    za, wa = m.eval_batch(z, w)
    zt, wt = np.array([mp_step(m, a, b) for a, b in zip(z, w)]).T
    assert np.all(np.abs(za - zt) <= 4 * EPS * np.abs(zt))
    assert np.all(np.abs(wa - wt) <= 16 * EPS * r ** (2 - l) * np.abs(wt))


def _parts_bits(a):
    # the float64 parts of a complex array, with every NaN's bits as one value
    parts = a.view(float)
    return np.where(np.isnan(parts), -1, parts.view(np.uint64).astype(np.int64)).tolist()


def test_batch_size_does_not_change_a_seed():
    z, w = crit1_seeds()
    # the edge pairs of test_engine_fp_state: zero, signed zero, tiny,
    # infinite and NaN z, escaping w
    ze, we = (np.array(col, dtype=complex) for col in zip(*itertools.product(EDGE_Z, EDGE_W)))
    for m in (rank0_map(2), rank0_map(3), rank1_map(), rotation_map(2 * math.pi / 5)):
        z1, w1 = m.eval_batch(z, w)
        for i in range(z.size):
            zi, wi = m.eval_batch(z[i:i + 1], w[i:i + 1])
            assert zi[0] == z1[i] and wi[0] == w1[i]
        # bit for bit, apart from a NaN part's sign and payload
        batch = m.eval_batch(ze, we)
        for i in range(ze.size):
            alone = m.eval_batch(ze[i:i + 1], we[i:i + 1])
            for a, b in zip(alone, batch):
                assert _parts_bits(a) == _parts_bits(b[i:i + 1]), (ze[i], we[i])
    m = rank0_map(2)
    z1, w1 = m.eval_batch(z, w)
    # odd-length slices
    for a, b in ((0, 7), (3, 36), (50, 99)):
        za, wa = m.eval_batch(z[a:b], w[a:b])
        assert np.array_equal(za, z1[a:b]) and np.array_equal(wa, w1[a:b])
    # the products path stacks (z, 0) | (z, w) into one call
    zs, ws = m.eval_batch(np.concatenate([z, z]), np.concatenate([0 * w, w]))
    z0, w0 = m.eval_batch(z, 0 * w)
    assert np.array_equal(zs, np.concatenate([z0, z1]))
    assert np.array_equal(ws, np.concatenate([w0, w1]))


@pytest.mark.parametrize("seed", ["100+0i,1+0i", "87.3-2.1i,-0.4+1.2i"])
def test_iterate_csv_matches_oracle_orbit(tmp_path, seed):
    n_steps = 2000
    out = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", "rank0", "--l", "2", "--seed-transformed", seed,
                 "--n", str(n_steps), "--region", "6,10", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [int(r[0]) for r in rows] == list(range(n_steps + 1))
    cells = np.array([[float(c) for c in r[1:7]] for r in rows])
    zc, wc, zhc = (cells[:, k] + 1j * cells[:, k + 1] for k in (0, 2, 4))

    m = rank0_map(2)
    region = RegionUNM(6.0, 10.0)
    zh0, w0 = (complex(s.replace("i", "j")) for s in seed.split(","))
    z, w = [complex(from_transformed(np.complex128(zh0)))], [w0]
    for _ in range(n_steps):
        z1, w1 = oracle_step(m.fastpath, np.array(z[-1:]), np.array(w[-1:]))
        z.append(complex(z1[0]))
        w.append(complex(w1[0]))
    z, w = np.array(z), np.array(w)
    zh = to_transformed(z)
    ez, ew = errors_in_eps(2, z, (zc, wc), (z, w))
    assert ez <= DRIFT_EPS_Z and ew <= DRIFT_EPS_W
    assert np.all(np.abs(zhc - zh) <= DRIFT_EPS_Z * EPS * np.abs(zh))
    assert [r[7] for r in rows] == [str(int(region.contains(a, b))) for a, b in zip(zh, w)]
