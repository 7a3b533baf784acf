"""The fused step kernel against the plain-expression oracle in kernel_oracle.

The kernel must stay bitwise equal to the oracle: orbits are compared with
array_equal step by step, NaN positions included for the edge inputs.
"""

import math

import numpy as np
import pytest

from kernel_oracle import fast_forward as oracle_step

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


def crit1_seeds():
    region = RegionUNM(EMPIRICAL_MIN_N[("rank0", 10.0)], 10.0)
    zhat, w = sample_region(region, 100, re_span=1.0, im_span=1.0)
    return np.asarray(from_transformed(zhat)), w


def grid_seeds(n):
    zhat, w = Grid2D(50.0 + 0j, 0.5 + 0j, n, n, 1e-3).seeds()
    return np.asarray(from_transformed(zhat)).ravel(), w.ravel()


def assert_orbits_equal(m, z, w, steps):
    za, wa = z.copy(), w.copy()
    for n in range(1, steps + 1):
        za, wa = m.eval_batch(za, wa)
        with np.errstate(all="ignore"):
            z, w = oracle_step(m.fastpath, z, w)
        assert np.array_equal(za, z) and np.array_equal(wa, w), f"step {n}"


@pytest.mark.parametrize("case", ["rank0", "rank1", "rotation_2pi/5", "rotation_golden"])
def test_orbits_bit_exact(case):
    if case == "rank0":
        assert_orbits_equal(rank0_map(2), *crit1_seeds(), 10**4)
    elif case == "rank1":
        assert_orbits_equal(rank1_map(), *grid_seeds(48), 2000)
    else:
        theta = 2 * math.pi / 5 if case == "rotation_2pi/5" else 2 * math.pi * GOLD
        assert_orbits_equal(rotation_map(theta), *grid_seeds(3), 5000)


def test_edge_inputs_bit_exact():
    z = np.array([0, 1e-170, 1e-170j, np.nan, 1e300, -1e300j, 1e-100, 0.5, 0.9,
                  complex(np.inf, 0), complex(np.nan, 1.0)], dtype=complex)
    w = np.array([1, 2 + 1j, 0, 1, 1, np.nan, 3, 1e300, 600, 1, 1], dtype=complex)
    for m in (rank0_map(2), rank0_map(3), rank1_map(), rotation_map(2 * math.pi / 5)):
        got = m.eval_batch(z, w)
        with np.errstate(all="ignore"):
            want = oracle_step(m.fastpath, z, w)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)


def test_batch_size_does_not_change_a_seed():
    m = rank0_map(2)
    z, w = crit1_seeds()
    z1, w1 = m.eval_batch(z, w)
    for i in range(z.size):
        zi, wi = m.eval_batch(z[i:i + 1], w[i:i + 1])
        assert zi[0] == z1[i] and wi[0] == w1[i]
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
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]

    m = rank0_map(2)
    region = RegionUNM(6.0, 10.0)
    zh0, w = (complex(s.replace("i", "j")) for s in seed.split(","))
    z = complex(from_transformed(np.complex128(zh0)))
    want = []
    for n in range(n_steps + 1):
        if n:
            z1, w1 = oracle_step(m.fastpath, np.array([z]), np.array([w]))
            z, w = complex(z1[0]), complex(w1[0])
        zh = complex(to_transformed(np.complex128(z)))
        cells = [z.real, z.imag, w.real, w.imag, zh.real, zh.imag]
        want.append(",".join([str(n)] + [format(c, ".17g") for c in cells]
                             + [str(int(region.contains(zh, w)))]))
    assert rows == want
