import json

import numpy as np
import pytest

import series_oracle

from fatou.algebra import (
    NonFiniteError,
    OrderMismatchError,
    Series1C2,
    Series2,
    SeriesError,
    jet_from_json,
    jet_to_json,
    series1_compose_map,
    series1_eval,
    series1_from_json,
    series1_to_json,
    series2_exp,
    series2_mul,
    tri_index,
    tri_size,
)

# ---------------------------------------------------------------------------
# Independent dict-based polynomial oracle.  Deliberately shares no code with
# fatou.algebra: monomials are dict keys, truncation is an explicit filter.
# ---------------------------------------------------------------------------


def poly_mul(a: dict, b: dict, order: int) -> dict:
    out = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            if i + k + j + l <= order:
                key = (i + k, j + l)
                out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_exp(a: dict, order: int) -> dict:
    # sum_{k<=order} a^k / k!  (a has zero constant term, so a^k starts at degree k)
    out = {(0, 0): 1.0}
    term = {(0, 0): 1.0}
    fact = 1.0
    for k in range(1, order + 1):
        term = poly_mul(term, a, order)
        fact *= k
        for key, c in term.items():
            out[key] = out.get(key, 0.0) + c / fact
    return out


def to_series(p: dict, order: int) -> Series2:
    s = Series2.zero(order)
    for (i, j), c in p.items():
        s.coeffs[tri_index(i, j)] = c
    return s


def rand_series(order: int, rng: np.random.RandomState) -> Series2:
    n = tri_size(order)
    return Series2(order, rng.randn(n) + 1j * rng.randn(n))


# -- spec examples, trivial -------------------------------------------------


def test_mul_difference_of_squares():
    one = Series2.const(2, 1.0)
    z = Series2.var_z(2)
    p = series2_mul(one + z, one - z)
    assert p.get(0, 0) == 1 and p.get(1, 0) == 0 and p.get(2, 0) == -1
    assert p.get(1, 1) == 0 and p.get(0, 2) == 0


def test_mul_identity():
    rng = np.random.RandomState(7)
    a = rand_series(6, rng)
    one = Series2.const(6, 1.0)
    assert np.allclose(series2_mul(a, one).coeffs, a.coeffs)


def test_mul_binomial():
    s = Series2.var_z(2) + Series2.var_w(2)
    p = series2_mul(s, s)
    assert p.get(2, 0) == 1 and p.get(1, 1) == 2 and p.get(0, 2) == 1


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        series2_mul(Series2.zero(3), Series2.zero(4))


def test_exp_trivial():
    e = series2_exp(Series2.zero(4))
    assert e.get(0, 0) == 1 and not e.coeffs[1:].any()
    e = series2_exp(Series2.var_z(3))
    assert e.get(1, 0) == 1 and e.get(2, 0) == 0.5
    assert abs(e.get(3, 0) - 1 / 6) < 1e-16


def test_exp_nonzero_constant_rejected():
    with pytest.raises(SeriesError):
        series2_exp(Series2.const(3, 1.0))


def test_exp_cross_term_against_bruteforce():
    # exp(z + z^2 w): coefficient of z^2 w is 1 (from the argument itself)
    D = 4
    z = Series2.var_z(D)
    arg = z + series2_mul(z.pow(2), Series2.var_w(D))
    got = series2_exp(arg)
    want = poly_exp({(1, 0): 1.0, (2, 1): 1.0}, D)
    assert abs(got.get(2, 1) - 1.0) < 1e-15
    for i in range(D + 1):
        for j in range(D + 1 - i):
            assert abs(got.get(i, j) - want.get((i, j), 0.0)) < 1e-13, (i, j)


def test_exp_bruteforce_oracle_degree6_random():
    # acceptance gate: series2_exp equals brute-force polynomial exponentiation
    D = 6
    rng = np.random.RandomState(11)
    a = {}
    for i in range(D + 1):
        for j in range(D + 1 - i):
            if i + j == 0 or i + j > D:
                continue
            a[(i, j)] = complex(rng.randn(), rng.randn()) * 0.5
    got = series2_exp(to_series(a, D))
    want = poly_exp(a, D)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            assert abs(got.get(i, j) - want.get((i, j), 0.0)) < 1e-12, (i, j)


# -- ring axioms ------------------------------------------------------------


def test_ring_axioms_random():
    rng = np.random.RandomState(3)
    D = 20
    a, b, c = (rand_series(D, rng) for _ in range(3))
    ab_c = series2_mul(series2_mul(a, b), c)
    a_bc = series2_mul(a, series2_mul(b, c))
    scale = np.max(np.abs(ab_c.coeffs))
    assert np.max(np.abs(ab_c.coeffs - a_bc.coeffs)) <= 1e-13 * scale
    lhs = series2_mul(a, b + c)
    rhs = series2_mul(a, b) + series2_mul(a, c)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * max(1.0, np.max(np.abs(lhs.coeffs)))
    ab, ba = series2_mul(a, b), series2_mul(b, a)
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-13 * np.max(np.abs(ab.coeffs))


def test_exp_times_exp_neg_is_one():
    rng = np.random.RandomState(5)
    D = 15
    a = rand_series(D, rng)
    a.coeffs[0] = 0.0
    p = series2_mul(series2_exp(a), series2_exp(-a))
    assert abs(p.get(0, 0) - 1.0) < 1e-12
    assert np.max(np.abs(p.coeffs[1:])) < 1e-12 * max(1.0, np.max(np.abs(series2_exp(a).coeffs)))


def test_inverse():
    rng = np.random.RandomState(9)
    a = rand_series(10, rng)
    a.coeffs[0] = 1.5 + 0.25j
    p = series2_mul(a, a.inverse())
    assert abs(p.get(0, 0) - 1.0) < 1e-13
    assert np.max(np.abs(p.coeffs[1:])) < 1e-10


# -- composition ------------------------------------------------------------


def test_compose_identity_jet():
    D = 5
    F = (Series2.var_z(D), Series2.var_w(D))
    rng = np.random.RandomState(2)
    psi = Series1C2(D, rng.randn(D + 1, 2) + 1j * rng.randn(D + 1, 2))
    psi.coeffs[0] = 0.0
    out = series1_compose_map(F, psi)
    assert np.allclose(out.coeffs, psi.coeffs)


def test_compose_linear_case():
    D = 4
    lam = complex(0.3, 0.4)
    F = (Series2.var_z(D).scale(lam), Series2.var_w(D))
    psi = Series1C2.zero(D)
    psi.coeffs[1] = [1.0, 0.0]
    out = series1_compose_map(F, psi)
    want = Series1C2.zero(D)
    want.coeffs[1] = [lam, 0.0]
    assert np.allclose(out.coeffs, want.coeffs)


def test_compose_is_linear_in_F():
    D = 6
    rng = np.random.RandomState(4)
    psi = Series1C2(D, rng.randn(D + 1, 2) + 1j * rng.randn(D + 1, 2))
    psi.coeffs[0] = 0.0
    P1, Q1 = rand_series(D, rng), rand_series(D, rng)
    P2, Q2 = rand_series(D, rng), rand_series(D, rng)
    a, b = 0.7 - 0.2j, 1.3 + 0.1j
    lhs = series1_compose_map((P1.scale(a) + P2.scale(b), Q1.scale(a) + Q2.scale(b)), psi)
    r1 = series1_compose_map((P1, Q1), psi)
    r2 = series1_compose_map((P2, Q2), psi)
    rhs = a * r1.coeffs + b * r2.coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_compose_rejects_nonzero_constant():
    D = 3
    F = (Series2.var_z(D), Series2.var_w(D))
    psi = Series1C2.zero(D)
    psi.coeffs[0] = [0.1, 0.0]
    with pytest.raises(SeriesError):
        series1_compose_map(F, psi)


def test_compose_against_bruteforce():
    # substitute psi into a random jet; oracle expands monomial by monomial
    D = 5
    rng = np.random.RandomState(21)
    P, Q = rand_series(D, rng), rand_series(D, rng)
    psi = Series1C2(D, 0.3 * (rng.randn(D + 1, 2) + 1j * rng.randn(D + 1, 2)))
    psi.coeffs[0] = 0.0
    out = series1_compose_map((P, Q), psi)

    def mul1(x, y):
        return np.convolve(x, y)[: D + 1]

    for comp, S in ((0, P), (1, Q)):
        want = np.zeros(D + 1, dtype=complex)
        u, v = psi.coeffs[:, 0], psi.coeffs[:, 1]
        for i in range(D + 1):
            for j in range(D + 1 - i):
                term = np.zeros(D + 1, dtype=complex)
                term[0] = S.get(i, j)
                for _ in range(i):
                    term = mul1(term, u)
                for _ in range(j):
                    term = mul1(term, v)
                want += term
        assert np.max(np.abs(out.coeffs[:, comp] - want)) < 1e-11, comp


# -- evaluation -------------------------------------------------------------


def test_eval_examples():
    psi = Series1C2.zero(3)
    psi.coeffs[1] = [1.0, 0.0]
    assert series1_eval(psi, 0.3) == (0.3, 0)

    rng = np.random.RandomState(6)
    any_psi = Series1C2(3, rng.randn(4, 2) + 1j * rng.randn(4, 2))
    assert series1_eval(any_psi, 0.0) == (any_psi.coeffs[0, 0], any_psi.coeffs[0, 1])

    psi = Series1C2.zero(2)
    psi.coeffs[1] = [1.0, 0.0]
    psi.coeffs[2] = [2.0, 1.0]
    v = series1_eval(psi, 0.1)
    assert abs(v[0] - 0.12) < 1e-15 and abs(v[1] - 0.01) < 1e-15


def test_series2_eval_matches_monomial_sum():
    rng = np.random.RandomState(13)
    s = rand_series(7, rng)
    z, w = 0.31 - 0.12j, -0.25 + 0.4j
    want = sum(
        s.get(i, j) * z**i * w**j for i in range(8) for j in range(8 - i)
    )
    assert abs(s.eval(z, w) - want) < 1e-12


def _points(rng, n=200):
    """Points of every scale, with 0, |w| >> 1 and non-finite entries."""
    pts = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-4, 4, n)
    pts[:4] = [0.0, -0.0, 1e30 - 2e30j, 3e200 + 1e-300j]
    pts[4:8] = [complex(np.inf, 1.0), complex(1.0, -np.inf), complex(np.nan, 0.0),
                complex(np.inf, np.nan)]
    return pts


def _bits(values) -> list:
    """The raw bits of the real and imaginary parts (NaN payloads included)."""
    return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()


@pytest.mark.parametrize("order", [0, 1, 2, 7])
def test_series1_eval_on_arrays_equals_the_scalar_loop(order):
    rng = np.random.RandomState(40 + order)
    psi = Series1C2(order, rng.randn(order + 1, 2) + 1j * rng.randn(order + 1, 2))
    w = _points(np.random.default_rng(order))
    with np.errstate(all="ignore"):
        x, y = series1_eval(psi, w)
        want = [series_oracle.series1_eval(psi, wi) for wi in w]
        one = [series1_eval(psi, wi) for wi in w]
        grid = series1_eval(psi, w.reshape(20, 10))
    assert x.shape == y.shape == w.shape and x.dtype == np.complex128
    assert _bits(np.stack([x, y], 1)) == _bits(want)
    assert _bits(one) == _bits(want)
    assert all(type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is complex
               for v in one)
    assert _bits(np.stack(grid, -1).reshape(-1, 2)) == _bits(want)


@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_series2_eval_on_arrays_equals_the_scalar_loop(order):
    rng = np.random.RandomState(50 + order)
    s = rand_series(order, rng)
    gen = np.random.default_rng(order)
    z, w = _points(gen), gen.permutation(_points(gen))
    with np.errstate(all="ignore"):
        got = s.eval(z, w)
        want = [series_oracle.series2_eval(s, zi, wi) for zi, wi in zip(z, w)]
        one = [s.eval(zi, wi) for zi, wi in zip(z, w)]
        # broadcasting: one z against every w
        row = s.eval(z[9], w)
        row_want = [series_oracle.series2_eval(s, z[9], wi) for wi in w]
    assert got.shape == z.shape and got.dtype == np.complex128
    assert _bits(got) == _bits(want)
    assert _bits(one) == _bits(want) and all(type(v) is complex for v in one)
    assert _bits(row) == _bits(row_want)


# -- invariants / plumbing ---------------------------------------------------


def test_nan_rejected():
    with pytest.raises(NonFiniteError):
        Series2(1, np.array([np.nan, 0, 0], dtype=complex))
    a = Series2.const(1, 1e308)
    with pytest.raises(NonFiniteError):
        a + a  # overflow to inf must fail fast


def test_triangular_storage_size():
    for D in (1, 2, 5, 9):
        assert len(Series2.zero(D).coeffs) == (D + 1) * (D + 2) // 2


def test_shift_div_z1():
    D = 5
    z = Series2.var_z(D)
    s = series2_mul(z.pow(2), Series2.var_w(D) + Series2.const(D, 2.0))
    t = s.shift_div_z1(2)
    assert t.order == D - 2
    assert t.get(0, 0) == 2.0 and t.get(0, 1) == 1.0
    with pytest.raises(SeriesError):
        (z + Series2.var_w(D)).shift_div_z1(1)


def test_json_roundtrip_bit_exact():
    rng = np.random.RandomState(17)
    psi = Series1C2(6, rng.randn(7, 2) * 1e3 + 1j * rng.randn(7, 2) * 1e-7)
    text = series1_to_json(psi)
    back = series1_from_json(text)
    assert np.array_equal(back.coeffs, psi.coeffs)
    obj = json.loads(text)
    assert obj["order"] == 6 and len(obj["coeffs"]) == 7

    jet = (rand_series(4, rng), rand_series(4, rng))
    back_jet = jet_from_json(jet_to_json(jet))
    assert np.array_equal(back_jet[0].coeffs, jet[0].coeffs)
    assert np.array_equal(back_jet[1].coeffs, jet[1].coeffs)



# -- one layer product and one row codec, against the loops they replaced ---


def bits(s):
    return s.coeffs.view(np.uint64)


def rand_sparse_series(order, rng):
    """Random coefficients with zero layers, zero entries and signed zeros."""
    n = tri_size(order)
    c = rng.randn(n) * 0.5 + 1j * rng.randn(n) * 0.5
    for d in range(order + 1):
        if rng.rand() < 0.3:
            c[d * (d + 1) // 2 : (d + 1) * (d + 2) // 2] = 0.0
    pick = rng.rand(n)
    c[pick < 0.15] = complex(-0.0, 0.0)
    c[(pick >= 0.15) & (pick < 0.25)] = complex(0.0, -0.0)
    c[(pick >= 0.25) & (pick < 0.3)] = complex(-0.0, -0.0)
    return Series2(order, c)


@pytest.mark.parametrize("order", range(13))
def test_series_kernels_equal_the_loops_they_replaced(order):
    rng = np.random.RandomState(1500 + order)
    for _ in range(6):
        a, b = rand_sparse_series(order, rng), rand_sparse_series(order, rng)
        assert np.array_equal(bits(series2_mul(a, b)), bits(series_oracle.series2_mul_loop(a, b)))
        for k in range(4):
            assert np.array_equal(bits(a.pow(k)), bits(series_oracle.pow_loop(a, k)))
        for c0 in (1.5 - 0.25j, -0.75, 2j):
            u = Series2(order, np.concatenate([[c0], a.coeffs[1:]]))
            assert np.array_equal(bits(u.inverse()), bits(series_oracle.inverse_loop(u)))
        for c0 in (0.0, -0.0, complex(-0.0, -0.0)):
            e = Series2(order, np.concatenate([[c0], a.coeffs[1:]]))
            assert np.array_equal(bits(series2_exp(e)), bits(series_oracle.series2_exp_loop(e)))


@pytest.mark.parametrize("order", range(13))
def test_shift_div_z1_equals_the_monomial_loop(order):
    rng = np.random.RandomState(1600 + order)
    for l in range(min(order, 3) + 1):
        a = rand_sparse_series(order, rng)
        a.coeffs[tri_index(l, 0)] = 1.0   # sets the scale of the roundoff gate
        divisible = a.coeffs.copy()
        noise = a.coeffs.copy()
        for l1 in range(l):
            for l2 in range(order + 1 - l1):
                divisible[tri_index(l1, l2)] = complex(-0.0, 0.0)
                noise[tri_index(l1, l2)] *= 1e-12   # below the 1e-9 roundoff gate
        for c in (divisible, noise):
            s = Series2(order, c)
            assert np.array_equal(bits(s.shift_div_z1(l)), bits(series_oracle.shift_div_z1_loop(s, l)))
        if l:
            a.coeffs[tri_index(l - 1, order - l + 1)] = 0.5   # a last offender at least
            with pytest.raises(SeriesError) as want:
                series_oracle.shift_div_z1_loop(a, l)
            with pytest.raises(SeriesError) as got:
                a.shift_div_z1(l)
            assert str(got.value) == str(want.value)


def test_row_texts_keep_their_format_and_signed_zeros():
    psi = Series1C2(1, np.array([[complex(-0.0, 0.0), complex(1.0, -0.0)],
                                 [complex(0.1, 2.0), complex(-3e-300, 1e20)]]))
    text = series1_to_json(psi)
    assert text == ('{"order":1,"coeffs":[[-0,0,1,-0],'
                    '[0.10000000000000001,2,-3.0000000000000002e-300,1e+20]]}')
    # "-0" is the JSON integer 0; a float -0.0 keeps its sign through the reader
    back = series1_from_json(text.replace("[-0,0,1,-0]", "[-0.0,0,1,-0.0]"))
    assert np.array_equal(back.coeffs.view(np.uint64), psi.coeffs.view(np.uint64))
    rng = np.random.RandomState(18)
    jet = (rand_series(3, rng), rand_series(3, rng))
    jet[0].coeffs[4] = complex(-0.0, -0.0)
    text = jet_to_json(jet).replace("[-0,-0,", "[-0.0,-0.0,")
    back_jet = jet_from_json(text)
    for g, w in zip(back_jet, jet):
        assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("text", [
    "[1]",
    '{"order": 1}',
    '{"coeffs": [[0, 0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, "x"]]}',
    "not json",
])
def test_jet_reader_rejects_any_other_text(text):
    with pytest.raises(SeriesError):
        jet_from_json(text)


@pytest.mark.parametrize("text", [
    '{"order": 1, "coeffs": [[0, 0, 0, 0]]}',
    '{"order": 1, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
    '{"order": "one", "coeffs": []}',
])
def test_psi_reader_rejects_any_other_row_count(text):
    with pytest.raises(SeriesError):
        series1_from_json(text)
