import cmath
import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import series_oracle
from fatou.algebra import Series2, SeriesError, series2_exp, series2_mul
from fatou.maps import (
    AutoMap,
    FixedPointClass,
    MapEscapeError,
    bl,
    bl_inverse,
    classify_fixed_point,
    eval_pipeline,
    f1,
    f2,
    f3,
    f4,
    f6,
    four_map_composite,
    jacobian,
    map_from_json,
    map_to_json,
    overshear,
    rank0_map,
    rank1_map,
    rotation_map,
    shear,
    solve_overshear_coefficients,
    solve_shear_coefficients,
    theta_rotation,
)


def halton(n, base):
    out = np.zeros(n)
    for i in range(n):
        f, r, x = 1.0, 0.0, i + 1
        while x > 0:
            f /= base
            r += f * (x % base)
            x //= base
        out[i] = r
    return out


def bidisk_sample(n):
    z = np.sqrt(halton(n, 2)) * np.exp(2j * np.pi * halton(n, 3))
    w = np.sqrt(halton(n, 5)) * np.exp(2j * np.pi * halton(n, 7))
    return z, w


# -- eval ---------------------------------------------------------------


def test_four_map_closed_form():
    G = four_map_composite()
    v = G.eval(0.1, 0.2)
    want = (0.1 * cmath.exp(0.1 * cmath.exp(0.3)), 0.2 + 0.1 - 0.1 * cmath.exp(0.3))
    assert abs(v[0] - want[0]) < 1e-15 and abs(v[1] - want[1]) < 1e-15


def test_origin_fixed():
    assert four_map_composite().eval(0.0, 0.0) == (0.0, 0.0)
    assert rank0_map(2).eval(0.0, 0.0) == (0.0, 0.0)


def test_w_axis_fixed_pointwise():
    H = rank0_map(2)
    assert H.eval(0.0, 5 + 2j) == (0.0, 5 + 2j)
    for wv in (1e-6, 1.0, 1e3, 1e6, -1e6 + 1e6j):
        z1, w1 = H.eval(0.0, wv)
        assert z1 == 0.0 and w1 == wv
    z1, w1 = rank1_map().eval(0.0, 3 - 4j)
    assert z1 == 0.0 and w1 == 3 - 4j


def test_rotation_on_axis():
    t = 2 * np.pi * 0.25
    HR = rotation_map(t)
    z1, w1 = HR.eval(0.0, 1.0)
    assert z1 == 0.0 and abs(w1 - cmath.exp(1j * t)) < 1e-15


def test_fastpath_matches_pipeline():
    # standard sample grid away from the axis: 1e-3 <= |z| <= 1, |w| <= 10
    n = 200
    z = 10 ** (-3 * halton(n, 2)) * np.exp(2j * np.pi * halton(n, 3))
    w = 10 * np.sqrt(halton(n, 5)) * np.exp(2j * np.pi * halton(n, 7))
    for H in (rank0_map(2), rank1_map(), rotation_map(2 * np.pi * 0.618)):
        zf, wf = H.eval_batch(z, w)
        zp, wp = eval_pipeline(H.pipeline, z, w)
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(zf * wf * zp * wp)
        assert ok.mean() > 0.9
        rel_z = np.abs(zf[ok] - zp[ok]) / np.maximum(1.0, np.abs(zp[ok]))
        rel_w = np.abs(wf[ok] - wp[ok]) / np.maximum(1.0, np.abs(wp[ok]))
        assert max(rel_z.max(), rel_w.max()) < 1e-12


def test_fastpath_matches_pipeline_l3():
    # near the w-axis both evaluators lose accuracy in w at l = 3: the closed
    # form cancels terms of size |z|^2 down to z^l w (error ~ eps |z|^(2-l)),
    # and the pipeline, dividing by z^l after adding terms of size |z|, does
    # worse (~ eps |z|^(1-l), 4e-10 at the grid edge |z| = 1e-3 against
    # 80-digit mpmath); the agreement bound is the pipeline's
    n = 200
    z = 10 ** (-3 * halton(n, 2)) * np.exp(2j * np.pi * halton(n, 3))
    w = 10 * np.sqrt(halton(n, 5)) * np.exp(2j * np.pi * halton(n, 7))
    H = rank0_map(3)
    zf, wf = H.eval_batch(z, w)
    zp, wp = eval_pipeline(H.pipeline, z, w)
    ok = np.isfinite(zf * wf * zp * wp)
    rel_w = np.abs(wf - wp)[ok] / np.maximum(1.0, np.abs(wp[ok]))
    assert rel_w.max() < 1e-9


def test_escape_is_typed():
    H = rank0_map(2)
    with pytest.raises(MapEscapeError):
        H.eval(1.0, 700.0)  # e^{e^700} overflows


# -- inverses -----------------------------------------------------------


def test_generator_inverses():
    # F1^{-1} = F3 and Theta^{-1}
    F1 = AutoMap((f1(),))
    a, b = 0.3 + 0.1j, -0.7 + 2j
    assert F1.eval_inverse(a, b) == (a, b - a)
    t = 0.81
    T = AutoMap((theta_rotation(t),))
    zi, wi = T.eval_inverse(a, b)
    assert abs(wi - b * cmath.exp(-1j * t)) < 1e-15


def test_roundtrip_G_full_bidisk():
    G = four_map_composite()
    z, w = bidisk_sample(100)
    zf, wf = G.eval_batch(z, w)
    zb, wb = G.eval_inverse_batch(zf, wf)
    err = np.abs(zb - z) / np.maximum(1, np.abs(z)) + np.abs(wb - w) / np.maximum(1, np.abs(w))
    assert np.max(err) < 1e-10


def test_roundtrip_conjugated_presets():
    # The Bl-conjugated maps stretch doubly exponentially; binary64 supports
    # the 1e-10 round trip where the image stays at moderate scale.  Points
    # whose image overflows, underflows, or leaves |.| <= 5 are escapes for
    # this purpose and are excluded.
    z, w = bidisk_sample(100)
    for H in (rank0_map(2), rank1_map(), rotation_map(2 * np.pi * 0.618)):
        zf, wf = H.eval_batch(z, w)
        with np.errstate(invalid="ignore"):
            ok = (
                np.isfinite(zf * wf)
                & (np.abs(zf) <= 5)
                & (np.abs(wf) <= 5)
                & ((np.abs(wf) > 0) | (np.abs(w) == 0))
            )
        assert ok.sum() >= 50
        zb, wb = H.eval_inverse_batch(zf, wf)
        err = np.abs(zb - z) / np.maximum(1, np.abs(z)) + np.abs(wb - w) / np.maximum(
            1, np.abs(w)
        )
        assert np.nanmax(err[ok]) < 1e-10


def test_inverse_on_axis():
    H = rank0_map(2)
    assert H.eval_inverse(0.0, 2 - 1j) == (0.0, 2 - 1j)
    t = 2 * np.pi / 3
    HR = rotation_map(t)
    zi, wi = HR.eval_inverse(0.0, 1.0)
    assert abs(wi - cmath.exp(-1j * t)) < 1e-15


def test_inverse_escape_is_silent_like_the_forward_map():
    # the inverse of (Bl(2), F1) divides by z^2 at z = 0: an escape, no warning
    z = np.array([0.0, -0.0, np.inf, np.nan, 1e-200, 0.5]) + 0j
    w = np.array([np.inf, 1.0, 1.0, 1.0, np.nan, -np.inf]) + 0j
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MapEscapeError):
            AutoMap((bl(2), f1())).eval_inverse(0, 1)
        with pytest.raises(MapEscapeError):
            AutoMap((bl_inverse(2), f1())).eval(0, 1)
        for H in (rank0_map(2), rank1_map(), rotation_map(2 * np.pi / 3, Fraction(1, 3))):
            H.eval_inverse_batch(z, w)


# -- jets ---------------------------------------------------------------


def test_jet_G_known_coefficients():
    Z, W = four_map_composite().jet(3)
    assert abs(W.get(2, 0) + 1) < 1e-12
    assert abs(W.get(3, 0) + 0.5) < 1e-12
    assert abs(W.get(1, 1) + 1) < 1e-12
    assert abs(Z.get(1, 0) - 1) < 1e-15 and abs(Z.get(2, 0) - 1) < 1e-12


def test_jet_rank0_expansion():
    Z, W = rank0_map(2).jet(2)
    assert abs(Z.get(2, 0) - 1) < 1e-12   # first component z^2 coefficient
    assert abs(W.get(1, 1) - 1) < 1e-12   # second component zw coefficient
    assert abs(Z.get(1, 0) - 1) < 1e-13 and abs(W.get(0, 1) - 1) < 1e-13
    assert abs(W.get(1, 0)) < 1e-13       # no pure z term at degree 1


def test_jet_rank1_stated_pattern():
    # second component w - z^2 w / 2 + O(z^3, z^3 w, z^3 w^2): assert the
    # stated coefficient and vanishing of everything below the O-degrees
    Z, W = rank1_map().jet(3)
    assert abs(W.get(2, 1) + 0.5) < 1e-12
    for l1, l2 in [(1, 1), (2, 0), (1, 0), (0, 2), (1, 2), (0, 3), (0, 0)]:
        assert abs(W.get(l1, l2)) < 1e-12, (l1, l2)
    assert abs(W.get(0, 1) - 1) < 1e-13


def test_jet_product_identity_5_1_2():
    # e^{3 z e^{z e^{z+z^2 w}}} e^{-2 z e^{z+z^2 w}} = 1 + z + 3z^2/2
    # + O(z^3, z^3 w, z^5 w^2), so the z^2 w (and zw) coefficients vanish
    D = 4
    z = Series2.var_z(D)
    w = Series2.var_w(D)
    zA = series2_mul(z, series2_exp(z + series2_mul(series2_mul(z, z), w)))
    zu = series2_mul(z, series2_exp(zA))
    prod = series2_mul(series2_exp(zu.scale(3)), series2_exp(zA.scale(-2)))
    assert abs(prod.get(0, 0) - 1) < 1e-12
    assert abs(prod.get(1, 0) - 1) < 1e-12
    assert abs(prod.get(2, 0) - 1.5) < 1e-12
    assert abs(prod.get(2, 1)) < 1e-12
    assert abs(prod.get(1, 1)) < 1e-12


JET_PRESETS = {
    **{f"rank0_l{l}": rank0_map(l) for l in (1, 2, 3, 4)},
    "rank1": rank1_map(),
    "rotation_1/3": rotation_map(2 * math.pi / 3, Fraction(1, 3)),
    "rotation_golden": rotation_map(math.pi * (math.sqrt(5) - 1)),
    "four_map": four_map_composite(),
}
JET_GENERATORS = {
    "F1": f1(), "F2": f2(), "F3": f3(), "F4": f4(),
    "Shear": shear((-1.5, 0.7 - 0.2j)), "Shear()": shear(()),
    "Overshear": overshear((-2.0, 0.25 + 1j)), "Overshear()": overshear(()),
    "F6": f6(2), "Theta": theta_rotation(0.9), "Bl": bl(3), "BlInverse": bl_inverse(2),
}
# each generator after F2 then F1, where Z = z e^w and W = w + z e^w
JET_AFTER_G = {name: AutoMap((f2(), f1(), em)) for name, em in JET_GENERATORS.items()}
# the origin, the w-axis and a point off it
JET_POINTS = (None, (0.0, 0.5 - 0.25j), (0.125 - 0.0625j, -0.3 + 0.2j))


def assert_jet_equals_oracle(m, order, at):
    """AutoMap.jet gives the bits of the per-generator jet chain, signed
    zeros included, or raises as it does."""
    try:
        want = series_oracle.jet(m, order, at)
    except SeriesError as exc:
        with pytest.raises(type(exc)):
            m.jet(order, at)
        return
    got = m.jet(order, at)
    for g, w in zip(got, want):
        assert g.order == w.order == order
        assert np.array_equal(g.coeffs.view(np.uint64), w.coeffs.view(np.uint64)), (order, at)


@pytest.mark.parametrize("name", JET_PRESETS)
def test_preset_jets_equal_the_generator_chain_oracle(name):
    for order in range(1, 11):
        for at in JET_POINTS:
            assert_jet_equals_oracle(JET_PRESETS[name], order, at)


@pytest.mark.parametrize("name", JET_GENERATORS)
def test_generator_jets_equal_the_generator_chain_oracle(name):
    for m in (AutoMap((JET_GENERATORS[name],)), JET_AFTER_G[name]):
        for order in (1, 2, 3, 6, 10):
            for at in JET_POINTS:
                assert_jet_equals_oracle(m, order, at)


def value_points():
    """Every complex z of 0, -0, +-inf, NaN and 0.3 parts against seven w,
    then 400 random points with 1e-3 <= |z| <= 1 and |w| <= 10."""
    parts = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.3)
    ws = (0.0, complex(-0.0, -0.0), complex(0.0, -0.0), math.inf,
          complex(-0.0, -math.inf), math.nan, 0.5 - 0.25j)
    special = [(complex(a, b), v) for a in parts for b in parts for v in ws]
    rng = np.random.default_rng(11)
    z = 10 ** (-3 * rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
    w = 10 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
    return (np.concatenate([[p[0] for p in special], z]),
            np.concatenate([[p[1] for p in special], w]))


VALUE_POINTS = value_points()


@pytest.mark.parametrize("name", list(JET_PRESETS) + list(JET_GENERATORS))
def test_pipeline_values_equal_the_one_point_oracle(name):
    # eval_pipeline gives each point the bits of a one-point run, signed
    # zeros included; a NaN part need only be NaN, as its sign bit depends
    # on the loop numpy runs (one-element and longer arrays differ there)
    z, w = VALUE_POINTS
    maps = [JET_PRESETS[name]] if name in JET_PRESETS else [
        AutoMap((JET_GENERATORS[name],)), JET_AFTER_G[name]]
    for m in maps:
        got = eval_pipeline(m.pipeline, z, w)
        want = series_oracle.eval_pipeline(m.pipeline, z, w)
        for g, o in zip(got, want):
            g, o = g.view(np.float64), o.view(np.float64)
            nan = np.isnan(g)
            assert np.array_equal(nan, np.isnan(o)), name
            assert np.array_equal(g[~nan].view(np.uint64), o[~nan].view(np.uint64)), name


def test_empty_tails_are_exact_zeros():
    # Shear and Overshear with no coefficients leave w alone, also where z
    # is not finite (0 * z would be NaN there)
    z = np.array([np.inf, complex(np.nan, 1.0), 0.5])
    w = np.array([2.0, -3.0j, 1.0])
    for em in (shear(()), overshear(())):
        assert np.array_equal(AutoMap((em,)).eval_batch(z, w)[1], w)


def test_jet_matches_finite_differences():
    G = four_map_composite()
    Z, W = G.jet(2)
    h = 1e-6
    dz = (np.array(G.eval(h, 0)) - np.array(G.eval(-h, 0))) / (2 * h)
    dw = (np.array(G.eval(0, h)) - np.array(G.eval(0, -h))) / (2 * h)
    assert abs(dz[0] - Z.get(1, 0)) < 1e-6 and abs(dz[1] - W.get(1, 0)) < 1e-6
    assert abs(dw[0] - Z.get(0, 1)) < 1e-6 and abs(dw[1] - W.get(0, 1)) < 1e-6


# -- solvers ------------------------------------------------------------


def test_shear_solver_known_values():
    a = solve_shear_coefficients(four_map_composite(), 2)
    assert abs(a[0] - 1.0) < 1e-12
    assert abs(a[1] + 1.5) < 1e-12


def test_shear_solver_clean_base():
    # base with no pure-z defect: all coefficients zero
    base = AutoMap((overshear((0.3,)),))  # (z, w e^{0.3 z}) has no pure z terms
    a = solve_shear_coefficients(base, 2)
    assert max(abs(c) for c in a) < 1e-14


def test_shear_solver_reexpansion():
    G = four_map_composite()
    a = solve_shear_coefficients(G, 3)
    cleaned = AutoMap(G.pipeline + (shear(a),))
    _, W = cleaned.jet(5)
    for i in range(2, 5):
        assert abs(W.get(i, 0)) < 1e-12, i


def test_overshear_solver_w_times_one_plus_z():
    # base whose second-component jet is w(1+z): f = log(1+z) truncated
    logc = tuple(((-1) ** (k + 1)) / k for k in range(1, 9))
    base = AutoMap((overshear(logc),))
    c = solve_overshear_coefficients(base, 1)
    assert abs(c[0] + 1.0) < 1e-12


def test_overshear_solver_clean_base():
    base = AutoMap((shear((0.5, 0.25)),))  # no w z^j defects
    c = solve_overshear_coefficients(base, 2)
    assert max(abs(x) for x in c) < 1e-14


def test_overshear_solver_reexpansion():
    G = four_map_composite()
    a = solve_shear_coefficients(G, 2)
    base = AutoMap(G.pipeline + (shear(a),))
    c = solve_overshear_coefficients(base, 2)
    full = AutoMap(base.pipeline + (overshear(c),))
    _, W = full.jet(4)
    for j in (1, 2, 3):
        assert abs(W.get(j, 1)) < 1e-12, j


# -- classification ------------------------------------------------------


def test_classify_linear_models():
    assert classify_fixed_point(lambda z, w: (z / 2, w / 2), (0, 0)) == FixedPointClass.ATTRACTING
    assert classify_fixed_point(lambda z, w: (2 * z, 3 * w), (0, 0)) == FixedPointClass.REPELLING
    assert classify_fixed_point(lambda z, w: (2 * z, w / 2), (0, 0)) == FixedPointClass.SADDLE
    assert (
        classify_fixed_point(lambda z, w: (z, w / 2), (0, 0)) == FixedPointClass.SEMI_ATTRACTIVE
    )
    assert (
        classify_fixed_point(lambda z, w: (z, 2 * w), (0, 0)) == FixedPointClass.SEMI_REPULSIVE
    )


def test_classify_rank0_origin_neutral():
    assert classify_fixed_point(rank0_map(2), (0, 0)) == FixedPointClass.NEUTRAL


def test_classify_rank1_waxis_neutral():
    for w0 in (0.5, 5 + 2j, -1j):
        assert classify_fixed_point(rank1_map(), (0, w0)) == FixedPointClass.NEUTRAL


def test_classify_requires_fixed_point():
    with pytest.raises(ValueError):
        classify_fixed_point(rank0_map(2), (0.3, 0.2))


def test_jacobian_jet_vs_fd():
    G = four_map_composite()
    J_jet = jacobian(G, (0.1, 0.2))
    J_fd = jacobian(G.eval, (0.1, 0.2))
    assert np.max(np.abs(J_jet - J_fd)) < 1e-6


# -- serialization -------------------------------------------------------


def test_map_json_roundtrip():
    for H in (four_map_composite(), rank0_map(2), rotation_map(2 * np.pi / 3),
              rotation_map(2 * np.pi / 3, Fraction(1, 3))):
        H2 = map_from_json(map_to_json(H))
        assert H2.pipeline == H.pipeline
        assert H2.fastpath == H.fastpath
        z, w = 0.05 + 0.02j, 0.3 - 0.1j
        assert H.eval(z, w) == H2.eval(z, w)


# map JSON texts of the earlier format, which wrote the closed form a second
# time as a "fastpath" block and the rotation number only there
LEGACY_MAP_JSON = {
    "rank0_l2": (rank0_map(2), (
        '{"pipeline": [{"kind": "Bl", "l": 2}, {"kind": "F1"}, {"kind": "F2"}, {"kind": "F3"}, '
        '{"kind": "F4"}, {"kind": "Shear", "coeffs": [[1.0, -0.0], [-1.5, -0.0]]}, '
        '{"kind": "Overshear", "coeffs": [[1.0, -0.0], [0.5, -0.0], [-2.6666666666666665, -0.0]]}, '
        '{"kind": "F6", "l": 2}, {"kind": "BlInverse", "l": 2}], "fastpath": {"kind": "rank0", '
        '"l": 2, "shear": [[1.0, -0.0], [-1.5, -0.0]], "overshear": [[1.0, -0.0], [0.5, -0.0], '
        '[-2.6666666666666665, -0.0]], "theta": 0.0, "theta_frac": null}}')),
    "rotation_1/3": (rotation_map(2 * math.pi / 3, Fraction(1, 3)), (
        '{"pipeline": [{"kind": "Bl", "l": 2}, {"kind": "F1"}, {"kind": "F2"}, {"kind": "F3"}, '
        '{"kind": "F4"}, {"kind": "Shear", "coeffs": [[1.0, -0.0], [-1.5, -0.0], '
        '[0.6666666666666665, -0.0]]}, {"kind": "F6", "l": 2}, {"kind": "BlInverse", "l": 2}, '
        '{"kind": "Theta", "theta": 2.0943951023931953}], "fastpath": {"kind": "rotation", '
        '"l": 2, "shear": [[1.0, -0.0], [-1.5, -0.0], [0.6666666666666665, -0.0]], '
        '"overshear": [], "theta": 2.0943951023931953, "theta_frac": [1, 3]}}')),
}


@pytest.mark.parametrize("name", LEGACY_MAP_JSON)
def test_legacy_map_json_loads_as_its_pipeline(name):
    H, text = LEGACY_MAP_JSON[name]
    z, w = bidisk_sample(64)
    edited = json.loads(text)
    edited["fastpath"]["shear"][0][0] += 0.5   # a second description that disagrees
    for H2 in (map_from_json(text), map_from_json(json.dumps(edited))):
        assert H2 == H and H2.fastpath == H.fastpath
        for got, want in zip(H2.eval_batch(z, w), H.eval_batch(z, w)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert map_from_json(map_to_json(H)) == H
    assert "fastpath" not in map_to_json(H)


# -- the closed form is recognised from the pipeline ------------------------


def test_automap_is_its_pipeline():
    assert [f.name for f in dataclasses.fields(AutoMap) if f.init] == ["pipeline"]
    for H in JET_PRESETS.values():
        H2 = AutoMap(H.pipeline)
        assert H2 == H and H2.fastpath == H.fastpath
    assert four_map_composite().fastpath is None
    fp = rotation_map(2 * math.pi / 3, Fraction(1, 3)).fastpath
    assert (fp.l, fp.overshear, fp.rotation.frac) == (2, (), Fraction(1, 3))
    assert rank0_map(3).fastpath.rotation is None


def test_other_pipelines_have_no_closed_form():
    body = rank1_map().pipeline
    for pipeline in (body[:-1], body[1:], body[:5] + (shear(()),) + body[6:],
                     body[:6] + (f6(3),) + body[7:], body[:7] + (bl_inverse(3),),
                     (bl(3),) + body[1:], body + (f1(),), body + (theta_rotation(1.0),) * 2,
                     body[:6] + (overshear((1.0,)), overshear((1.0,))) + body[6:]):
        assert AutoMap(pipeline).fastpath is None


def test_theta_frac_must_match_theta():
    # a 1-radian rotation is no rotation by 2 pi / 3
    with pytest.raises(ValueError):
        rotation_map(1.0, Fraction(1, 3))
    with pytest.raises(ValueError):
        theta_rotation(2 * math.pi / 3 + 1e-9, Fraction(1, 3))
    # the CLI's 2 pi float(p/q) passes
    for frac in (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 3), Fraction(0), Fraction(355, 113)):
        assert rotation_map(2 * math.pi * float(frac), frac).fastpath.rotation.frac == frac


def test_elementary_validation():
    with pytest.raises(ValueError):
        bl(0)
    with pytest.raises(ValueError):
        shear((float("inf"),))
