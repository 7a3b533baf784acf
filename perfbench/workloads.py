"""The three workloads: inputs made from a seed, calls into fatou, and checks
computed apart from fatou.

Each workload is a ``setup(rng, presets)`` that returns the inputs and a
``round(inputs, run, out_dir)`` that makes the same list of operations
every time.
Each operation is a call into fatou together with the checks on what it
returned, run through ``Round.op``.  A check that fails marks the run
incorrect; an operation that raises, or that shows the known
``majorant_split`` overflow, counts as failed.

fatou is called through module attributes (``dyn.estimate_limit_map``) so
that a traced run sees the wrappers installed by ``tracing.Tracer``.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import re
import tempfile
import traceback

import numpy as np

from fatou import cli
from fatou import diophantine as dio
from fatou import dynamics as dyn
from fatou import linearization as lin
from fatou import maps

REGION = dyn.RegionUNM(6.0, 10.0)
TAU1 = 1e-4             # estimate_limit_map's default rank-0 threshold
GOLDEN_LAM = cmath.exp(2j * math.pi * dio.GOLDEN.value())


class CheckFailed(Exception):
    """An output of fatou disagrees with the benchmark's own computation."""


class OperationFailed(Exception):
    """An operation hit a known fault of the program."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Round:
    """Counts the operations of one round and what became of them."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.log = log

    def op(self, name, fn):
        self.attempted += 1
        try:
            fn()
        except CheckFailed as exc:
            self.wrong.append(f"{name}: {exc}")
            self.log(f"CHECK FAILED {name}: {exc}")
        except OperationFailed as exc:
            self.failed += 1
            self.log(f"operation failed {name}: {exc}")
        except Exception:  # a crash in fatou is a failed operation, not a stop
            self.failed += 1
            self.log(f"operation failed {name}:\n{traceback.format_exc()}")


def build_presets():
    """The map presets and the rank-0 jet every workload sets up."""
    h0 = maps.rank0_map(2)
    h1 = maps.rank1_map()
    b = h0.jet(3)[1].get(2, 0)
    return h0, h1, b


def _disk(rng, radius, count):
    return radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count))


def _fd_singular_values(limz, limw, h):
    """Singular values of the finite-difference Jacobian at interior nodes."""
    d = lambda a, ax: (np.roll(a, -1, ax) - np.roll(a, 1, ax))[1:-1, 1:-1] / (2 * h)
    jac = np.stack([np.stack([d(limz, 0), d(limz, 1)], -1),
                    np.stack([d(limw, 0), d(limw, 1)], -1)], -2)
    s = np.linalg.svd(jac, compute_uv=False)
    return s[..., 0], s[..., 1]


def _cplx(x):
    return f"{x.real:.17g}{x.imag:+.17g}j"


# -- rank0_orbits ----------------------------------------------------------------


def rank0_setup(rng, presets):
    h0, _, b = presets
    return {
        "map": h0,
        "b": b,
        "offset": int(rng.integers(0, 10**6)),
        "growth": (6.0 + rng.uniform(0, 1, 100) + 1j * rng.uniform(-0.5, 0.5, 100),
                   _disk(rng, 10.0 * (1 - 1e-12), 100)),
        "grid": dyn.Grid2D(7.0 + rng.uniform(-0.25, 0.25) + 1j * rng.uniform(-0.25, 0.25),
                           complex(_disk(rng, 0.5, 1)[0]), 10, 10, 1e-3),
        "iterate_seed": (rng.uniform(80, 120) + 1j * rng.uniform(-5, 5),
                         complex(_disk(rng, 1.5, 1)[0])),
        "curve_seed": rng.uniform(55, 65) + 1j * rng.uniform(-1, 1),
    }


def rank0_round(inp, run, out_dir):
    h0 = inp["map"]
    limits = {}

    def invariance():
        rep = dyn.verify_forward_invariance(h0, REGION, 100, 10**4, offset=inp["offset"])
        check(rep.samples == 100 and rep.n_steps == 10**4, "wrong sample or step count")
        check(not rep.violations, f"{len(rep.violations)} orbits left U_6,10")

    def growth():
        g = dyn.check_growth_bounds(h0, *inp["growth"], 10**4)
        check(g["n_steps"] == 10**4, "wrong step count")
        check(g["lower_violations"] == 0 and g["upper_violations"] == 0
              and g["min_lower_margin"] >= 0 and g["min_upper_margin"] >= 0,
              f"growth sandwich n/2 <= |zhat_n| <= |zhat_0| + 2n broken: {g}")

    def limit(n):
        def run_it():
            est = dyn.estimate_limit_map(h0, inp["grid"], tol=0.0, n_max=n)
            check(est.iterations_used == n, f"ran {est.iterations_used} steps, not {n}")
            check(np.all(np.isfinite(est.limits_z)) and np.all(np.isfinite(est.limits_w)),
                  "non-finite limits")
            limits[n] = est
        return run_it

    def decay_and_rank():
        limit(10**5)()
        e4, e5 = limits[10**4], limits[10**5]
        b = inp["b"]
        check(abs(b + 2.0 / 3.0) < 1e-12, f"jet(3) gives b = {b}, the law has -2/3")
        zw4 = -e4.limits_w / e4.limits_z
        zw5 = -e5.limits_w / e5.limits_z
        want = b.real * math.log(10)
        worst = float(np.max(np.abs(zw5 - zw4 - want))) / abs(want)
        check(worst <= 0.01, f"decay law zhat w grows by b ln 10 off by {worst:.2e}")
        s1, _ = _fd_singular_values(e5.limits_z, e5.limits_w, inp["grid"].step)
        s1_med = float(np.median(s1))
        check(s1_med < TAU1, f"median s1 = {s1_med:.3e} at 1e5 steps is not below {TAU1}")
        check(e5.numerical_rank == 0, f"rank verdict {e5.numerical_rank}, not 0")

    def iterate_cli():
        zh, w = inp["iterate_seed"]
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            path = os.path.join(tmp, "orbit.csv")
            rc = cli.main(["iterate", "--map", "rank0", "--l", "2", "--seed-transformed",
                           f"{_cplx(zh)},{_cplx(w)}", "--n", "10000", "--region", "6,10",
                           "--out", path])
            check(rc == 0, f"fatou iterate returned {rc}")
            with open(path) as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        check(rows[0] == list(dyn.ORBIT_CSV_HEADER), f"header {rows[0]}")
        body = rows[1:]
        check([int(r[0]) for r in body] == list(range(10001)), "rows are not n = 0..10000")
        check(all(r[7] == "1" for r in body), "a row has in_U != 1")
        vals = np.array([[float(x) for x in r[1:7]] for r in body])
        z = vals[:, 0] + 1j * vals[:, 1]
        zh_csv = vals[:, 4] + 1j * vals[:, 5]
        err = np.abs(zh_csv - (-1.0 / z)) / np.abs(zh_csv)
        check(float(err.max()) < 1e-14, f"zhat columns differ from -1/z by {err.max():.2e}")
        check(abs(zh_csv[0] - zh) < 1e-12 * abs(zh), "row 0 is not the seed")

    def curve():
        zh = inp["curve_seed"]
        eps, tol, segs = 1e-2, 1e-10, 16
        cur = dyn.invariant_curve(h0, (-1.0 / zh, 0.0), (0.0, 0.0), segs, 10**4, eps,
                                  bisect_tol=tol)
        check(cur.polyline_z.shape == (10**4 + 1, segs + 1), "wrong polyline shape")
        check(len(cur.sphere_hits) >= 1, "no crossing of the sphere |x| = eps")
        g = np.hypot(np.abs(cur.polyline_z), np.abs(cur.polyline_w)) - eps
        for (z, w), (n, t) in zip(cur.sphere_hits, cur.hit_params):
            k = min(int(t * segs), segs - 1)
            slope = abs(g[n, k + 1] - g[n, k]) * segs
            miss = abs(math.hypot(abs(z), abs(w)) - eps)
            check(miss <= 4 * slope * tol + 4e-16,
                  f"hit at n={n} lies {miss:.2e} off the sphere")

    run.op("verify_forward_invariance", invariance)
    run.op("check_growth_bounds", growth)
    run.op("estimate_limit_map_1e4", limit(10**4))
    run.op("estimate_limit_map_1e5", decay_and_rank)
    run.op("cli_iterate", iterate_cli)
    run.op("invariant_curve", curve)


# -- rank1_grid --------------------------------------------------------------------


def rank1_setup(rng, presets):
    _, h1, _ = presets
    return {
        "map": h1,
        "grid": dyn.Grid2D(50.0 + rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
                           0.5 + complex(_disk(rng, 0.1, 1)[0]), 48, 48, 1e-3),
        "coverage_zhat0": rng.uniform(190, 210) + 1j * rng.uniform(-5, 5),
    }


def rank1_round(inp, run, out_dir):
    h1, grid = inp["map"], inp["grid"]
    tol = 1e-8
    est_box = {}

    def limit():
        est = dyn.estimate_limit_map(h1, grid, tol=tol)
        check(est.stop_reason == "converged", f"stopped: {est.stop_reason}")
        n = est.iterations_used
        s1, s2 = _fd_singular_values(est.limits_z, est.limits_w, grid.step)
        s1_med = float(np.median(s1))
        check(abs(s1_med - 1.0) < 0.1, f"median s1 = {s1_med:.4f}, not near 1")
        check(float(s2.max()) < 10 * tol, f"max s2 = {s2.max():.2e} exceeds 10 tol")
        check(est.numerical_rank == 1, f"rank verdict {est.numerical_rank}, not 1")
        worst = float(np.max(np.abs(est.limits_z))) * n
        check(worst <= 2.0, f"|z-limit| reaches {worst:.3f}/n, more than 2/n")
        est_box["est"] = est

    def products():
        est = est_box["est"]
        zh, w0 = grid.seeds()
        P, S, _, n = dyn.track_product_sum_batch(h1, zh.ravel(), w0.ravel(),
                                                 est.iterations_used, 0.0)
        check(n == est.iterations_used, f"ran {n} steps, not {est.iterations_used}")
        w_end = est.limits_w.ravel()
        err = np.abs(w0.ravel() * P + S - w_end) / np.maximum(1.0, np.abs(w_end))
        check(float(err.max()) < 1e-12, f"w0 P + S misses the plain run by {err.max():.2e}")

    def coverage():
        R = 1.0
        cov = dyn.waxis_coverage(h1, R, -1.0 / inp["coverage_zhat0"], 256)
        check(len(cov.windings) == 20, "wrong number of targets")
        check(bool(np.all(np.abs(cov.targets) < R)), "a target lies outside B(0, R)")
        check(bool(np.all(cov.windings == 1)), f"windings {cov.windings.tolist()}")
        check(cov.covered and cov.precondition_sup < R, "coverage not certified")

    run.op("estimate_limit_map", limit)
    run.op("track_product_sum_batch", products)
    run.op("waxis_coverage", coverage)


# -- series_certify -------------------------------------------------------------------


def _fib_upto(k_max):
    out, a, b = [1], 1, 2
    while b <= k_max:
        out.append(b)
        a, b = b, a + b
    return out


def _pell_upto(k_max):
    out, a, b = [], 1, 2
    while a <= k_max:
        out.append(a)
        a, b = b, 2 * b + a
    return out


def series_setup(rng, presets):
    import mpmath

    mpmath.mp.dps = 30
    return {
        "mp": mpmath,
        "radius_factor": rng.uniform(0.25, 1.0),
        "phase": rng.uniform(0, 2 * math.pi),
        "sector_r": [1.0 - rng.uniform(5e-4, 2e-3), 1.0 + rng.uniform(5e-4, 2e-3)],
    }


def _explicit_residual(coeffs, lam, radius, phase, samples=64):
    """max over |w| = radius of F(psi(w)) - psi(lam w), F = (lam z + w^2, w + z^2)."""
    pv = np.polynomial.polynomial.polyval
    w = radius * np.exp(1j * (phase + 2 * np.pi * np.arange(samples) / samples))
    x, y = pv(w, coeffs[:, 0]), pv(w, coeffs[:, 1])
    xl, yl = pv(lam * w, coeffs[:, 0]), pv(lam * w, coeffs[:, 1])
    return float(max(np.abs(lam * x + y * y - xl).max(), np.abs(y + x * x - yl).max()))


def _mp_minimum(mp, theta, N, ks):
    """min over k in ks of 2|sin(pi k theta)| k^N at 30 digits, with its argmin."""
    vals = {k: 2 * abs(mp.sin(mp.pi * k * theta)) * mp.mpf(k) ** N for k in ks}
    k = min(vals, key=vals.get)
    return k, float(vals[k])


def series_round(inp, run, out_dir):
    mp = inp["mp"]
    sqrt5, sqrt2 = mp.sqrt(5), mp.sqrt(2)
    theta_g = (sqrt5 - 1) / 2
    theta_s = sqrt2 - 1
    lam = GOLDEN_LAM
    fam = lin.quadratic_test_family
    res = {}

    def psi_residual(result, lam_):
        r = inp["radius_factor"] * result.rho_estimate
        got = _explicit_residual(result.psi.coeffs, lam_, r, inp["phase"])
        check(got < 1e-12, f"|F(psi(w)) - psi(lam w)| = {got:.2e} at |w| = {r:.3g}")

    def psi(D):
        def run_it():
            result = lin.solve_psi(fam(lam), lam, D)
            check(result.precision_mode == "double", result.precision_mode)
            psi_residual(result, lam)
            res[D] = result
        return run_it

    def psi80():
        psi(80)()
        check(np.array_equal(res[40].psi.coeffs, res[80].psi.coeffs[:41]),
              "psi at D = 40 is not a bitwise prefix of psi at D = 80")

    def split80():
        p = res[80]
        c = dio.max_c_detail(dio.GOLDEN, 1.0, 80)[0]
        sp = lin.majorant_split(p.M, dio.GOLDEN, c, 1.0, 80)
        norms = np.abs(p.psi.coeffs).max(axis=1)[2:]
        sigma, bound = sp.sigma[2:], (sp.eta * sp.delta)[2:]
        check(np.all(np.isfinite(sigma)) and np.all(np.isfinite(bound)), "non-finite majorant")
        check(np.all(norms <= sigma * (1 + 1e-9)), "||psi_n|| > sigma_n")
        check(np.all(sigma <= bound * (1 + 1e-9)), "sigma_n > eta_n delta_n")

    def dd12():
        result = lin.solve_psi(fam(lam), lam, 12, precision="dd")
        check(result.precision_mode == "double-double", result.precision_mode)
        ref = res[40].psi.coeffs[:13]
        err = np.abs(result.psi.coeffs - ref) / np.maximum(1.0, np.abs(ref))
        check(float(err.max()) < 1e-13, f"double-double psi differs by {err.max():.2e}")

    def sweep():
        sw = lin.parameter_sweep(fam, dio.GOLDEN, [0.995, 1.0, 1.005], 40)
        check(not sw.failures, f"failures {sw.failures}")
        check(sw.smoothness_ok, f"smoothness ratios {sw.smoothness_ratios}")
        for r, result in sw.results.items():
            psi_residual(result, r * GOLDEN_LAM)
        check(np.array_equal(sw.results[1.0].psi.coeffs, res[40].psi.coeffs),
              "the sweep's r = 1 psi differs from solve_psi at D = 40")

    def linearize_cli():
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            path = os.path.join(tmp, "psi.json")
            rc = cli.main(["linearize", "--theta", "golden", "--order", "40", "--out", path])
            check(rc == 0, f"fatou linearize returned {rc}")
            with open(path) as fh:
                data = json.load(fh)["data"]
        rows = np.array(data["psi_coeffs"], dtype=float)
        coeffs = np.stack([rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]], 1)
        check(np.array_equal(coeffs, res[40].psi.coeffs), "CLI psi differs from solve_psi")
        check(data["majorant_ok"] is True, "CLI reports majorant_ok false")
        check(_explicit_residual(coeffs, lam, 0.5 * data["rho_estimate"], inp["phase"])
              < 1e-12, "CLI psi fails the explicit residual")

    certs = {}

    def certificate(theta_obj, theta_mp, N, k_max, ks, exact):
        def run_it():
            c_open, best, argmin, running = dio.max_c_detail(theta_obj, N, k_max)
            minima = [k for k, _ in running]
            if exact:
                check(minima == ks, f"running minima {minima} are not {ks}")
            else:
                check(set(minima) <= set(ks), f"running minima {minima} not convergents")
            k_mp, v_mp = _mp_minimum(mp, theta_mp, N, ks)
            check(argmin == k_mp, f"argmin {argmin}, the 30-digit minimum is at {k_mp}")
            check(abs(best - v_mp) <= 1e-12 * v_mp, f"minimum {best!r} vs {v_mp!r}")
            check(c_open < v_mp, "c_open is not below the minimum")
            certs[theta_obj] = c_open, v_mp
        return run_it

    fib6 = _fib_upto(10**6)

    def siegel():
        c_open, v_mp = certs[dio.GOLDEN]
        cert = dio.check_siegel(dio.GOLDEN, c_open, 1.0, 10**6)
        check(cert.verified_up_to == 10**6, "did not verify to 1e6")
        # the minimum over k <= 1e6 sits at a convergent denominator, where
        # v_mp > c_open, so no violation exists
        check(cert.ok and c_open < v_mp, f"{len(cert.violations)} violations")

    def sector():
        k_max = 10**4
        rep = dio.check_sector_lemma(dio.GOLDEN, inp["sector_r"], k_max)
        check(rep.ok, "sector, complement or final bound violated")
        _, v_mp = _mp_minimum(mp, theta_g, 1.0, _fib_upto(k_max))
        want = v_mp * math.sqrt(2.0) / 2.0
        check(abs(rep.c_prime - want) <= 1e-12 * want, f"c' = {rep.c_prime!r}, want {want!r}")

    def split400():
        c = dio.max_c_detail(dio.GOLDEN, 1.0, 400)[0]
        try:
            sp = lin.majorant_split(1.0, dio.GOLDEN, c, 1.0, 400)
        except ArithmeticError as exc:
            degrees = [int(x) for x in re.findall(r"\d+", str(exc))]
            if not any(2 <= d <= 400 for d in degrees):
                raise OperationFailed(f"overflow error names no degree: {exc}") from exc
            return
        seqs = {"sigma": sp.sigma, "eta": sp.eta, "delta": sp.delta}
        if any(np.isnan(v).any() for v in seqs.values()):
            first = {k: int(np.argmax(~np.isfinite(v))) for k, v in seqs.items()
                     if not np.all(np.isfinite(v))}
            raise OperationFailed(f"non-finite from degree {first} with no error "
                                  f"(split_ok={sp.split_ok})")
        with np.errstate(invalid="ignore", over="ignore"):
            ok = np.all(sp.sigma[2:] <= sp.eta[2:] * sp.delta[2:] * (1 + 1e-9))
        check(bool(ok), "sigma_n > eta_n delta_n at D = 400")

    run.op("solve_psi_40", psi(40))
    run.op("solve_psi_80", psi80)
    run.op("majorant_split_80", split80)
    run.op("solve_psi_dd_12", dd12)
    run.op("parameter_sweep", sweep)
    run.op("cli_linearize", linearize_cli)
    run.op("max_c_detail_golden",
           certificate(dio.GOLDEN, theta_g, 1.0, 10**6, fib6, exact=False))
    run.op("check_siegel_golden", siegel)
    run.op("max_c_detail_silver",
           certificate(dio.SILVER, theta_s, 0.5, 10**5, _pell_upto(10**5), exact=True))
    run.op("check_sector_lemma", sector)
    run.op("majorant_split_400", split400)


WORKLOADS = {
    "rank0_orbits": (rank0_setup, rank0_round),
    "rank1_grid": (rank1_setup, rank1_round),
    "series_certify": (series_setup, series_round),
}
