"""Command-line surface: reproducible experiments with CSV/JSON outputs.

Subcommands: iterate, invariance, limit, curve, coverage, linearize, sweep,
diophantine, sector.  FLAGS names each flag's INI section and key, COMMANDS
the flags each subcommand reads; a subcommand rejects any other flag.  A
config file (INI key=value sections) supplies defaults; every flag
overrides its config key.  Each output embeds the effective config and the
package version; numbers are written with 17 significant digits so reruns
are byte-identical apart from the generated_at stamp.  linearize and sweep
form the small divisors in double-double when a plain one is below 1e-8
and report it as precision_mode; psi itself runs in complex128.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import contextlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .algebra import jet_from_json
from .diophantine import (
    GOLDEN,
    SILVER,
    QuadraticIrrational,
    _continued_fraction_mod1,
    _theta_value,
    check_sector_lemma,
    check_siegel,
    max_c_detail,
)
from .dynamics import (
    EMPIRICAL_MIN_N,
    Grid2D,
    ORBIT_CSV_HEADER,
    RegionUNM,
    check_equivariance,
    estimate_limit_map,
    from_transformed,
    invariant_curve,
    iterate,
    orbit_csv_rows,
    verify_forward_invariance,
    waxis_coverage,
)
from .linearization import (
    linear_family,
    majorant_split,
    parameter_sweep,
    quadratic_test_family,
    result_to_json,
    solve_psi,
)
from .maps import four_map_composite, map_from_json, rank0_map, rank1_map, rotation_map


def parse_complex(text: str) -> complex:
    """Accept '1+2i', '-0.5i', '3', '1e-3-2e4i'."""
    return complex(text.strip().replace(" ", "").replace("i", "j"))


def parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'z,w', got {text!r}")
    return parse_complex(parts[0]), parse_complex(parts[1])


def parse_theta(spec: str):
    """golden | silver | p/q | float | quad:P,D,Q -> rotation-number object."""
    s = spec.strip().lower()
    if s == "golden":
        return GOLDEN
    if s == "silver":
        return SILVER
    if s.startswith("quad:"):
        p, d, q = (int(x) for x in s[5:].split(","))
        return QuadraticIrrational(p, d, q)
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return float(s)


def build_map(args):
    preset = args.map
    if preset is None:
        raise ValueError("--map is required (rank0|rank1|rotation|four|<json file>)")
    if preset == "rank0":
        return rank0_map(int(args.l or 2))
    if preset == "rank1":
        return rank1_map()
    if preset == "rotation":
        if args.theta is None:
            raise ValueError("rotation preset requires --theta (multiple of 2*pi)")
        th = parse_theta(args.theta)
        frac = th if isinstance(th, Fraction) else None
        return rotation_map(2 * math.pi * _theta_value(th), theta_frac=frac)
    if preset == "four":
        return four_map_composite()
    if os.path.exists(preset):
        with open(preset) as fh:
            return map_from_json(fh.read())
    raise ValueError(f"unknown map preset or missing file: {preset!r}")


# -- config and output plumbing ----------------------------------------------


# dest -> (INI section, INI key, help); the flag is --dest with "_" as "-".
# --config has no key of its own.
FLAGS = {
    "config": (None, None, "INI config file; flags override its keys"),
    "out": ("output", "path", "output path (default stdout)"),
    "map": ("map", "preset", "rank0|rank1|rotation|four or a map JSON file; for "
            "linearize quadratic|linear or a jet JSON file, for sweep quadratic|linear"),
    "l": ("map", "l", "Bl conjugation order for rank0 (default 2)"),
    "theta": ("map", "theta", "golden|silver|p/q|float|quad:P,D,Q"),
    "region": ("region", "nm", "N,M of the region U_{N,M}"),
    "seed": ("iteration", "seed", "original coordinates 'a+bi,c+di'"),
    "seed_transformed": ("iteration", "seed_transformed",
                         "transformed chart seed 'a+bi,c+di'"),
    "n": ("iteration", "n", "number of steps"),
    "record_every": ("iteration", "record_every", "record every k-th step"),
    "tol": ("iteration", "tol", "stopping tolerance"),
    "n_max": ("iteration", "n_max", "iteration cap"),
    "samples": ("sampling", "samples", "number of sampled seeds"),
    "steps": ("sampling", "steps", "steps per sampled seed"),
    "seed_offset": ("sampling", "seed_offset", "low-discrepancy offset"),
    "grid": ("grid", "shape", "NZxNW, e.g. 10x10"),
    "grid_origin": ("grid", "origin", "'zhat0,w0' transformed"),
    "grid_step": ("grid", "step", "grid spacing"),
    "r": ("linearize", "r", "|lambda| (default 1); for sweep and sector a comma list"),
    "order": ("linearize", "order", "truncation degree D"),
    "c": ("diophantine", "c", "certificate constant (default max_c)"),
    "N": ("diophantine", "n_exponent", "certificate exponent (default 1)"),
    "kmax": ("diophantine", "kmax", "largest k checked"),
    "eps": ("curve", "eps", "sphere radius"),
    "segments": ("curve", "segments", "samples per curve step"),
    "target": ("curve", "target", "'z,w' center of the sphere (default origin)"),
    "R": ("coverage", "radius", "target disk radius"),
    "z0": ("coverage", "z0_transformed", "Re(-1/z0) transformed value, e.g. 200"),
    "ring_samples": ("coverage", "ring_samples", "samples on the ring"),
    "targets": ("coverage", "targets", "target points in the disk"),
}


def apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    cp = configparser.ConfigParser()
    if not cp.read(args.config):
        raise ValueError(f"cannot read config file {args.config!r}")
    for attr, (section, key, _) in FLAGS.items():
        # the subcommand's own flags only: one file can serve several subcommands
        if attr in args and getattr(args, attr) is None and cp.has_option(section, key):
            setattr(args, attr, cp.get(section, key))
    return args


def effective_config(args: argparse.Namespace) -> dict:
    # "out" is plumbing, not experiment semantics: identical experiments
    # written to different paths must stay byte-identical
    skip = {"func", "config", "out"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = v if isinstance(v, (int, float, str, bool)) else str(v)
    return out


def _meta(args) -> dict:
    return {
        "artifact": "fatou",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": effective_config(args),
    }


def write_json(args, payload: dict) -> None:
    doc = {"meta": _meta(args), "data": _sanitize(payload)}
    text = json.dumps(doc, indent=1)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _sanitize(obj):
    """Strict-JSON form: complex -> [re, im], arrays -> lists, non-finite -> None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [_sanitize(c.real), _sanitize(c.imag)]
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    return obj


def write_csv(args, header, chunks) -> None:
    """Write the meta lines and the header, then the body's text chunks."""
    meta = _meta(args)
    head = [f"# artifact=fatou version={meta['version']}",
            f"# generated_at={meta['generated_at']}"]
    head += [f"# {k}={v}" for k, v in meta["config"].items()]
    head.append(",".join(header))
    path = getattr(args, "out", None)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("\n".join(head) + "\n")
        fh.writelines(chunks)


def _region(args) -> RegionUNM | None:
    if getattr(args, "region", None) is None:
        return None
    nm = str(args.region).split(",")
    if len(nm) != 2:
        raise ValueError(f"--region needs N,M, got {args.region!r}")
    return RegionUNM(*map(float, nm))


# -- subcommands -----------------------------------------------------------------


def cmd_iterate(args) -> int:
    m = build_map(args)
    region = _region(args)
    if args.seed_transformed is not None:
        seed = parse_point(str(args.seed_transformed))
        transformed = True
    elif args.seed is not None:
        seed = parse_point(str(args.seed))
        transformed = False
    else:
        raise ValueError("iterate needs --seed or --seed-transformed")
    n = int(args.n or 1000)
    rec = iterate(m, seed, n, record_every=int(args.record_every or 1),
                  transformed=transformed, region=region,
                  stop_tol=float(args.tol) if args.tol is not None else 1e-12)
    write_csv(args, ORBIT_CSV_HEADER, orbit_csv_rows(rec))
    return 2 if rec.escaped else 0


def cmd_invariance(args) -> int:
    m = build_map(args)
    region = _region(args)
    if region is None:
        raise ValueError("invariance needs --region N,M")
    rep = verify_forward_invariance(
        m, region, int(args.samples or 1000), int(args.steps or 1000),
        offset=int(args.seed_offset or 0))
    write_json(args, {
        "region": {"N": region.N, "M": region.M},
        "samples": rep.samples,
        "n_steps": rep.n_steps,
        "ok": rep.ok,
        "violations": [
            {"sample": i, "step": s, "zhat": [z.real, z.imag], "w": [w.real, w.imag]}
            for i, s, z, w in rep.violations[:100]
        ],
        "violation_count": len(rep.violations),
        "recorded_sufficient_N": EMPIRICAL_MIN_N,
    })
    return 0


def cmd_limit(args) -> int:
    m = build_map(args)
    nz, _, nw = str(args.grid or "10x10").lower().partition("x")
    if not (nz.isdigit() and nw.isdigit()):
        raise ValueError(f"--grid must be NZxNW, e.g. 10x10, got {args.grid!r}")
    nz, nw = int(nz), int(nw)
    origin = parse_point(str(args.grid_origin)) if args.grid_origin else None
    if origin is None:
        region = _region(args)
        if region is None:
            raise ValueError("limit needs --grid-origin or --region")
        origin = (complex(region.N + 1.0), complex(0.5))
    grid = Grid2D(origin[0], origin[1], nz, nw, float(args.grid_step or 1e-3))
    est = estimate_limit_map(
        m, grid, tol=float(args.tol) if args.tol is not None else 1e-12,
        n_max=int(args.n_max or 10**6))
    payload = {
        "grid": {"zhat0": origin[0], "w0": origin[1], "nz": nz, "nw": nw,
                 "step": grid.step},
        "iterations_used": est.iterations_used,
        "sup_step_delta": est.sup_step_delta,
        "stop_reason": est.stop_reason,
        "numerical_rank": est.numerical_rank,
        "rotation_order": est.rotation_order,
        "limits_z": est.limits_z,
        "limits_w": est.limits_w,
        "singular_values": None if est.s1 is None else {"s1": est.s1, "s2": est.s2},
        "oscillation": est.oscillation,
    }
    if est.numerical_rank is not None and est.stop_reason != "no_limit_full_sequence":
        payload["equivariance_defect"] = check_equivariance(m, est)
    write_json(args, payload)
    return 0


def cmd_curve(args) -> int:
    m = build_map(args)
    if args.seed_transformed is None:
        raise ValueError("curve needs --seed-transformed")
    zh, w0 = parse_point(str(args.seed_transformed))
    p = (complex(from_transformed(np.complex128(zh))), w0)
    target = parse_point(str(args.target)) if args.target else (0.0, 0.0)
    cur = invariant_curve(m, p, target, int(args.segments or 16),
                          int(args.n_max or 1000), float(args.eps or 1e-2))
    write_json(args, {
        "seed_transformed": [zh.real, zh.imag, w0.real, w0.imag],
        "eps": float(args.eps or 1e-2),
        "hit_count": len(cur.sphere_hits),
        "hits": [[z.real, z.imag, w.real, w.imag] for z, w in cur.sphere_hits],
        "hit_params": [[int(n), float(t)] for n, t in cur.hit_params],
        "invariance_defect": cur.invariance_defect,
    })
    return 0


def cmd_coverage(args) -> int:
    m = build_map(args)
    zh = parse_complex(str(args.z0 or "200"))
    z0 = complex(from_transformed(np.complex128(zh)))
    cov = waxis_coverage(m, float(args.R or 1.0), z0,
                         ring_samples=int(args.ring_samples or 256),
                         targets=int(args.targets or 20),
                         tol=float(args.tol) if args.tol is not None else 1e-8,
                         n_max=int(args.n_max or 10**5))
    write_json(args, {
        "R": cov.R,
        "z0": [cov.z0.real, cov.z0.imag],
        "covered": cov.covered,
        "windings": cov.windings,
        "precondition_sup": cov.precondition_sup,
    })
    return 0


_FAMILIES = {"quadratic": quadratic_test_family, "linear": linear_family}


def cmd_linearize(args) -> int:
    if args.theta is None:
        raise ValueError("linearize needs --theta")
    th = parse_theta(args.theta)
    r = float(args.r or 1.0)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    lam = r * cmath.exp(2j * math.pi * _theta_value(th))
    D = int(args.order or 20)
    preset = args.map or "quadratic"
    if preset in _FAMILIES:
        jet = _FAMILIES[preset](lam)
    elif os.path.exists(preset):
        with open(preset) as fh:
            jet = jet_from_json(fh.read())
    else:
        raise ValueError(f"unknown jet preset or missing file: {preset!r}")
    res = solve_psi(jet, lam, D)
    split = None
    if res.M > 0 and not isinstance(th, Fraction):
        n_exp = float(args.N or 1.0)
        c = (float(args.c) if args.c is not None
             else _default_c(th, max_c_detail(th, n_exp, max(D, 64))))
        split = majorant_split(res.M, th, c, n_exp, D)
    doc = json.loads(result_to_json(res, split))
    write_json(args, doc)
    return 0


def cmd_sweep(args) -> int:
    if args.theta is None or args.r is None:
        raise ValueError("sweep needs --theta and --r r1,r2,...")
    th = parse_theta(args.theta)
    r_values = [float(x) for x in str(args.r).split(",")]
    D = int(args.order or 20)
    family = _FAMILIES.get(args.map or "quadratic")
    if family is None:
        # a jet file fixes lambda, so it gives no family to sweep
        raise ValueError(f"sweep needs --map quadratic or linear, got {args.map!r}")
    sw = parameter_sweep(family, th, r_values, D)
    write_json(args, {
        "r_values": sw.r_values,
        "smoothness_ok": sw.smoothness_ok,
        "smoothness_ratios": {str(k): v for k, v in sw.smoothness_ratios.items()},
        "failures": sw.failures,
        "residuals": {str(r): res.residual for r, res in sw.results.items()},
        "psi_norm_rates": {
            str(r): float(np.max(res.psi_norms()[2:])) for r, res in sw.results.items()
        },
    })
    return 0


def _default_c(th, detail) -> float:
    """The c of a max_c_detail(th, ...) result; it is 0 when theta is
    rational in binary64, and then a ValueError names the k at which
    e^(2 pi i k theta) = 1."""
    c_open, _, argmin, _ = detail
    if c_open == 0:
        raise ValueError(f"|e^(2 pi i k theta) - 1| = 0 at k = {argmin}, so no c > 0 "
                         f"certifies theta = {th!r}; give a rational theta in (0, 1) "
                         "as p/q")
    return c_open


def cmd_diophantine(args) -> int:
    if args.theta is None:
        raise ValueError("diophantine needs --theta")
    th = parse_theta(args.theta)
    if isinstance(th, Fraction):
        cf = _continued_fraction_mod1(th, 64)
        write_json(args, {
            "theta": float(th),
            "rational": cf.rational,
            "partial_quotients": cf.partial_quotients,
        })
        return 0
    n_exp = float(args.N or 1.0)
    kmax = int(args.kmax or 10**5)
    detail = max_c_detail(th, n_exp, kmax)
    c_open, _, argmin, running = detail
    c = float(args.c) if args.c is not None else _default_c(th, detail)
    cert = check_siegel(th, c, n_exp, kmax)
    cf = _continued_fraction_mod1(th, 40)
    write_json(args, {
        "theta": _theta_value(th),
        "c": c,
        "N": n_exp,
        "k_max": kmax,
        "ok": cert.ok,
        "violations": cert.violations[:50],
        "max_c": c_open,
        "minimizing_k": argmin,
        "running_minima_k": [k for k, _ in running],
        "partial_quotients": cf.partial_quotients[:40],
        "rational_flag": cf.rational,
        "convergent_denominators": [q for _, q in cf.convergents[:20]],
    })
    return 0


def cmd_sector(args) -> int:
    if args.theta is None or args.r is None:
        raise ValueError("sector needs --theta and --r r1,r2,...")
    th = parse_theta(args.theta)
    r_values = [float(x) for x in str(args.r).split(",")]
    rep = check_sector_lemma(th, r_values, int(args.kmax or 1000),
                             N=float(args.N or 1.0))
    write_json(args, {
        "theta": rep.theta,
        "c_prime": rep.c_prime,
        "ok": rep.ok,
        "per_r": {
            str(r): {
                "sector_violations": res["sector_violations"],
                "complement_violations": res["complement_violations"],
                "final_violations": res["final_violations"],
                "chained_violations": res["chained_violations"],
                "drift_count": res["drift"],
                "drift_first": res["first"]["drift"],
            }
            for r, res in rep.results.items()
        },
    })
    return 0


# -- parser -----------------------------------------------------------------------


_MAP = ("map", "l", "theta")

# name -> (help, function, the flags it reads besides --config and --out)
COMMANDS = {
    "iterate": ("orbit CSV for one seed", cmd_iterate,
                _MAP + ("seed", "seed_transformed", "n", "record_every", "region", "tol")),
    "invariance": ("forward-invariance sampling report", cmd_invariance,
                   _MAP + ("region", "samples", "steps", "seed_offset")),
    "limit": ("limit-map estimate with rank verdict", cmd_limit,
              _MAP + ("grid", "grid_origin", "grid_step", "region", "tol", "n_max")),
    "curve": ("invariant curve and sphere crossings", cmd_curve,
              _MAP + ("seed_transformed", "target", "segments", "eps", "n_max")),
    "coverage": ("argument-principle w-axis coverage", cmd_coverage,
                 _MAP + ("R", "z0", "ring_samples", "targets", "tol", "n_max")),
    "linearize": ("solve the conjugation recursion", cmd_linearize,
                  ("map", "theta", "r", "order", "c", "N")),
    "sweep": ("parameter sweep over r with FD smoothness", cmd_sweep,
              ("map", "theta", "r", "order")),
    "diophantine": ("small-divisor certificate", cmd_diophantine,
                    ("theta", "c", "N", "kmax")),
    "sector": ("sector bound sweep off the unit circle", cmd_sector,
               ("theta", "r", "N", "kmax")),
}


@lru_cache(maxsize=None)  # a build leaves cycles for the gc: build once per command
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The fatou parser with every subcommand, and flags on command's only:
    a parse runs one subcommand's parser, so no other flag is ever read."""
    ap = argparse.ArgumentParser(
        prog="fatou",
        description="numerical experiments on invariant Fatou components of "
                    "C^2 automorphisms",
    )
    sub = ap.add_subparsers(dest="command")
    for name, (help_text, func, flags) in COMMANDS.items():
        # no abbreviations: --seed must not stand for --seed-transformed
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == command:
            for dest in ("config", "out") + flags:
                p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                               help=FLAGS[dest][2])
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    """Run the subcommand that argv (default sys.argv[1:]) names.

    The top-level parser takes no option with a value, so the subcommand
    is argv's first entry that names one; only its parser gets flags.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _parser(next((a for a in argv if a in COMMANDS), None))
    args = ap.parse_args(argv)
    if not getattr(args, "command", None):
        ap.print_usage(sys.stderr)
        return 1
    try:
        args = apply_config(args)
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(f"run 'fatou {args.command} --help' for usage\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
