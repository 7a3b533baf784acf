import cmath
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cli_oracle
import fatou
from fatou import diophantine
from fatou.cli import COMMANDS, FLAGS, main, parse_complex, parse_theta
from fatou.diophantine import GOLDEN, SILVER, QuadraticIrrational
from fatou.linearization import quadratic_test_family, solve_psi
from fractions import Fraction


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def strip_timestamp(text: str) -> str:
    text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', text)
    return re.sub(r"generated_at=[^\n]*", "generated_at=X", text)


# -- parsing ------------------------------------------------------------


def test_parse_complex():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("3") == 3.0
    assert parse_complex("100+0i") == 100.0


def test_parse_theta():
    assert parse_theta("golden") is GOLDEN
    assert parse_theta("silver") is SILVER
    assert parse_theta("1/3") == Fraction(1, 3)
    assert parse_theta("0.25") == 0.25
    assert parse_theta("quad:-1,5,2") == QuadraticIrrational(-1, 5, 2)


# -- iterate ------------------------------------------------------------


def test_iterate_constant_orbit_csv(tmp_path):
    code, text = run(tmp_path, "iterate", "--map", "rank0", "--seed", "0,5",
                     "--n", "50")
    assert code == 0
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header.split(",")[:2] == ["n", "re_z"]
    for line in data:
        cells = line.split(",")
        assert cells[1] == "0" and cells[3] == "5"


def test_iterate_transformed_seed_row_count(tmp_path):
    code, text = run(tmp_path, "iterate", "--map", "rank0", "--l", "2",
                     "--seed-transformed", "100+0i,1+0i", "--n", "2000",
                     "--region", "6,10")
    assert code == 0
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 2002  # header + steps 0..2000
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert abs(float(first[5]) - 100.0) < 1e-12
    # |w| decays along the orbit and the region flag stays 1
    assert float(last[3]) ** 2 + float(last[4]) ** 2 < 1.0
    assert last[7] == "1"


def test_iterate_missing_map_exits_1(tmp_path):
    code, _ = run(tmp_path, "iterate", "--seed", "0,1")
    assert code == 1


def test_iterate_escape_exit_code(tmp_path):
    code, _ = run(tmp_path, "iterate", "--map", "rank0", "--seed", "0.9,600",
                  "--n", "50")
    assert code == 2


def test_iterate_peak_memory(tmp_path):
    # 10^5 steps: the orbit's columns and one text chunk at a time, where a
    # Python object per row and the whole CSV text peaked at 102 MiB; a
    # parent process reads the run's peak alone through RUSAGE_CHILDREN
    probe = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    argv = [sys.executable, "-m", "fatou", "iterate", "--map", "rank0", "--l", "2",
            "--seed-transformed", "100.3+0.2i,0.5+0.1i", "--n", "100000",
            "--region", "6,10", "--out", str(tmp_path / "orbit.csv")]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fatou.__file__)))
    out = subprocess.run([sys.executable, "-c", probe] + argv, env=env, check=True,
                         capture_output=True, text=True)
    assert (tmp_path / "orbit.csv").read_text().splitlines()[-1].startswith("100000,")
    peak_mib = int(out.stdout) / 1024
    assert peak_mib <= 60, f"peak RSS {peak_mib:.1f} MiB"


# -- json commands --------------------------------------------------------


def test_linearize_linear_map(tmp_path):
    code, text = run(tmp_path, "linearize", "--theta", "golden", "--map",
                     "linear", "--order", "10")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["residual"] == 0.0
    assert all(all(x == 0 for x in row) for row in d["psi_coeffs"][2:])


def test_linearize_bad_theta(tmp_path):
    code, _ = run(tmp_path, "linearize", "--theta", "not-a-number")
    assert code == 1


def test_linearize_quadratic_with_split(tmp_path):
    code, text = run(tmp_path, "linearize", "--theta", "golden", "--order", "12")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["precision_mode"] == "double"
    assert d["majorant_ok"] is True
    assert len(d["eta"]) == 13 and len(d["delta"]) == 13
    assert d["residual"] < 1e-8


def test_linearize_majorant_overflow_exits_1(tmp_path, capsys):
    # sigma_242 overflows at golden with M = 1: an error, not NaN in the JSON
    code, text = run(tmp_path, "linearize", "--theta", "golden", "--order", "250")
    assert code == 1 and text == ""
    assert "n = 242" in capsys.readouterr().err


def test_linearize_double_double_default_order(tmp_path):
    # golden's divisors stay far above 1e-8 at the default order
    code, text = run(tmp_path, "linearize", "--theta", "golden")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["precision_mode"] == "double" and d["D"] == 20


def test_linearize_escalates_near_resonance(tmp_path):
    # theta = 1/3 + 1e-10: |lambda^3 - 1| is about 6e-10, below the 1e-8 switch
    theta = "0.3333333334333333"
    code, text = run(tmp_path, "linearize", "--theta", theta, "--order", "12")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["precision_mode"] == "double-double"
    lam = 1.0 * cmath.exp(2j * math.pi * float(theta))
    want = solve_psi(quadratic_test_family(lam), lam, 12, precision="dd").psi.coeffs
    rows = np.array(d["psi_coeffs"], dtype=float)
    got = np.stack([rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]], 1)
    assert np.array_equal(got, want)


def test_precision_env_is_ignored(tmp_path, monkeypatch):
    argv = ["linearize", "--theta", "golden", "--order", "6"]
    code, plain = run(tmp_path, *argv)
    assert code == 0
    for value in ("double-double", "bogus"):
        monkeypatch.setenv("FATOU_PRECISION", value)
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert strip_timestamp(text) == strip_timestamp(plain)


def test_linearize_largest_finite_order_warns_nothing(tmp_path, capsys):
    # 241 is the last order before sigma overflows; eta_n delta_n is not
    # finite there, which must not reach numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "linearize", "--theta", "golden", "--order", "241")
    assert code == 0 and capsys.readouterr().err == ""
    d = json.loads(text)["data"]
    assert d["D"] == 241 and d["majorant_ok"] is True


@pytest.mark.parametrize("theta", ["6004799504962101/18014398509481984",
                                   "0.3333333334333333"])
def test_linearize_delta_overflow_exits_1(tmp_path, capsys, theta):
    # theta = 1/3 + 1e-10 given exactly and as a float, jet (lambda z +
    # 1e-6 w^2, w + 1e-6 z^2): sigma is finite to D = 60, delta is not from
    # n = 56, so the command fails with the error lines only, not rho = null
    from fatou.algebra import jet_to_json, tri_index

    lam = cmath.exp(2j * math.pi * (1 / 3 + 1e-10))
    P, Q = quadratic_test_family(lam)
    P.coeffs[tri_index(0, 2)] = Q.coeffs[tri_index(2, 0)] = 1e-6
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(jet_to_json((P, Q)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "linearize", "--theta", theta, "--order", "60",
                         "--map", str(jet_path))
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: majorant delta_n is not finite at degree n = 56; lower the order "
        "below 56\nrun 'fatou linearize --help' for usage\n")


def test_linearize_jet_file(tmp_path):
    import cmath
    import math

    from fatou.algebra import jet_to_json
    from fatou.linearization import quadratic_test_family

    lam = cmath.exp(2j * math.pi * 0.6180339887498949)
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(jet_to_json(quadratic_test_family(lam)))
    code, text = run(tmp_path, "linearize", "--theta", "golden", "--order", "10",
                     "--map", str(jet_path))
    assert code == 0
    d = json.loads(text)["data"]
    assert d["majorant_ok"] is True and d["residual"] < 1e-8


@pytest.mark.parametrize("preset", ["rank0", "nonsense"])
def test_sweep_rejects_map_without_family(tmp_path, preset):
    code, text = run(tmp_path, "sweep", "--theta", "golden", "--r", "0.99,1.0,1.01",
                     "--order", "6", "--map", preset)
    assert code == 1 and text == ""


@pytest.mark.parametrize("command, r, got", [
    ("linearize", "-1", "-1.0"), ("linearize", "0", "0.0"), ("linearize", "nan", "nan"),
    ("linearize", "inf", "inf"), ("sweep", "-1,1", "-1.0"), ("sweep", "0,1", "0.0"),
    ("sweep", "1,inf", "inf"),
])
def test_linearize_and_sweep_reject_r_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                      command, r, got):
    # at r < 0, lambda = r e^{2 pi i theta} has rotation number theta + 1/2,
    # which the certificate of theta does not cover
    code, text = run(tmp_path, command, "--theta", "golden", f"--r={r}", "--order", "10")
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (f"error: r must be finite and > 0, got {got}\n"
                                       f"run 'fatou {command} --help' for usage\n")


def test_sweep_one_r_writes_null_smoothness(tmp_path):
    code, text = run(tmp_path, "sweep", "--theta", "golden", "--r", "1.0", "--order", "10")
    d = json.loads(text)["data"]
    assert code == 0 and d["smoothness_ok"] is None and d["smoothness_ratios"] == {}


def test_sweep_past_the_sigma_overflow_of_a_step_halving_r(tmp_path):
    # a step-halving solve at r = 1.0 used to raise sigma's overflow at n = 242
    code, text = run(tmp_path, "sweep", "--theta", "golden", "--r", "0.99,0.998,1.006",
                     "--order", "242")
    d = json.loads(text)["data"]
    assert code == 0 and d["smoothness_ok"] is not None and d["failures"] == {}


def test_diophantine_golden(tmp_path):
    code, text = run(tmp_path, "diophantine", "--theta", "golden", "--kmax", "1000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True
    assert d["partial_quotients"][:5] == [1, 1, 1, 1, 1]
    assert d["convergent_denominators"][:5] == [1, 2, 3, 5, 8]


@pytest.mark.parametrize("theta, k", [("0.5", 2), ("0.25", 4), ("1.5", 2), ("0", 1)])
def test_diophantine_float_rational_names_the_vanishing_k(tmp_path, capsys, theta, k):
    # such a float is rational in binary64, so max_c is 0 and no c > 0
    # certifies it; the error says where and how to give it instead
    code, text = run(tmp_path, "diophantine", "--theta", theta)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert f"|e^(2 pi i k theta) - 1| = 0 at k = {k}," in err and "p/q" in err


def test_diophantine_float_rational_with_c_lists_violations(tmp_path):
    code, text = run(tmp_path, "diophantine", "--theta", "0.5", "--c", "0.1")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is False and d["violations"][0] == [2, 0.0, 0.05]


def test_diophantine_rational_flag(tmp_path):
    code, text = run(tmp_path, "diophantine", "--theta", "1/3")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["rational"] is True and d["partial_quotients"] == [3]


def test_linearize_float_rational_names_the_vanishing_k(tmp_path, capsys):
    # the split's default c is max_c, 0 at theta = 1/4 in binary64: the
    # error is diophantine's, naming k = 4 instead of the certificate's inputs
    code, text = run(tmp_path, "linearize", "--theta", "0.25", "--order", "3")
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: |e^(2 pi i k theta) - 1| = 0 at k = 4, so no c > 0 certifies theta = "
        "0.25; give a rational theta in (0, 1) as p/q\n"
        "run 'fatou linearize --help' for usage\n")


@pytest.mark.parametrize("above, below, value", [
    ("1.6180339887498949", repr(1.6180339887498949 - 1), 1.6180339887498949),
    ("3.25", "0.25", 3.25),
    ("quad:1,5,2", "golden", (1 + math.sqrt(5)) / 2),
])
def test_diophantine_theta_above_1_has_the_fields_of_theta_mod_1(tmp_path, above, below,
                                                                value):
    # the certificates take any theta; the continued-fraction fields are
    # those of theta mod 1 (x - 1 is exact in binary64), theta is as given
    code, text = run(tmp_path, "diophantine", "--theta", above, "--kmax", "1000",
                     "--c", "0.5")
    assert code == 0
    got = json.loads(text)["data"]
    code, text = run(tmp_path, "diophantine", "--theta", below, "--kmax", "1000",
                     "--c", "0.5")
    want = json.loads(text)["data"]
    assert got["theta"] == value and want["theta"] == value % 1
    for key in ("partial_quotients", "rational_flag", "convergent_denominators",
                "max_c", "minimizing_k"):
        assert got[key] == want[key]


@pytest.mark.parametrize("theta, quotients", [("3/2", [2]), ("7/3", [3]), ("2/1", []),
                                             # exact: the 10^12 cap is binary64's
                                             ("1/10000000000007", [10000000000007])])
def test_diophantine_fraction_above_1(tmp_path, theta, quotients):
    code, text = run(tmp_path, "diophantine", "--theta", theta)
    assert code == 0
    d = json.loads(text)["data"]
    assert d == {"theta": float(Fraction(theta)), "rational": True,
                 "partial_quotients": quotients}


def test_diophantine_quad_above_1_to_1e12_is_golden(tmp_path, monkeypatch):
    # theta = golden + 1 scans the convergent denominators of golden: no
    # loop over every k runs, and every field but theta is golden's
    monkeypatch.setattr(diophantine, "_dist_blocks", None)
    data = {}
    for theta in ("quad:1,5,2", "golden"):
        code, text = run(tmp_path, "diophantine", "--theta", theta, "--kmax", str(10**12))
        assert code == 0
        data[theta] = json.loads(text)["data"]
    assert data["quad:1,5,2"].pop("theta") == data["golden"].pop("theta") + 1
    assert data["quad:1,5,2"] == data["golden"]


@pytest.mark.parametrize("theta", ["quad:-2,2,-1", "quad:2,2,-1"])
def test_diophantine_quad_with_negative_q(tmp_path, theta):
    # 2 - sqrt 2 and -2 - sqrt 2 are [0; 1, 1, 2, 2, ...] mod 1
    code, text = run(tmp_path, "diophantine", "--theta", theta, "--kmax", "1000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["partial_quotients"][:5] == [1, 1, 2, 2, 2]
    assert d["convergent_denominators"][:5] == [1, 2, 5, 12, 29]


@pytest.mark.parametrize("theta", ["1e-13", "1.0000000000001", "-2.9999999999999"])
def test_diophantine_theta_mod_1_below_the_quotient_cap(tmp_path, theta):
    # theta mod 1 < 1e-12 has its first quotient past the cap: the
    # certificate is written with no quotient, flagged rational, as for an
    # integer theta
    code, text = run(tmp_path, "diophantine", "--theta", theta)
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] and d["minimizing_k"] == 1 and d["max_c"] > 0
    assert (d["partial_quotients"], d["rational_flag"], d["convergent_denominators"]) == (
        [], True, [])


def test_diophantine_negative_theta_has_the_fields_of_theta_mod_1(tmp_path):
    # -golden mod 1 = 2 - golden ratio = [0; 2, 1, 1, ...]
    code, text = run(tmp_path, "diophantine", "--theta", "quad:1,5,-2", "--kmax", "1000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["partial_quotients"][:4] == [2, 1, 1, 1]
    assert d["convergent_denominators"][:4] == [2, 3, 5, 8]


def test_sector_sweep(tmp_path):
    code, text = run(tmp_path, "sector", "--theta", "golden", "--r",
                     "0.999,1.001", "--kmax", "300")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True


def test_sector_past_the_overflow_of_r_to_the_k(tmp_path):
    # r^k overflows from k = 8237 at r = 1.09: every later k is drift
    code, text = run(tmp_path, "sector", "--theta", "golden", "--r", "0.91,1.09",
                     "--kmax", "10000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True
    assert d["per_r"]["1.09"]["drift_count"] == 10000 - 8


LIMIT = ("limit", "--map", "rank1", "--grid-origin", "50,0.5", "--n-max", "10")
CURVE = ("curve", "--map", "rank0", "--seed-transformed", "60,0")
INVARIANCE = ("invariance", "--map", "rank0", "--samples", "3", "--steps", "3")
NO_K = "k_max must be >= 1"
BAD_GRID = "needs nz, nw >= 1 and a finite step > 0"


@pytest.mark.parametrize("cmd", [
    (("sector", "--theta", "golden", "--r", "1.0", "--kmax", "-3"), NO_K),
    (("sector", "--theta", "golden", "--r", "1.0", "--kmax", "0"), NO_K),
    (("diophantine", "--theta", "golden", "--kmax", "0"), NO_K),
    (LIMIT + ("--grid", "10"), "--grid must be NZxNW"),
    (LIMIT + ("--grid", "0x3"), BAD_GRID),
    (LIMIT + ("--grid-step", "0"), BAD_GRID),
    (("sweep", "--theta", "golden", "--r", "1.0,1.0", "--order", "10"), "strictly increasing"),
    (("sweep", "--theta", "golden", "--r", "1.0,0.99", "--order", "10"), "strictly increasing"),
    (("coverage", "--map", "rank1", "--targets", "0"), "targets must be >= 1"),
    (("coverage", "--map", "rank1", "--ring-samples", "0"), "ring_samples must be >= 3"),
    (("sector", "--theta", "golden", "--r", "1.0", "--N", "nan", "--kmax", "100"), "NaN"),
    (("diophantine", "--theta", "golden", "--N", "nan"), "NaN"),
    (("diophantine", "--theta", "golden", "--c", "nan", "--kmax", "100"), "need c > 0"),
    (CURVE + ("--n-max", "-1"), "n_max must be >= 0"),
    (CURVE + ("--eps", "nan"), "eps must be > 0"),
    (INVARIANCE + ("--region", "nan,10"), "need finite N > 0"),
    (INVARIANCE + ("--region", "6"), "--region needs N,M"),
])
def test_empty_k_range_exits_1(tmp_path, capsys, cmd):
    # and an empty or malformed grid: one error line, no traceback or warning
    argv, message = cmd
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, *argv)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 2
    assert message in err


ROW = "[0, 0, 0, 0]"


@pytest.mark.parametrize("cmd, text, message", [
    ("limit", '{"pipe": []}', "KeyError 'pipeline'"),
    ("limit", '{"pipeline": [{}]}', "KeyError 'kind'"),
    ("limit", "[1]", 'a map file is {"pipeline": [generator, ...]}'),
    ("limit", '{"pipeline": [], "fastpath": 3}', "AttributeError"),
    ("limit", '{"pipeline": [{"kind": "Theta", "theta": 1.0}], "fastpath": {"theta_frac": 3}}',
     "TypeError"),
    ("linearize", '{"order": 1, "coeffs": [%s]}' % ",".join([ROW] * 4), "needs 3 rows"),
    ("linearize", '{"order": 1, "coeffs": [%s]}' % ",".join([ROW] * 2), "needs 3 rows"),
    ("linearize", '{"order": 1}', "order and coeffs"),
])
def test_malformed_map_file_exits_1(tmp_path, capsys, cmd, text, message):
    path = tmp_path / "map.json"
    path.write_text(text)
    argv = {"limit": LIMIT[:1] + ("--map", str(path)) + LIMIT[3:],
            "linearize": ("linearize", "--theta", "golden", "--order", "10", "--map", str(path))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, *argv[cmd])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 2
    assert message in err


def test_sector_root_of_unity_is_not_ok(tmp_path):
    code, text = run(tmp_path, "sector", "--theta", "3/7", "--r", "1.0", "--kmax", "100")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["c_prime"] == 0.0 and d["ok"] is False


def test_invariance_command(tmp_path):
    code, text = run(tmp_path, "invariance", "--map", "rank0", "--region",
                     "6,10", "--samples", "100", "--steps", "100")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True and d["violation_count"] == 0


def test_limit_command_small(tmp_path):
    code, text = run(tmp_path, "limit", "--map", "rank1", "--grid", "3x3",
                     "--grid-origin", "50,0.5", "--tol", "1e-8",
                     "--n-max", "20000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["numerical_rank"] == 1
    assert d["equivariance_defect"] < 1e-5


def test_limit_equivariance_defect_is_read_off_the_limits(tmp_path):
    # the defect ||F(h) - h|| on the stored limits is one more step of the
    # orbit: about sup_step_delta, and not 0 while the orbit still moves
    code, text = run(tmp_path, "limit", "--map", "rank1", "--grid", "3x3",
                     "--grid-origin", "50,0.5", "--tol", "1e-8")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["stop_reason"] == "converged"
    assert 0 < d["equivariance_defect"] <= 2 * d["sup_step_delta"]


def test_limit_region_fallback_origin_is_complex(tmp_path):
    # without --grid-origin the grid starts at (N + 1, 0.5), written as
    # [re, im] pairs like a given origin, with the same limits
    argv = ["limit", "--map", "rank1", "--grid", "2x2", "--tol", "1e-6",
            "--n-max", "2000"]
    code, text = run(tmp_path, *argv, "--region", "6,10")
    assert code == 0
    got = json.loads(text)["data"]
    assert got["grid"]["zhat0"] == [7.0, 0.0] and got["grid"]["w0"] == [0.5, 0.0]
    code, text = run(tmp_path, *argv, "--grid-origin", "7,0.5")
    assert code == 0 and json.loads(text)["data"] == got


def test_limit_rotation_rational_theta(tmp_path):
    code, text = run(tmp_path, "limit", "--map", "rotation", "--theta", "1/3",
                     "--grid", "3x3", "--grid-origin", "50,0.5", "--tol", "1e-8",
                     "--n-max", "30000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["stop_reason"] == "converged" and d["rotation_order"] == 3
    assert d["numerical_rank"] == 1 and 0 < d["equivariance_defect"] < 1e-5


def test_limit_rotation_golden_has_no_limit(tmp_path):
    code, text = run(tmp_path, "limit", "--map", "rotation", "--theta", "golden",
                     "--grid", "2x2", "--grid-origin", "50,0.5", "--n-max", "2000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["stop_reason"] == "no_limit_full_sequence"
    assert d["oscillation"]["window"] == 2000 and "equivariance_defect" not in d


@pytest.mark.parametrize("argv", [("iterate", "--seed", "0.1,0.2"),
                                  ("limit", "--grid-origin", "50,0.5")])
def test_rotation_without_theta_exits_1(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv, "--map", "rotation")
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith(
        "error: rotation preset requires --theta (multiple of 2*pi)\n")


def test_iterate_four_rows_are_the_composite(tmp_path):
    from fatou.maps import four_map_composite

    code, text = run(tmp_path, "iterate", "--map", "four", "--seed",
                     "0.1+0.05i,0.2-0.1i", "--n", "20")
    assert code == 0
    rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
    assert [int(r[0]) for r in rows] == list(range(21))
    m, z, w = four_map_composite(), 0.1 + 0.05j, 0.2 - 0.1j
    for row in rows:
        assert [float(x) for x in row[1:5]] == [z.real, z.imag, w.real, w.imag]
        z, w = m.eval(z, w)


def test_curve_command(tmp_path):
    code, text = run(tmp_path, "curve", "--map", "rank0", "--seed-transformed",
                     "60,0", "--n-max", "300", "--eps", "1e-2")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["hit_count"] >= 1
    assert d["invariance_defect"] < 1e-10


def test_coverage_command(tmp_path):
    code, text = run(tmp_path, "coverage", "--map", "rank1", "--R", "1",
                     "--z0", "200", "--ring-samples", "64", "--targets", "8",
                     "--tol", "1e-7", "--n-max", "20000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["covered"] is True and set(d["windings"]) == {1}


# -- config file and determinism ------------------------------------------------


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[map]\npreset = rank0\nl = 2\n"
        "[iteration]\nseed_transformed = 30+0i,1+0i\nn = 30\n"
    )
    code, text = run(tmp_path, "iterate", "--config", str(cfg))
    assert code == 0
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 32  # header + steps 0..30
    # flag overrides the config key
    code, text2 = run(tmp_path, "iterate", "--config", str(cfg), "--n", "5")
    rows2 = [l for l in text2.splitlines() if l and not l.startswith("#")]
    assert len(rows2) == 7  # header + steps 0..5


def test_config_fills_only_the_commands_flags(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[map]\ntheta = golden\n[linearize]\norder = 6\n[iteration]\ntol = 5\n")
    code, text = run(tmp_path, "diophantine", "--config", str(cfg), "--kmax", "100")
    assert code == 0
    assert json.loads(text)["meta"]["config"] == {
        "command": "diophantine", "kmax": "100", "theta": "golden"}


def test_byte_determinism_modulo_timestamp(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["diophantine", "--theta", "golden", "--kmax", "500"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())
    assert a.read_text() != "" and "generated_at" in a.read_text()


def test_csv_determinism_modulo_timestamp(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["iterate", "--map", "rank0", "--seed-transformed", "30+0i,1+0i",
            "--n", "100", "--region", "6,10"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())


# -- flags ------------------------------------------------------------------


def test_each_command_rejects_flags_it_does_not_read(capsys):
    for name, (_, _, flags) in COMMANDS.items():
        for dest in FLAGS.keys() - {"config", "out", *flags}:
            with pytest.raises(SystemExit) as exc:
                main([name, "--" + dest.replace("_", "-"), "1"])
            assert exc.value.code == 2, (name, dest)
    for flag in ("--tol", "--precision", "--map", "--seed-offset"):
        with pytest.raises(SystemExit) as exc:
            main(["sector", "--theta", "golden", "--r", "0.999,1.001", flag, "5"])
        assert exc.value.code == 2, flag
    capsys.readouterr()  # drop argparse's usage messages from the report


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["bogus"], ["--bogus"], ["bogus", "sweep"],
    *([name, "--help"] for name in COMMANDS),
    *([name, "--bogus", "1"] for name in COMMANDS),
    *(["--bogus", name] for name in COMMANDS),
    ["linearize", "--theta"], ["sweep", "--r", "1", "linearize"],
])
def test_help_and_errors_equal_the_full_parsers(capsys, argv):
    # main adds flags to the subcommand argv names only; what argparse
    # prints and its exit code are those of the parser with every flag
    want = _exit(capsys, cli_oracle.build_parser().parse_args, argv)
    assert _exit(capsys, main, argv) == want
    assert want[1] or want[2]


def test_no_subcommand_prints_the_full_parsers_usage(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == cli_oracle.build_parser().format_usage()
