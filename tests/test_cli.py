import json
import re

from fatou.cli import main, parse_complex, parse_theta
from fatou.diophantine import GOLDEN, SILVER, QuadraticIrrational
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


def test_diophantine_golden(tmp_path):
    code, text = run(tmp_path, "diophantine", "--theta", "golden", "--kmax", "1000")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True
    assert d["partial_quotients"][:5] == [1, 1, 1, 1, 1]
    assert d["convergent_denominators"][:5] == [1, 2, 3, 5, 8]


def test_diophantine_rational_flag(tmp_path):
    code, text = run(tmp_path, "diophantine", "--theta", "1/3")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["rational"] is True and d["partial_quotients"] == [3]


def test_sector_sweep(tmp_path):
    code, text = run(tmp_path, "sector", "--theta", "golden", "--r",
                     "0.999,1.001", "--kmax", "300")
    assert code == 0
    d = json.loads(text)["data"]
    assert d["ok"] is True


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


def test_precision_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FATOU_PRECISION", "double-double")
    code, text = run(tmp_path, "linearize", "--theta", "golden", "--order", "6")
    assert code == 0
    assert json.loads(text)["data"]["precision_mode"] == "double-double"
    monkeypatch.setenv("FATOU_PRECISION", "bogus")
    code, _ = run(tmp_path, "linearize", "--theta", "golden", "--order", "6")
    assert code == 1
