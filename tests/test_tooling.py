"""The benchmark's tracer finds every function it wraps on the installed fatou.

perfbench/tracing.py patches fatou functions by name for `run.py --trace 1`;
a rename or deletion under src/ would break that run, so it fails here.
Every name in an ``__all__`` resolves too, and the README's API table is the
public surface: a public top-level def or class is in its module's
``__all__``, an ``__all__`` name is in the table or read by fatou.cli or
perfbench/, and a name in the table resolves.  Importing the package starts
no process machinery, one function of fatou.dynamics decides on the split
over two processes and holds the error state and the w-axis test of a run,
psi has one arithmetic path, one function of fatou.linearization forms
delta's growth constants, fatou.diophantine alone expands theta mod 1, and
the README's flag table is the parser's.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_modules_import(tracing):
    for name in tracing.MODULES:
        importlib.import_module(f"fatou.{name}")


def test_traced_targets_resolve(tracing):
    missing = []
    for mod, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"fatou.{mod}")
        if attr.startswith("AutoMap."):
            found = attr.split(".", 1)[1] in vars(module.AutoMap)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"fatou.{mod}.{attr}")
    assert not missing, f"traced but not found: {missing}"


def _modules():  # the package and each of its modules
    import fatou

    return [fatou] + [importlib.import_module(f"fatou.{info.name}")
                      for info in pkgutil.iter_modules(fatou.__path__)
                      if not info.name.startswith("_")]


def test_exports_resolve():
    # a deletion under src/ must not leave a name in an __all__ behind
    modules = _modules()
    assert len(modules) == 8
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"exported but not found: {missing}"


def test_the_readme_api_table_is_the_public_surface():
    # one row per module: | `fatou.x` | `name`, `name`, ... | purpose |
    root = Path(__file__).resolve().parents[1]
    rows = [line.split("|") for line in (root / "README.md").read_text().splitlines()
            if line.startswith("| `fatou")]
    table = {row[1].strip(" `"): re.findall(r"`(\w+)`", row[2]) for row in rows}
    modules = {module.__name__: module for module in _modules()}
    assert sorted(table) == sorted(modules)
    read = set()  # identifiers and strings that fatou.cli and perfbench/ read
    for path in [root / "src" / "fatou" / "cli.py", *sorted((root / "perfbench").glob("*.py"))]:
        read |= {getattr(n, f) for n in ast.walk(ast.parse(path.read_text()))
                 for f in ("id", "attr", "name", "value") if isinstance(getattr(n, f, None), str)}
    known = read.union(*table.values())
    unlisted, untabled = [], []
    for name, module in modules.items():
        if not hasattr(module, "__all__"):  # the command alone: its surface is the flag table
            assert name == "fatou.cli"
            continue
        unlisted += [f"{name}.{top.name}" for top in ast.parse(Path(module.__file__).read_text()).body
                     if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                     and not top.name.startswith("_") and top.name not in module.__all__]
        untabled += [f"{name}.{export}" for export in module.__all__ if export not in known]
    unresolved = [f"{mod}.{name}" for mod, names in table.items() for name in names
                  if not hasattr(modules[mod], name)]
    assert unlisted == [], f"public but not in __all__: {unlisted}"
    assert untabled == [], f"in __all__ but not in the README's API table: {untabled}"
    assert unresolved == [], f"in the README's API table but not found: {unresolved}"


def test_tracer_installs_and_restores(tracing):
    for name in tracing.MODULES:
        importlib.import_module(f"fatou.{name}")
    dyn = sys.modules["fatou.dynamics"]
    orig = dyn.estimate_limit_map
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert dyn.estimate_limit_map is not orig
    finally:
        tracer.uninstall()
    assert dyn.estimate_limit_map is orig


def test_limit_map_makes_one_kernel_call_per_step(tracing):
    # the engine steps through AutoMap.eval_batch, so the traced per-layer
    # kernel figures count every step: 100 steps, 100 leaf calls
    for name in tracing.MODULES:
        importlib.import_module(f"fatou.{name}")
    dyn = sys.modules["fatou.dynamics"]
    h1 = sys.modules["fatou.maps"].rank1_map()
    grid = dyn.Grid2D(50.0 + 0j, 0.5 + 0j, 3, 3, 1e-3)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        est = dyn.estimate_limit_map(h1, grid, tol=0.0, n_max=100)
    finally:
        tracer.uninstall()
    assert est.iterations_used == 100
    assert tracer.round_metrics()["maps.eval_batch.calls"] == 100


def test_import_starts_no_process_machinery():
    # the split over two processes uses os.fork directly: importing the
    # package and its CLI loads no process pool and starts no process, so
    # the benchmark's setup_s does not pay for either
    probe = (
        "import os, sys\n"
        "started = []\n"
        "for name in ('fork', 'forkpty', 'posix_spawn', 'posix_spawnp', 'system', 'popen',\n"
        "             'execv', 'execve', 'spawnv', 'spawnve'):\n"
        "    if hasattr(os, name):\n"
        "        setattr(os, name, lambda *a, name=name, **k: started.append(name))\n"
        "import fatou, fatou.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'subprocess')\n"
        "             if m in sys.modules), started)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[] []\n"


def test_only_the_engine_splits():
    # the split over two processes is decided in one place: _in_halves is
    # named only in _lockstep_iterate, and no function takes a combine callback
    dyn = importlib.import_module("fatou.dynamics")
    tree = ast.parse(Path(dyn.__file__).read_text())
    users = [top.name if isinstance(top, ast.FunctionDef) else type(top).__name__
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id == "_in_halves"]
    assert users == ["_lockstep_iterate"]
    takes_combine = [
        getattr(node, "name", "lambda") for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "combine" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert takes_combine == []


def test_the_engine_alone_holds_the_error_state_of_a_run():
    # the step kernel names no errstate (its caller holds one), its arithmetic
    # makes no reduction (the engine tests the w-axis once a block), and only
    # _lockstep_iterate sets the flag by which eval_batch leaves both to the engine
    src = Path(importlib.import_module("fatou").__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    kernels = {n.name: n for n in ast.walk(trees["maps"])
               if isinstance(n, ast.FunctionDef) and n.name in ("_fast_forward", "_fast_arith")}
    assert len(kernels) == 2
    names = {name: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(kernel)
                    if isinstance(n, (ast.Name, ast.Attribute))}
             for name, kernel in kernels.items()}
    assert not any("errstate" in name for used in names.values() for name in used)
    assert not names["_fast_arith"] & {"reduce", "min", "max", "amin", "amax", "any", "all",
                                       "sum", "fmin", "fmax", "minimum", "maximum"}
    setters = {(mod, top.name) for mod, tree in trees.items() for top in tree.body
               for n in ast.walk(top)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "set" and "_IN_ENGINE" in (getattr(n.func.value, "id", None),
                                                           getattr(n.func.value, "attr", None))}
    assert setters == {("dynamics", "_lockstep_iterate")}


def test_one_arithmetic_path_for_psi():
    # psi runs in complex128 only: fatou.ddc forms divisors and defines no
    # number class, and fatou.linearization names no object dtype
    ddc = importlib.import_module("fatou.ddc")
    lin = importlib.import_module("fatou.linearization")
    tree = ast.parse(Path(ddc.__file__).read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []
    tree = ast.parse(Path(lin.__file__).read_text())
    named = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "object"]
    spelled = [k.value.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
               for k in n.keywords if k.arg == "dtype" and isinstance(k.value, ast.Constant)
               and k.value.value in ("O", "object")]
    assert named == spelled == []


def test_one_home_for_the_growth_constants():
    # delta, its fit and eta's radius are formed in one function, which
    # both solve_psi and majorant_split call
    lin = importlib.import_module("fatou.linearization")
    tree = ast.parse(Path(lin.__file__).read_text())
    tops = [top for top in tree.body if isinstance(top, ast.FunctionDef)]

    def named(top, name):
        return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(top))

    homes = {name: [top.name for top in tops if named(top, name)]
             for name in ("_delta_sequence", "eta_radius")}
    assert homes["_delta_sequence"] == homes["eta_radius"]
    assert len(homes["eta_radius"]) == 1
    (home,) = homes["eta_radius"]
    assert [top.name for top in tops if named(top, home)] == ["solve_psi", "majorant_split"]


def test_one_home_for_theta_mod_1():
    # only fatou.diophantine reduces theta mod 1 and expands it: cli reads
    # its helper, as the certificates' denominator scan does
    pkg = Path(importlib.import_module("fatou").__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(pkg.glob("*.py"))}

    def mod_1(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant) and node.right.value == 1)

    def calls(tree, name):
        return any(isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                         getattr(n.func, "attr", None))
                   for n in ast.walk(tree))

    assert [name for name, tree in trees.items()
            if any(map(mod_1, ast.walk(tree)))] == ["diophantine.py"]
    assert not calls(trees["cli.py"], "continued_fraction")
    (scan,) = [top for top in trees["diophantine.py"].body
               if isinstance(top, ast.FunctionDef) and top.name == "_scan_denominators"]
    assert calls(scan, "_continued_fraction_mod1") and not calls(scan, "continued_fraction")


def test_readme_flag_table_is_the_parsers():
    cli = importlib.import_module("fatou.cli")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `--")]
    want = []
    for dest, (section, key, _) in cli.FLAGS.items():
        readers = [name for name, (_, _, flags) in cli.COMMANDS.items()
                   if dest in ("config", "out") + flags]
        want.append([f"`--{dest.replace('_', '-')}`",
                     "—" if section is None else f"`[{section}] {key}`",
                     "all" if len(readers) == len(cli.COMMANDS) else ", ".join(readers)])
    assert rows == want
