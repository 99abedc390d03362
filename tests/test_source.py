"""Checks on the source text of the package."""

import ast
from pathlib import Path

from nldd.config import CHECK_SPECS

SRC = Path(__file__).resolve().parents[1] / "src" / "nldd"


def unread_parameters(src: Path = SRC) -> list[str]:
    """``module.function(parameter)`` for every parameter of a function or
    lambda in ``src`` that its body never reads (``self`` and ``cls`` aside)."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.stem}.{name}({p})" for p in params if p not in read | {"self", "cls"}]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot"}


def blas_products(src: Path = SRC) -> list[str]:
    """``module:line`` of every product in ``src`` that numpy hands to BLAS:
    ``@``, the calls in BLAS_PRODUCTS (as functions or methods) and
    ``linalg.norm`` without an ``axis``, which is a dot product of the
    flattened array.  BLAS may split one across threads, and then its last
    bits depend on the thread count."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.stem}:{node.lineno} @")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in BLAS_PRODUCTS:
                found.append(f"{path.stem}:{node.lineno} {name}")
            if name == "norm" and not any(k.arg == "axis" for k in node.keywords) and len(node.args) < 3:
                found.append(f"{path.stem}:{node.lineno} norm")
    return found


def test_no_output_depends_on_the_blas_thread_count():
    assert blas_products() == []


def test_blas_products_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "import numpy as np\n"
        "a = w @ v\n"
        "a @= v\n"
        "b = np.dot(w, v) + w.dot(v) + np.vdot(w, v) + np.inner(w, v)\n"
        "c = np.matmul(w, v) + np.tensordot(w, v, 1) + np.vecdot(w, v)\n"
        "d = np.linalg.norm(v)\n"
        "e = np.linalg.norm(v, axis=-1) + np.linalg.norm(v, 2, -1) + (w * v).sum()\n"
    )
    assert sorted(blas_products(tmp_path)) == sorted([
        "m:2 @", "m:3 @",
        "m:4 dot", "m:4 dot", "m:4 vdot", "m:4 inner",
        "m:5 matmul", "m:5 tensordot", "m:5 vecdot",
        "m:6 norm",
    ])


SOLVERS = {"solve", "solve_sqg"}


def solver_users(path: Path = SRC / "verify.py") -> list[str]:
    """The top-level definitions of ``path`` (or the line of a top-level
    statement) that name ``solve`` or ``solve_sqg``, by a call or otherwise."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in SOLVERS:
                found.add(getattr(top, "name", f"line {top.lineno}"))
    return sorted(found)


def test_every_check_solves_through_run_experiment():
    # run_experiment solves each distinct problem of a config once, so a
    # check that reached a solver another way would solve it again
    assert solver_users() == ["run_experiment"]


def test_solver_users_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from nldd.evolution import solve, solve_sqg\n"
        "from nldd import evolution\n"
        "def a(u):\n    return solve(u, None, None, c)\n"
        "class B:\n    def f(self):\n        return evolution.solve_sqg\n"
        "C = {'x': lambda u: solve_sqg(u, None, c)}\n"
        "def d(u):\n    return u\n"
    )
    assert solver_users(tmp_path / "m.py") == ["B", "a", "line 8"]


def scipy_importers(src: Path = SRC) -> list[str]:
    """``module:line`` of every ``import scipy...`` and ``from scipy...``
    in ``src``, at any depth."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_operators_imports_scipy():
    # the truncated kernel's constant and multiplier table; the free-kernel
    # oracles live in the tests
    assert {found.partition(":")[0] for found in scipy_importers()} == {"operators"}


def test_scipy_importers_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "import scipy\n"
        "import numpy, scipy.special as sp\n"
        "from scipy import integrate\n"
        "def f():\n    from scipy.special import j0\n"
        "import scipyx\n"
        "from .scipy import g\n"
        "from numpy import scipy\n"
    )
    assert scipy_importers(tmp_path) == ["m:1", "m:2", "m:3", "m:5"]


SOLVE_RULES = {"check_solve", "check_cfl", "check_estimate"}


def solve_rule_calls(path: Path = SRC / "config.py") -> list[str]:
    """``name:line`` of every call in ``path`` of a rule in SOLVE_RULES, by
    its name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in SOLVE_RULES:
                found.append(f"{name}:{node.lineno}")
    return found


def test_the_config_runs_no_solve_rule():
    # each rule runs once, in the solve or estimate that needs it; the config
    # maps the parameter it names onto a field path around that call
    assert solve_rule_calls() == []


def test_solve_rule_calls_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from nldd import evolution, heatkernel\n"
        "from nldd.evolution import check_solve\n"
        "def f(g, c, b):\n"
        "    check_solve(g, c)\n"
        "    evolution.check_cfl(g, c.dt, b)\n"
        "    return heatkernel.check_estimate, check_solve\n"
        "heatkernel.check_estimate(g, c, 0.0, t)\n"
    )
    assert sorted(solve_rule_calls(tmp_path / "m.py")) == [
        "check_cfl:5", "check_estimate:7", "check_solve:4"
    ]


def check_declarations(path: Path = SRC / "verify.py") -> list[str]:
    """``name:line`` of every ``VerificationReport`` call in ``path``, by its
    name or as an attribute, and of every string literal that is the
    inequality id of a check in CHECK_SPECS."""
    ids = {spec.inequality_id for spec in CHECK_SPECS.values()}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "VerificationReport":
                found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in ids:
            found.append(f"{node.value}:{node.lineno}")
    return found


def test_verify_declares_no_check():
    # config.CHECK_SPECS is the one declaration of a check, and config.report
    # hands each check its report under its ceiling
    assert check_declarations() == []


def test_check_declarations_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from nldd import reports\n"
        "from nldd.reports import VerificationReport\n"
        "a = VerificationReport('x')\n"
        "b = reports.VerificationReport(name, ceiling=1.0)\n"
        "c = {'bmo-slanted': 1.0}\n"
        "def f(cfg):\n    return cfg.report('bmo'), VerificationReport, 'bmo slanted'\n"
    )
    assert sorted(check_declarations(tmp_path / "m.py")) == [
        "VerificationReport:3", "VerificationReport:4", "bmo-slanted:5"
    ]
