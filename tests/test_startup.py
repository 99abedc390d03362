"""Start-up cost: the package, its CLI, an s = 1/2 solve and a heat-kernel
estimate load no scipy module; the quadratures that need scipy import it when
they run and give the values they give after an eager import."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

LOADED_SCIPY = 'sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))'

IMPORTS = """
import sys
import numpy as np
from heat_oracles import exact_free_kernel
from nldd.fields import make_grid
from nldd.operators import KernelSpec, truncated_multiplier_table
"""

QUADRATURES = """
table = truncated_multiplier_table(make_grid(2, 16, 8.0), KernelSpec(0.75, truncation_radius=1.5))
radii = np.array([0.0, 0.3, 1.7])
free2 = exact_free_kernel(KernelSpec(0.75), 2, 0.5, radii)
free3 = exact_free_kernel(KernelSpec(0.75), 3, 0.5, radii)
print(table.tobytes().hex(), free2.tobytes().hex(), free3.tobytes().hex())
"""


def run_python(code: str) -> list[str]:
    """stdout lines of a fresh interpreter running code with src/ and the
    test oracles importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cli_and_half_order_solve_load_no_scipy(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({
        "grid": {"d": 2, "n": 16, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": {"kind": "random", "amplitude": 1.0, "decay": 2.5},
        "drift": {"family": "shear", "amplitude": 1.0},
        "measure": {"atoms": [{"t": 0.1, "x": [4.0, 4.0], "mass": 0.5}]},
        "solver": {"dt": 0.02, "t_end": 0.2},
        "seed": 3,
    }))
    # the estimate, its sanity checks and its upper bound, at s != 1/2
    kernel_cfg = tmp_path / "kernel.yaml"
    kernel_cfg.write_text(json.dumps({
        "grid": {"d": 2, "n": 16, "domain_length": 8.0},
        "kernel": {"s": 0.75},
        "drift": {"family": "shear", "amplitude": 1.0},
        "solver": {"dt": 0.05},
        "heatkernel": {"times": [2.0, 3.0, 4.0], "h_moll": 0.5},
    }))
    code = f"""
import sys
import nldd, nldd.cli, nldd.verify
print({LOADED_SCIPY})
rc = nldd.cli.main(["solve", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
print("solve", rc, {LOADED_SCIPY})
rc = nldd.cli.main(["heatkernel", "--config", {str(kernel_cfg)!r}])
print("heatkernel", rc, {LOADED_SCIPY})
"""
    lines = run_python(code)
    assert lines[0] == "[]"
    assert "solve 0 []" in lines
    assert lines[-1] == "heatkernel 0 []"
    assert lines[-2].startswith("upper-bound fitted constant: ")
    assert (tmp_path / "out" / "final.nldd").is_file()


def test_quadratures_import_scipy_and_match_an_eager_import():
    lazy = run_python(IMPORTS + f"print({LOADED_SCIPY})\n" + QUADRATURES)
    eager = run_python("import scipy.integrate, scipy.special\n" + IMPORTS + QUADRATURES)
    assert lazy[0] == "[]"
    assert lazy[1] == eager[0]
