"""Regenerate the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regen.py

Each case runs one nldd subcommand in-process on a small config and keeps
one of its outputs, stored in full: a verify campaign's report.csv, an
.nldd snapshot, or stdout; or a part of one, the extras of report.json,
which also holds a timestamp: the fitted quantities of the slanted BMO
check, and every extra of the excess, Hölder, Lorentz and comparison
checks.  Together
the cases cover every check, straight and slanted; no, shear, lacunary and
SQG drift; atoms and a density.
meta.json records the numpy version and the SIMD extensions numpy found on
the machine that made them; the test compares byte for byte where both
match, and to 1e-12 relative otherwise.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import yaml

GOLDEN = Path(__file__).resolve().parent

COARSE = {"d": 2, "n": 32, "domain_length": 8.0}
FINE = {"d": 2, "n": 64, "domain_length": 8.0}  # excess and Hölder need 64 points
RANDOM = {"kind": "random", "amplitude": 1.0, "decay": 2.5}
SOLVER = {"dt": 0.02, "t_end": 1.2}
ATOM = {"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]}
DENSITY = {"density": {"kind": "uniform", "level": 0.5, "t_start": 0.0, "t_end": 1.0}}
SHEAR = {"family": "shear", "amplitude": 1.0}
LACUNARY = {"family": "lacunary", "coefficients": [0.3, 0.3, 0.3]}


def _run(s, grid=COARSE, **sections):
    return {"grid": grid, "kernel": {"s": s}, "initial": RANDOM, "solver": SOLVER,
            "seed": 11, **sections}


def _campaign(s, drift, measure, selection, grid=COARSE, params=None, kept="report.csv"):
    sections = {"measure": measure, "verification": {"selection": selection, "params": params or {}}}
    if drift is not None:
        sections["drift"] = drift
    return "verify", _run(s, grid, **sections), kept


def _extras(out: Path) -> dict:
    """Each check's extras, by inequality id, from report.json."""
    checks = json.loads((out / "report.json").read_text())["checks"]
    return {name: check["extras"] for name, check in checks.items()}


def bmo_extras(out: Path) -> bytes:
    """The sizes and path fit of the slanted BMO check."""
    extras = _extras(out)["bmo-slanted"]
    kept = {key: extras[key] for key in ("C1", "C2", "path_norms", "path_residual")}
    return (json.dumps(kept, indent=2) + "\n").encode()


def all_extras(out: Path) -> bytes:
    """Every check's extras."""
    return (json.dumps(_extras(out), indent=2, sort_keys=True) + "\n").encode()


# file name -> (subcommand, config, the output kept: a file under --out, a
# function of --out, or None for stdout)
CASES = {
    # s = 1/2, shear drift, an atom: the BMO rows ride slant paths
    "verify-shear-atom.csv": _campaign(0.5, SHEAR, ATOM, ["potential", "comparison", "bmo"]),
    "verify-shear-atom-bmo.json": _campaign(0.5, SHEAR, ATOM, ["bmo"], kept=bmo_extras),
    "verify-shear-atom-fine.csv": _campaign(
        0.5, SHEAR, ATOM, ["excess", "holder"], FINE,
        {"excess": {"m_max": 1}, "holder": {"slanted": True}},
    ),
    # what the excess, Hölder, Lorentz and comparison checks report beside their rows
    "verify-shear-atom-density-extras.json": _campaign(
        0.5, SHEAR, {**ATOM, **DENSITY}, ["excess", "holder", "lorentz", "comparison"], FINE,
        {"excess": {"m_max": 1}, "holder": {"slanted": True}}, kept=all_extras,
    ),
    # s = 3/4, lacunary drift, an atom and a density: the rows are straight
    "verify-lacunary-atom-density.csv": _campaign(
        0.75, LACUNARY, {**ATOM, **DENSITY}, ["potential", "lorentz", "bmo"]
    ),
    "verify-lacunary-atom-density-fine.csv": _campaign(
        0.75, LACUNARY, {**ATOM, **DENSITY}, ["excess", "holder"], FINE, {"excess": {"m_max": 1}}
    ),
    "verify-none-density.csv": _campaign(0.5, None, DENSITY, ["potential", "lorentz"]),
    "verify-sqg-atom.csv": _campaign(0.5, {"family": "sqg"}, ATOM, ["potential"]),
    "sqg-final.nldd": ("sqg", _run(0.5, measure=ATOM), "final.nldd"),
    "heatkernel-kernel.nldd": (
        "heatkernel",
        {
            "grid": COARSE, "kernel": {"s": 0.5}, "drift": SHEAR, "solver": {"dt": 0.02},
            "heatkernel": {"times": [1.0, 1.5, 2.0], "h_moll": 0.25},
        },
        "kernel.nldd",
    ),
    "potential-stdout.txt": (
        "potential",
        {
            "grid": COARSE, "kernel": {"s": 0.5}, "measure": {**ATOM, **DENSITY},
            "verification": {"params": {"potential": {"t0": 0.8, "x0": [4.5, 4.0], "R": 1.0}}},
        },
        None,
    ),
}


def run_case(name: str, work: Path) -> bytes:
    """The kept output of case ``name``, run in the empty directory ``work``."""
    from nldd.cli import main

    command, raw, kept = CASES[name]
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    args = [command, "--config", str(config)]
    if kept is not None:
        args += ["--out", str(work / "out")]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"golden case {name}: nldd {command} exited with {code}")
    if kept is None:
        return stdout.getvalue().encode()
    if callable(kept):
        return kept(work / "out")
    return (work / "out" / kept).read_bytes()


def machine() -> dict:
    """What decides whether outputs can be expected byte for byte."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # a numpy that does not report them
        simd = None
    return {"numpy": np.__version__, "simd": simd}


def main() -> int:
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / name).write_bytes(run_case(name, Path(work)))
    (GOLDEN / "meta.json").write_text(json.dumps(machine(), indent=2) + "\n")
    print(f"wrote {len(CASES)} golden outputs and meta.json to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
