import importlib
import os
import pkgutil
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import nldd
from nldd import heatkernel
from nldd.cli import main
from nldd.config import ConfigError, ExperimentConfig, load_config
from nldd.heatkernel import upper_bound_check
from nldd.snapshots import load_kernel_estimate
from nldd.verify import run_experiment

SRC = Path(__file__).resolve().parents[1] / "src"


def write_cfg(tmp_path, raw, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(raw))
    return str(p)


def solve_raw(**extra):
    raw = {
        "grid": {"d": 2, "n": 32, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": {
            "kind": "eigenmode",
            "modes": [{"axis": 0, "wavenumber": 1, "amplitude": 1.0}],
        },
        "solver": {"dt": 5e-3, "t_end": 0.5, "snapshot_stride": 20},
        "seed": 3,
    }
    raw.update(extra)
    return raw


def heatkernel_raw(**section):
    """A 16-point grid of spacing 0.5 and a heatkernel section that passes:
    h_moll = 0.5 needs the first time 4 h_moll = 2 after eta = 0."""
    return {
        "grid": {"d": 2, "n": 16, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "solver": {"dt": 0.05},
        "heatkernel": {"times": [2.0, 3.0, 4.0], "h_moll": 0.5, **section},
    }


def spy_steps(monkeypatch) -> list:
    """Every solver step taken, none of which runs: a refusal must come
    before the first."""
    steps = []
    monkeypatch.setattr("nldd.evolution._Stepper.step", lambda *a, **k: steps.append(a))
    return steps


class TestSolve:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_raw())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.nldd").exists()
        assert (out / "final.nldd").exists()
        assert "solved to t = 0.5" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys):
        raw = solve_raw(initial={"kind": "random", "amplitude": 1.0, "decay": 2.0})
        cfg = write_cfg(tmp_path, raw)
        main(["solve", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "a")])
        out_a = capsys.readouterr().out
        main(["solve", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "b")])
        out_b = capsys.readouterr().out
        assert out_a != out_b
        assert (tmp_path / "a" / "final.nldd").read_bytes() != (
            tmp_path / "b" / "final.nldd"
        ).read_bytes()


class TestSqg:
    def test_runs_self_coupled(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_raw())
        assert main(["sqg", "--config", cfg]) == 0
        assert "solved" in capsys.readouterr().out


class TestPotential:
    def test_with_atoms(self, tmp_path, capsys):
        raw = solve_raw(
            measure={"atoms": [{"t": 0.5, "x": [4.5, 4.0], "mass": 1.0}]},
            verification={"params": {"potential": {"t0": 1.0, "R": 1.0}}},
        )
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["potential", "--config", cfg, "--out", str(out)]) == 0
        assert "potential P^R_2s" in capsys.readouterr().out
        import json

        with open(out / "potential.json") as fh:
            payload = json.load(fh)
        assert payload["potential"] > 0.0

    def test_without_measure_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_raw())
        assert main(["potential", "--config", cfg]) == 1
        assert "no measure" in capsys.readouterr().err


class TestHeatKernel:
    def test_estimates_and_checks(self, tmp_path, capsys):
        raw = {
            "grid": {"d": 2, "n": 64, "domain_length": 16.0},
            "kernel": {"s": 0.5},
            "solver": {"dt": 5e-3, "t_end": 2.0},
            "heatkernel": {
                "eta": 0.0,
                "y": [8.0, 8.0],
                "times": [1.0, 1.5, 2.0],
                "h_moll": 0.25,
            },
        }
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["heatkernel", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mass check: ok" in printed
        assert "semigroup L1 error" in printed
        assert (out / "kernel.nldd").exists()
        # the written estimate is recognized by the inspector and copied
        # byte for byte
        assert main(["snapshot", "info", str(out / "kernel.nldd")]) == 0
        assert "kernel estimate" in capsys.readouterr().out
        dst = tmp_path / "copy.nldd"
        assert main(["snapshot", "roundtrip", str(out / "kernel.nldd"), str(dst)]) == 0
        assert dst.read_bytes() == (out / "kernel.nldd").read_bytes()

    def test_prints_the_upper_bound_of_the_written_estimate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["heatkernel", "--config", write_cfg(tmp_path, heatkernel_raw()),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        est = load_kernel_estimate(out / "kernel.nldd")
        bound = upper_bound_check(est, T=est.times[-1])
        assert len(bound.rows) == 3
        assert f"upper-bound fitted constant: {bound.fitted_constant:.6g}" in printed

    def test_the_exit_code_reads_the_sanity_checks_alone(self, tmp_path, capsys, monkeypatch):
        # a semigroup check that fails exits 1; the upper bound is printed
        # and decides nothing
        monkeypatch.setattr(heatkernel, "SANITY_SEMIGROUP_TOL", 0.0)
        assert main(["heatkernel", "--config", write_cfg(tmp_path, heatkernel_raw())]) == 1
        printed = capsys.readouterr().out
        assert "(FAILED)" in printed
        assert "upper-bound fitted constant: " in printed

    def test_the_section_the_error_cases_start_from_runs(self, tmp_path, capsys):
        assert main(["heatkernel", "--config", write_cfg(tmp_path, heatkernel_raw())]) == 0
        assert "semigroup L1 error" in capsys.readouterr().out

    def test_default_section_runs(self, tmp_path, capsys):
        # the default grid (n = 64, L = 2 pi) and width h_moll = 2 spacings
        # need a first gap of 4 h_moll = 0.7854: the default times start at
        # the first whole step of the default dt = 1e-3 past it
        config = ExperimentConfig({"kernel": {"s": 0.5}})
        grid, kernel = config.build_grid(), config.build_kernel()
        _, _, times, _ = config.build_heatkernel(grid, kernel)
        np.testing.assert_allclose(times, [0.786, 1.572, 3.144], rtol=1e-12)
        assert main(["heatkernel", "--config", write_cfg(tmp_path, config.raw)]) == 0
        printed = capsys.readouterr().out
        assert "mass check: ok" in printed
        assert "(ok)" in printed

    @pytest.mark.parametrize(
        "raw",
        [
            {
                "grid": {"d": 2, "n": 64, "domain_length": 8.0}, "kernel": {"s": 0.75},
                "solver": {"dt": 0.01}, "heatkernel": {"eta": 0.3, "h_moll": 0.125},
            },
            {
                "grid": {"d": 2, "n": 32, "domain_length": 8.0}, "kernel": {"s": 0.75},
                "solver": {"dt": 0.02}, "heatkernel": {"h_moll": 0.25},
            },
            {"grid": {"d": 2, "n": 128, "domain_length": 8.0}, "kernel": {"s": 0.5}},
        ],
        ids=["eta", "gap-exactly-half", "default-dt"],
    )
    def test_default_times_where_the_first_gap_of_a_half_suffices(self, raw):
        # wherever eta + (0.5, 1, 2) can be estimated, those are the defaults
        config = ExperimentConfig(raw)
        grid, kernel = config.build_grid(), config.build_kernel()
        eta, _, times, _ = config.build_heatkernel(grid, kernel)
        assert times.tolist() == [eta + 0.5, eta + 1.0, eta + 2.0]

    @pytest.mark.parametrize("t_end", [0, -1])
    def test_solver_t_end_is_not_read(self, tmp_path, capsys, t_end):
        # the estimate solves from eta to its last time, whatever solver.t_end says
        runs = {"plain": heatkernel_raw(), "ignored": heatkernel_raw()}
        runs["ignored"]["solver"] = {"dt": 0.05, "t_end": t_end}
        for name, raw in runs.items():
            cfg = write_cfg(tmp_path, raw, f"{name}.yaml")
            assert main(["heatkernel", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        written = [(tmp_path / name / "kernel.nldd").read_bytes() for name in runs]
        assert written[0] == written[1]


class TestVerify:
    def test_campaign_and_ceiling_file(self, tmp_path, capsys):
        raw = solve_raw(
            initial={"kind": "random", "amplitude": 1.0, "decay": 2.5},
            solver={"dt": 4e-3, "t_end": 1.0},
            measure={"density": {"kind": "uniform", "level": 0.5,
                                 "t_start": 0.0, "t_end": 1.0}},
            verification={"selection": ["lorentz"]},
        )
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        # an impossible ceiling supplied via file flips the exit code
        ceil = tmp_path / "ceil.yaml"
        ceil.write_text(yaml.safe_dump({"lorentz-exponent": 1e-12}))
        assert (
            main(["verify", "--config", cfg, "--out", str(out),
                  "--ceiling-file", str(ceil)])
            == 1
        )
        # a misspelt inequality id in the file sets no ceiling: it is refused
        ceil.write_text(yaml.safe_dump({"lorentz-exponnent": 1e-12}))
        assert (
            main(["verify", "--config", cfg, "--out", str(tmp_path / "misspelt"),
                  "--ceiling-file", str(ceil)])
            == 2
        )
        assert not (tmp_path / "misspelt").exists()
        # so is a file that is not a mapping of ids, at the flag
        ceil.write_text("- 1\n")
        capsys.readouterr()
        assert (
            main(["verify", "--config", cfg, "--out", str(tmp_path / "listed"),
                  "--ceiling-file", str(ceil)])
            == 2
        )
        assert capsys.readouterr().err.splitlines() == [
            "nldd verify: config field '--ceiling-file': must be a mapping, got [1]"
        ]
        assert not (tmp_path / "listed").exists()

    @pytest.mark.parametrize("broken", [True, False], ids=["not-yaml", "missing"])
    def test_ceiling_file_that_cannot_be_read(self, tmp_path, capsys, broken):
        cfg = write_cfg(tmp_path, solve_raw(verification={"selection": ["lorentz"]}))
        ceil = tmp_path / "ceil.yaml"
        if broken:
            ceil.write_text("lorentz-exponent: [1\n")
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out), "--ceiling-file", str(ceil)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        reason = "YAML parse error in" if broken else "cannot read"
        assert line.startswith(f"nldd verify: config field '--ceiling-file': {reason} {ceil}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "verification, message",
        [
            (
                {"ceilings": None},
                "config field 'verification.ceilings': section has no value; "
                "give it fields or drop it",
            ),
            (
                {"params": {"lorentz": 1.2}},
                "config field 'verification.params.lorentz': must be a mapping, got 1.2",
            ),
            (
                {"ceilings": {"potential-estimat": 1e-3}},
                "config field 'verification.ceilings.potential-estimat': unknown field; the "
                "section takes potential-estimate, excess-decay, holder-exponent, "
                "lorentz-exponent, comparison-estimate, bmo-slanted",
            ),
            (
                {"ceilings": {"lorentz-exponent": "tight"}},
                "config field 'verification.ceilings.lorentz-exponent': must be a number, "
                "got 'tight'",
            ),
            (
                {"params": {"holder": {"slanted": "false"}}},
                "config field 'verification.params.holder.slanted': must be true or false, "
                "got 'false'",
            ),
            (
                {"params": {"excess": {"m_max": 2.5}}},
                "config field 'verification.params.excess.m_max': must be an integer, got 2.5",
            ),
            (
                {"params": {"holder": {"slant": True}}},
                "config field 'verification.params.holder.slant': unknown field; the section "
                "takes slanted",
            ),
            (
                {"params": {"comparison": {"m_max": 2}}},
                "config field 'verification.params.comparison.m_max': unknown field; the "
                "section takes no fields",
            ),
            (
                {"params": {"holdr": {"slanted": True}}},
                "config field 'verification.params.holdr': unknown field; the section takes "
                "potential, excess, holder, lorentz, comparison, bmo",
            ),
            (
                {"holder": {"slanted": True}},
                "config field 'verification.holder': unknown field; the section takes "
                "selection, ceilings, params",
            ),
        ],
        ids=[
            "ceilings", "params.lorentz", "ceiling-unknown-id", "ceiling-not-a-number",
            "holder.slanted-string", "excess.m_max-not-whole", "holder-unknown-key",
            "comparison-takes-no-key", "params-unknown-check", "verification-unknown-key",
        ],
    )
    @pytest.mark.parametrize("ceiling_file", [False, True])
    def test_bad_sub_section_through_main(
        self, tmp_path, capsys, verification, message, ceiling_file
    ):
        raw = solve_raw(verification={"selection": ["lorentz"], **verification})
        args = ["verify", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "out")]
        if ceiling_file:
            ceil = tmp_path / "ceil.yaml"
            ceil.write_text(yaml.safe_dump({"lorentz-exponent": 1e-12}))
            args += ["--ceiling-file", str(ceil)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd verify: {message}"]


class TestConfigErrors:
    """A config that fails validation exits 2 with one stderr line naming
    the field, from a fresh interpreter as a user runs it."""

    @staticmethod
    def run_cli(*args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "nldd.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_solve_with_a_short_atom(self, tmp_path):
        cfg = write_cfg(tmp_path, solve_raw(
            measure={"atoms": [{"t": 0.1, "x": [4.0], "mass": 1.0}]}
        ))
        out = self.run_cli("solve", "--config", cfg)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "nldd solve: config field 'measure.atoms[0].x': needs 2 coordinates, got 1"
        ]

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("kernel", {"s": 1.5}, "config field 'kernel.s': order s must lie in (0, 1), got 1.5"),
            (
                "solver",
                {"dt": -0.02, "t_end": 0.5},
                "config field 'solver.dt': dt must be positive, got -0.02",
            ),
            (
                "solver",
                {"dt": 5e-3, "t_end": 0.0},
                "config field 'solver.t_end': t_end must be positive, got 0.0",
            ),
            (
                "solver",
                {"dt": 5e-3, "t_end": 0.5, "snapshot_stride": 0},
                "config field 'solver.snapshot_stride': snapshot stride must be >= 1, got 0",
            ),
        ],
        ids=["kernel.s", "solver.dt", "solver.t_end", "solver.snapshot_stride"],
    )
    def test_solve_with_an_out_of_range_value(self, tmp_path, section, value, message):
        cfg = write_cfg(tmp_path, solve_raw(**{section: value}))
        out = self.run_cli("solve", "--config", cfg)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [f"nldd solve: {message}"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"seed": "abc"}, "config field 'seed': must be an integer, got 'abc'"),
            (
                {"grid": {"d": 2, "n": 30, "domain_length": 8.0}},
                "config field 'grid.n': points per axis must be a power of two >= 8, got 30",
            ),
        ],
        ids=["seed", "grid.n"],
    )
    def test_solve_with_a_bad_seed_or_grid_through_main(self, tmp_path, capsys, extra, message):
        cfg = write_cfg(tmp_path, solve_raw(**extra))
        assert main(["solve", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd solve: {message}"]

    def test_solve_with_a_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["solve", "--config", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"nldd solve: config field '--config': cannot read {missing}: No such file or directory"
        ]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {"solver": {"dt": 0.3, "t_end": 1.0}},
                "config field 'solver.t_end': t_end = 1.0 must be an integer number of steps "
                "of dt = 0.3",
            ),
            (
                {
                    "solver": {"dt": 5e-3, "t_end": 0.5, "h_moll": 0.1},
                    "measure": {"atoms": [{"t": 0.1, "x": [4.0, 4.0], "mass": 1.0}]},
                },
                "config field 'solver.h_moll': h_moll = 0.1 is below the grid spacing 0.25 "
                "of a measure with atoms",
            ),
            (
                {
                    "solver": {"dt": 5e-3, "t_end": 0.5, "h_moll": 0.0},
                    "measure": {"atoms": [{"t": 0.1, "x": [4.0, 4.0], "mass": 1.0}]},
                },
                "config field 'solver.h_moll': h_moll = 0.0 is below the grid spacing 0.25 "
                "of a measure with atoms",
            ),
            (
                {
                    "grid": {"d": 2, "n": 16, "domain_length": 8.0},
                    "drift": {"family": "shear", "amplitude": 50.0},
                    "solver": {"dt": 0.02, "t_end": 0.5},
                },
                "config field 'solver.dt': dt = 0.02 violates the advective CFL of the "
                "drift, max|b| = 50; admissible dt <= 5.000e-03",
            ),
            (
                {
                    "grid": {"d": 2, "n": 32, "domain_length": 8.0, "bogus": 1},
                    "solver": {"dtt": 5, "t_end": 0.5},
                },
                "config field 'grid.bogus': unknown field; the section takes d, n, domain_length",
            ),
            (
                {"kernel": {"s": 0.5, "order": 0.75}},
                "config field 'kernel.order': unknown field; the section takes s",
            ),
            (
                {"solver": {"dtt": 5, "t_end": 0.5}},
                "config field 'solver.dtt': unknown field; the section takes dt, t_end, h_moll, "
                "snapshot_stride",
            ),
            (
                {"drift": {"family": "shear", "amplitude": "abc"}},
                "config field 'drift.amplitude': must be a number, got 'abc'",
            ),
            (
                {"grid": {"d": 2.9, "n": 64.5, "domain_length": 8.0}},
                "config field 'grid.d': must be an integer, got 2.9",
            ),
            (
                {"grid": {"d": 2, "n": 64.5, "domain_length": 8.0}},
                "config field 'grid.n': must be an integer, got 64.5",
            ),
            (
                {"solver": {"dt": 5e-3, "t_end": 0.5, "snapshot_stride": 2.5}},
                "config field 'solver.snapshot_stride': must be an integer, got 2.5",
            ),
            (
                {"solver": {"dt": True, "t_end": 0.5}},
                "config field 'solver.dt': must be a number, got True",
            ),
            (
                {"drift": {"family": "shear", "amplitud": 5.0}},
                "config field 'drift.amplitud': unknown field; the section takes family, "
                "vector, amplitude, wavenumber, coefficients",
            ),
            (
                {"initial": {"kind": "random", "decy": 2.0}},
                "config field 'initial.decy': unknown field; the section takes kind, modes, "
                "amplitude, decay",
            ),
            (
                {"initial": {"kind": "eigenmode", "modes": [{"wavenumber": 1, "amp": 2.0}]}},
                "config field 'initial.modes[0].amp': unknown field; the section takes axis, "
                "wavenumber, amplitude, phase",
            ),
            (
                {"measure": {"atom": [{"t": 0.1, "x": [4.0, 4.0], "mass": 1.0}]}},
                "config field 'measure.atom': unknown field; the section takes atoms, density",
            ),
            (
                {"measure": {"atoms": [{"t": 0.1, "x": [4.0, 4.0], "m": 1.0}]}},
                "config field 'measure.atoms[0].m': unknown field; the section takes t, x, mass",
            ),
            (
                {"measure": {"density": {"kind": "uniform", "t_end": 0.5, "levl": 2.0}}},
                "config field 'measure.density.levl': unknown field; the section takes kind, "
                "exponent, center, t_start, t_end, num_slices, level",
            ),
            (
                {"solvr": {"dt": 5e-3, "t_end": 0.5}},
                "config field 'solvr': unknown section; the document takes grid, kernel, drift, "
                "initial, measure, solver, heatkernel, verification, seed",
            ),
            (
                {"initial": {"kind": "eigenmode", "modes": [{"wavenumber": 1, "phase": "sine"}]}},
                "config field 'initial.modes[0].phase': must be one of sin, cos, got 'sine'",
            ),
            (
                {"measure": {"atoms": 5}},
                "config field 'measure.atoms': must be a list, got 5",
            ),
            (
                {"initial": {"kind": "eigenmode", "modes": 3}},
                "config field 'initial.modes': must be a list, got 3",
            ),
            (
                {"drift": {"family": "lacunary", "coefficients": [0.3, "abc"]}},
                "config field 'drift.coefficients[1]': must be a number, got 'abc'",
            ),
            (
                {"drift": {"family": "constant", "vector": [1.0, "x"]}},
                "config field 'drift.vector[1]': must be a number, got 'x'",
            ),
            (
                {"measure": {"density": {
                    "kind": "inverse_power", "exponent": 1.0, "center": [4.0], "t_end": 0.5,
                }}},
                "config field 'measure.density.center': needs 2 coordinates, got 1",
            ),
            (
                {"initial": {"kind": "eigenmode", "modes": [{"axis": 5, "wavenumber": 1}]}},
                "config field 'initial.modes[0].axis': must lie in [0, 2), got 5",
            ),
            (
                {"initial": {"kind": "eigenmode", "modes": [
                    {"axis": 0, "wavenumber": 1}, {"axis": -1, "wavenumber": 2},
                ]}},
                "config field 'initial.modes[1].axis': must lie in [0, 2), got -1",
            ),
            (
                {"measure": {"density": {"kind": "uniform", "t_end": 0.5, "num_slices": 0}}},
                "config field 'measure.density.num_slices': needs 2 or more slices to span "
                "[t_start, t_end], got 0",
            ),
            (
                {"measure": {"density": {"kind": "uniform", "t_end": 0.5, "num_slices": 1}}},
                "config field 'measure.density.num_slices': needs 2 or more slices to span "
                "[t_start, t_end], got 1",
            ),
        ],
        ids=[
            "solver.t_end", "solver.h_moll", "solver.h_moll-zero", "solver.dt-cfl",
            "grid-unknown-key", "kernel-unknown-key", "solver-unknown-key",
            "drift.amplitude-not-a-number", "grid.d-not-whole", "grid.n-not-whole",
            "solver.snapshot_stride-not-whole", "solver.dt-a-flag", "drift-unknown-key",
            "initial-unknown-key", "mode-unknown-key", "measure-unknown-key",
            "atom-unknown-key", "density-unknown-key", "unknown-section", "phase-unknown-word",
            "atoms-not-a-list", "modes-not-a-list", "coefficients-item", "vector-item",
            "density-center-short", "mode-axis-past-d", "mode-axis-negative",
            "num_slices-zero", "num_slices-one",
        ],
    )
    def test_solve_with_a_bad_step_or_mollifier_through_main(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(tmp_path, solve_raw(**extra))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(load_config(cfg))
        assert main(["solve", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd solve: {message}"]
        assert steps == []

    @pytest.mark.parametrize("command", ["solve", "sqg", "verify"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {"kernel": {"s": 0.75}},
                "config field 'drift.family': the SQG drift needs d = 2 and s = 1/2, "
                "got d = 2 and s = 0.75",
            ),
            (
                {"grid": {"d": 3, "n": 16, "domain_length": 8.0}},
                "config field 'drift.family': the SQG drift needs d = 2 and s = 1/2, "
                "got d = 3 and s = 0.5",
            ),
        ],
        ids=["kernel.s", "grid.d"],
    )
    def test_sqg_off_the_critical_case_through_main(
        self, tmp_path, capsys, monkeypatch, command, extra, message
    ):
        steps = spy_steps(monkeypatch)
        raw = solve_raw(
            drift={"family": "sqg"}, verification={"selection": ["potential"]}, **extra
        )
        cfg = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(load_config(cfg))
        out = tmp_path / "reports"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd {command}: {message}"]
        assert steps == []
        assert not out.exists()

    def test_heatkernel_with_a_fixed_drift_past_its_cfl_bound(self, tmp_path, capsys, monkeypatch):
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(tmp_path, {
            "grid": {"d": 2, "n": 16, "domain_length": 8.0},
            "drift": {"family": "shear", "amplitude": 50.0},
            "solver": {"dt": 0.02},
        })
        assert main(["heatkernel", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "nldd heatkernel: config field 'solver.dt': dt = 0.02 violates the advective CFL "
            "of the drift, max|b| = 50; admissible dt <= 5.000e-03"
        ]
        assert steps == []

    @pytest.mark.parametrize("command", ["solve", "sqg", "verify"])
    def test_sqg_past_its_cfl_bound_through_main(self, tmp_path, capsys, command):
        # the SQG drift is built from u, so its CFL bound is checked at each
        # step; random data of amplitude 50 break it at the first
        cfg = write_cfg(tmp_path, solve_raw(
            grid={"d": 2, "n": 16, "domain_length": 8.0},
            drift={"family": "sqg"},
            initial={"kind": "random", "amplitude": 50.0},
            solver={"dt": 0.05, "t_end": 0.5},
            verification={"selection": ["potential", "excess"]},
        ))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert re.fullmatch(
            rf"nldd {command}: config field 'solver\.dt': dt = 0\.05 violates the advective "
            r"CFL of the drift, max\|b\| = \S+; admissible dt <= \S+",
            line,
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {
                    "solver": {"dt": 5e-3, "t_end": 0.5, "h_moll": 0.1},
                    "measure": {"atoms": [{"t": 0.1, "x": [4.0, 4.0], "mass": 1.0}]},
                },
                "config field 'solver.h_moll': h_moll = 0.1 is below the grid spacing 0.25 "
                "of a measure with atoms",
            ),
            (
                {
                    "grid": {"d": 2, "n": 16, "domain_length": 8.0},
                    "drift": {"family": "shear", "amplitude": 50.0},
                    "solver": {"dt": 0.02, "t_end": 0.5},
                },
                "config field 'solver.dt': dt = 0.02 violates the advective CFL of the "
                "drift, max|b| = 50; admissible dt <= 5.000e-03",
            ),
        ],
        ids=["solver.h_moll", "solver.dt-cfl"],
    )
    def test_verify_refuses_a_solve_setting_once(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        # the first check's solve refuses the setting, which ends the
        # campaign: one stderr line, not one report error per check
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(
            tmp_path, solve_raw(verification={"selection": ["potential", "excess"]}, **extra)
        )
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd verify: {message}"]
        assert steps == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, raw, rules",
        [
            (
                "solve",
                solve_raw(drift={"family": "shear"}),
                {"check_solve": 1, "check_cfl": 1},
            ),
            (
                "heatkernel",
                {**heatkernel_raw(), "drift": {"family": "shear"}},
                {"check_estimate": 1, "check_cfl": 1},
            ),
        ],
        ids=["solve", "heatkernel"],
    )
    def test_each_solve_rule_runs_once(self, tmp_path, capsys, monkeypatch, command, raw, rules):
        # every module's binding of each rule is spied on, so a copy of a
        # rule's call anywhere in the package would be counted
        calls = Counter()
        for info in pkgutil.iter_modules(nldd.__path__):
            module = importlib.import_module(f"nldd.{info.name}")
            for name in ("check_solve", "check_estimate", "check_cfl"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(
                        module, name,
                        lambda *a, _n=name, _r=real, **k: calls.update([_n]) or _r(*a, **k),
                    )
        assert main([command, "--config", write_cfg(tmp_path, raw)]) == 0
        capsys.readouterr()
        assert calls == Counter(rules)

    @pytest.mark.parametrize("command", ["solve", "sqg"])
    @pytest.mark.parametrize("section", ["grid", "drift", "solver", "measure"])
    def test_a_section_written_with_no_value(self, tmp_path, capsys, command, section):
        # "solver:" alone on its line is YAML for a null section
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"kernel: {{s: 0.5}}\n{section}:\n")
        message = f"config field '{section}': section has no value; give it fields or drop it"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(load_config(cfg))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd {command}: {message}"]

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                heatkernel_raw(times=2.0),
                "'heatkernel.times': must be a list, got 2.0",
            ),
            (
                heatkernel_raw(times=[1.0, 1.5, "abc"]),
                "'heatkernel.times[2]': must be a number, got 'abc'",
            ),
            (
                heatkernel_raw(times=[2.0, 3.0]),
                "'heatkernel.times': needs a list of 3 or more times for the semigroup check, "
                "got [2.0, 3.0]",
            ),
            (
                heatkernel_raw(eta=3.0),
                "'heatkernel.times': every time must lie after eta = 3.0, got 2",
            ),
            (
                heatkernel_raw(times=[2.0, 3.0, 4.01]),
                "'heatkernel.times': time 4.01 is not a whole number of steps of dt = 0.05 "
                "after eta = 0.0",
            ),
            (
                heatkernel_raw(times=[1.0, 3.0, 4.0]),
                "'heatkernel.times': the first time 1 lies 1 after eta; h_moll = 0.5 needs a gap "
                "of at least 4 h_moll^(2s) = 2",
            ),
            (heatkernel_raw(y=[1.0]), "'heatkernel.y': needs 2 coordinates, got 1"),
            (heatkernel_raw(y=[1.0, 2.0, 3.0]), "'heatkernel.y': needs 2 coordinates, got 3"),
            (
                heatkernel_raw(h_moll=0.25),
                "'heatkernel.h_moll': h_moll = 0.25 is below the grid spacing 0.5",
            ),
            (
                heatkernel_raw(tims=[2.0, 3.0, 4.0]),
                "'heatkernel.tims': unknown field; the section takes eta, y, times, h_moll",
            ),
            (
                {**heatkernel_raw(), "drift": {"family": "sqg"}},
                "'drift.family': the SQG drift depends on the solution, so the equation has no "
                "heat kernel; use none, constant, shear or lacunary",
            ),
            (
                {**heatkernel_raw(), "solver": {"dt": 0.05, "dtt": 5}},
                "'solver.dtt': unknown field; the section takes dt, t_end, h_moll, "
                "snapshot_stride",
            ),
            (
                {**heatkernel_raw(), "solver": {"dt": 0.05, "h_moll": 0.5}},
                "'solver.h_moll': nldd heatkernel does not read it; set the Dirac width with "
                "heatkernel.h_moll",
            ),
        ],
        ids=[
            "times-scalar", "times-item", "times-two", "times-before-eta", "times-off-step", "times-gap",
            "y-short", "y-long", "h_moll", "unknown-key", "sqg",
            "solver-unknown-key", "solver-h_moll",
        ],
    )
    def test_heatkernel_with_a_bad_section(self, tmp_path, capsys, monkeypatch, raw, message):
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(tmp_path, raw)
        assert main(["heatkernel", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd heatkernel: config field {message}"]
        assert steps == []

    def test_potential_with_a_short_point(self, tmp_path, capsys, monkeypatch):
        potentials = []
        monkeypatch.setattr("nldd.cli.riesz_potential", lambda *a, **k: potentials.append(a))
        cfg = write_cfg(tmp_path, solve_raw(
            measure={"atoms": [{"t": 0.5, "x": [4.5, 4.0], "mass": 1.0}]},
            verification={"params": {"potential": {"t0": 1.0, "x0": [1.0], "R": 1.0}}},
        ))
        assert main(["potential", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "nldd potential: config field 'verification.params.potential.x0': "
            "needs 2 coordinates, got 1"
        ]
        assert potentials == []

    def test_verify_with_a_selection_that_is_not_a_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_raw(verification={"selection": "potential"}))
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "nldd verify: config field 'verification.selection': must be a list, got 'potential'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "check, knobs, message",
        [
            (
                "excess", {"m_max": 0},
                "'verification.params.excess.m_max': m_max must be at least 1, got 0",
            ),
            (
                "lorentz", {"p": 3.5},
                "'verification.params.lorentz.p': p must lie in (1, (d+2s)/(2s)) = (1, 3), got 3.5",
            ),
            (
                "lorentz", {"sigma": 0.0},
                "'verification.params.lorentz.sigma': sigma must be positive, got 0.0",
            ),
            ("bmo", {"c0": -1.0}, "'verification.params.bmo.c0': c0 must be >= 0, got -1.0"),
            (
                "holder", {"slanted": True},
                "'verification.params.holder.slanted': needs an explicit drift, not 'none'",
            ),
        ],
        ids=["excess.m_max", "lorentz.p", "lorentz.sigma", "bmo.c0", "holder.slanted"],
    )
    def test_verify_with_a_knob_out_of_range(
        self, tmp_path, capsys, monkeypatch, check, knobs, message
    ):
        # a selected check's knobs are checked before the checks ahead of it
        # in the selection solve
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(tmp_path, solve_raw(
            measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 1.0}]},
            verification={"selection": ["potential", check], "params": {check: knobs}},
        ))
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd verify: config field {message}"]
        assert steps == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "check, measure, message",
        [
            (
                "lorentz", {"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 1.0}]},
                "'measure.density': the lorentz check needs a density measure",
            ),
            (
                "comparison", {"density": {"kind": "uniform", "t_end": 0.5}},
                "'measure.atoms': the comparison check needs an atomic measure",
            ),
            (
                "bmo", {"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 1.0}]},
                "'drift.family': the bmo check needs an explicit drift, not 'none'",
            ),
        ],
        ids=["lorentz", "comparison", "bmo"],
    )
    def test_verify_without_what_a_check_needs(
        self, tmp_path, capsys, monkeypatch, check, measure, message
    ):
        # checked with the knobs, before the checks ahead of it solve
        steps = spy_steps(monkeypatch)
        cfg = write_cfg(
            tmp_path, solve_raw(measure=measure, verification={"selection": ["potential", check]})
        )
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nldd verify: config field {message}"]
        assert steps == []
        assert not out.exists()

    def test_verify_with_an_unknown_check(self, tmp_path):
        cfg = write_cfg(tmp_path, solve_raw(verification={"selection": ["nope"]}))
        out = self.run_cli("verify", "--config", cfg, "--out", str(tmp_path / "reports"))
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "nldd verify: config field 'verification.selection[0]': must be one of potential, "
            "excess, holder, lorentz, comparison, bmo, got 'nope'"
        ]


class TestSnapshotCommand:
    def test_info_and_roundtrip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_raw())
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["snapshot", "info", str(out / "final.nldd")]) == 0
        assert "field snapshot: d = 2, n = 32" in capsys.readouterr().out
        assert main(["snapshot", "info", str(out / "trajectory.nldd")]) == 0
        assert "trajectory:" in capsys.readouterr().out
        for name in ("final.nldd", "trajectory.nldd"):
            dst = tmp_path / f"copy-{name}"
            assert main(["snapshot", "roundtrip", str(out / name), str(dst)]) == 0
            assert dst.read_bytes() == (out / name).read_bytes()

    def test_info_rejects_unknown_magic(self, tmp_path, capsys):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"ZZZZ" + b"\x00" * 64)
        assert main(["snapshot", "info", str(p)]) == 1
        assert "unrecognized magic" in capsys.readouterr().err
        assert main(["snapshot", "roundtrip", str(p), str(tmp_path / "copy.bin")]) == 1
        assert "roundtrip unsupported for magic b'ZZZZ'" in capsys.readouterr().err

    def test_unreadable_or_truncated_file_fails_on_one_line(self, tmp_path, capsys):
        cut = tmp_path / "cut.nldd"
        cut.write_bytes(b"NLDT" + struct.pack("<IH", 1 << 16, 1))  # cut in its count word
        missing = tmp_path / "missing.nldd"
        for path, message in ((cut, "truncated header"), (missing, "No such file")):
            for argv in (["info", str(path)], ["roundtrip", str(path), str(tmp_path / "copy")]):
                assert main(["snapshot", *argv]) == 1
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("nldd snapshot: ") and message in err[0]
        assert not (tmp_path / "copy").exists()
