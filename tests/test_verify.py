import csv
import json

import numpy as np
import pytest

from nldd.config import ConfigError, ExperimentConfig
from nldd.evolution import TrajectoryStore
from nldd.fields import ScalarField, make_grid
from nldd.measures import Cylinder, DensityTrack, MeasureData, SlantPath, cylinder_mass
from nldd.operators import KernelSpec
from nldd.potentials import TailOptions, excess, tail_time_lq
from nldd.reports import write_csv
from nldd.verify import (
    _cylinder_oscillation,
    cylinder_lq_mean,
    fit_holder_exponent,
    run_campaign,
    run_experiment,
    verify_comparison,
    verify_excess_decay,
    verify_lorentz,
    verify_potential_estimate,
)


def base_raw(**extra):
    raw = {
        "grid": {"d": 2, "n": 32, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": {"kind": "random", "amplitude": 1.0, "decay": 2.5},
        "solver": {"dt": 4e-3, "t_end": 1.0},
        "seed": 7,
    }
    raw.update(extra)
    return raw


def density_measure():
    return {
        "density": {
            "kind": "uniform", "level": 0.5, "t_start": 0.0, "t_end": 1.0,
        }
    }


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(ExperimentConfig(base_raw()))
        b = run_experiment(ExperimentConfig(base_raw()))
        assert np.array_equal(
            a.traj.snapshots[-1].values, b.traj.snapshots[-1].values
        )

    def test_measure_gets_default_mollification(self):
        raw = base_raw(
            measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]}
        )
        exp = run_experiment(ExperimentConfig(raw))
        assert exp.solver.h_moll == pytest.approx(2.0 * exp.grid.spacing)

    def test_initial_scale(self):
        one = run_experiment(ExperimentConfig(base_raw()))
        two = run_experiment(ExperimentConfig(base_raw()), initial_scale=2.0)
        np.testing.assert_array_equal(
            two.traj.snapshots[-1].values, 2.0 * one.traj.snapshots[-1].values
        )


class TestPotentialCheck:
    def test_rows_and_finiteness(self):
        cfg = ExperimentConfig(base_raw())
        rep = verify_potential_estimate(cfg, num_placements=4)
        assert len(rep.rows) > 0
        for row in rep.rows:
            assert np.isfinite(row.lhs)
            assert np.isfinite(row.rhs)
            assert row.rhs > 0

    def test_fitted_constant_scale_invariant(self):
        # the estimate is linear: rescaling the data cannot change the fit
        cfg = ExperimentConfig(base_raw())
        exp1 = run_experiment(cfg)
        exp2 = run_experiment(cfg, initial_scale=2.0)
        r1 = verify_potential_estimate(cfg, exp=exp1, num_placements=4)
        r2 = verify_potential_estimate(cfg, exp=exp2, num_placements=4)
        assert r2.fitted_constant == pytest.approx(r1.fitted_constant, rel=1e-10)

    def test_rows_per_placement_in_q_order(self):
        cfg = ExperimentConfig(base_raw())
        rep = verify_potential_estimate(cfg, num_placements=2)
        assert [r.q for r in rep.rows] == [1.5, 2.0, 4.0] * 2

    def test_q_at_most_one_rejected(self):
        # checked before the solve, naming the offending value
        with pytest.raises(ValueError, match=r"requires q > 1, got 1\.0$"):
            verify_potential_estimate(ExperimentConfig(base_raw()), qs=(2.0, 1.0))


class TestExcessCheck:
    def test_decay_fit(self):
        cfg = ExperimentConfig(
            base_raw(
                grid={"d": 2, "n": 128, "domain_length": 8.0},
                solver={"dt": 4e-3, "t_end": 1.2},
            )
        )
        rep = verify_excess_decay(cfg, m_max=2)
        assert rep.extras["alpha"] > 0.0
        assert all(r.passed for r in rep.rows)

    def test_vacuous_for_zero_data(self):
        cfg = ExperimentConfig(
            base_raw(
                grid={"d": 2, "n": 128, "domain_length": 8.0},
                initial={"kind": "zero"},
                solver={"dt": 4e-3, "t_end": 1.2},
            )
        )
        rep = verify_excess_decay(cfg, m_max=2)
        assert rep.extras.get("vacuous")

    def test_insufficient_scales_raises(self):
        raw = base_raw(grid={"d": 2, "n": 16, "domain_length": 8.0})
        with pytest.raises(ValueError, match="scale separation"):
            verify_excess_decay(ExperimentConfig(raw), m_max=4)


class TestHolderCheck:
    def test_alphas_in_range(self):
        cfg = ExperimentConfig(
            base_raw(grid={"d": 2, "n": 128, "domain_length": 8.0})
        )
        rep = fit_holder_exponent(cfg, num_points=4)
        assert rep.extras["alphas"]
        assert all(0.0 < a <= 1.0 for a in rep.extras["alphas"])

    def test_zero_solution_yields_no_fit(self):
        cfg = ExperimentConfig(
            base_raw(
                grid={"d": 2, "n": 128, "domain_length": 8.0},
                initial={"kind": "zero"},
            )
        )
        rep = fit_holder_exponent(cfg, num_points=3)
        assert rep.extras["alphas"] == []


class TestLorentzCheck:
    def test_needs_density(self):
        with pytest.raises(ValueError, match="density"):
            verify_lorentz(ExperimentConfig(base_raw()), p=1.2, sigma=np.inf)

    def test_reports_target_exponent(self):
        cfg = ExperimentConfig(base_raw(measure=density_measure()))
        rep = verify_lorentz(cfg, p=1.2, sigma=np.inf)
        assert rep.extras["target_exponent"] == 2.0
        assert rep.rows[0].lhs >= 0.0
        assert rep.rows[0].rhs > 0.0

    def test_p_range_guard(self):
        cfg = ExperimentConfig(base_raw(measure=density_measure()))
        with pytest.raises(ValueError, match="p must"):
            verify_lorentz(cfg, p=5.0, sigma=2.0)


class TestComparisonCheck:
    def test_needs_atoms(self):
        with pytest.raises(ValueError, match="atomic"):
            verify_comparison(ExperimentConfig(base_raw()))

    def test_linearity_in_the_measure(self):
        raw = base_raw(
            measure={"atoms": [{"t": 0.4, "x": [4.0, 4.0], "mass": 0.5}]}
        )
        rep = verify_comparison(
            ExperimentConfig(raw), num_cylinders=2, mass_factors=(1.0, 2.0)
        )
        ratios = rep.extras["linearity_ratios"]
        assert ratios
        for per_factor in ratios.values():
            for val in per_factor.values():
                assert val == pytest.approx(1.0, rel=0.05)


class TestCampaign:
    def _write(self, tmp_path, raw):
        import yaml

        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(raw))
        return p

    def test_unknown_check_rejected(self, tmp_path):
        raw = base_raw(verification={"selection": ["spectral-gap"]})
        with pytest.raises(ConfigError, match="unknown check"):
            run_campaign(self._write(tmp_path, raw), tmp_path / "out")

    def test_passing_campaign_writes_artifacts(self, tmp_path):
        raw = base_raw(
            measure=density_measure(),
            verification={"selection": ["lorentz"],
                          "params": {"lorentz": {"p": 1.2, "sigma": np.inf}}},
        )
        code = run_campaign(self._write(tmp_path, raw), tmp_path / "out")
        assert code == 0
        with open(tmp_path / "out" / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "lorentz-exponent"
        with open(tmp_path / "out" / "report.json") as fh:
            sidecar = json.load(fh)
        assert sidecar["checks"]["lorentz-exponent"]["passed"]
        assert sidecar["errors"] == {}

    def test_check_error_returns_two(self, tmp_path):
        # lorentz without a density cannot run; the failure is recorded
        raw = base_raw(verification={"selection": ["lorentz"]})
        code = run_campaign(self._write(tmp_path, raw), tmp_path / "out")
        assert code == 2
        with open(tmp_path / "out" / "report.json") as fh:
            sidecar = json.load(fh)
        assert "lorentz" in sidecar["errors"]
        error = sidecar["errors"]["lorentz"]
        assert error == "ValueError: the Lorentz check needs a density measure"
        trace = sidecar["tracebacks"]["lorentz"]
        assert trace.startswith("Traceback")
        assert "in verify_lorentz" in trace
        assert trace.rstrip().endswith(error)
        # the failure goes to the sidecar only: the CSV body is the bare header
        with open(tmp_path / "out" / "report.csv") as fh:
            assert fh.read() == write_csv([], tmp_path / "empty.csv")

    def test_ceiling_failure_returns_one(self, tmp_path):
        raw = base_raw(
            measure=density_measure(),
            verification={"selection": ["lorentz"],
                          "ceilings": {"lorentz-exponent": 1e-12}},
        )
        code = run_campaign(self._write(tmp_path, raw), tmp_path / "out")
        assert code == 1

    def test_csv_body_deterministic(self, tmp_path):
        raw = base_raw(
            measure=density_measure(),
            verification={"selection": ["lorentz"]},
        )
        p = self._write(tmp_path, raw)
        run_campaign(p, tmp_path / "a")
        run_campaign(p, tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()


def _random_traj(times):
    g = make_grid(2, 32, 8.0)
    rng = np.random.default_rng(12)
    base, drift = rng.standard_normal((2, *g.shape))
    traj = TrajectoryStore(g)
    for t in times:
        traj.append(ScalarField(g, base + t * drift, t))
    return traj


def _atoms_and_density(grid):
    mu = MeasureData.from_atoms(
        [(0.5, (3.5, 4.0), 1.0), (0.4, (3.0, 4.4), -2.0), (0.9, (3.6, 3.8), 0.5)],
        domain_length=8.0,
    )
    rng = np.random.default_rng(13)
    mu.density = DensityTrack(
        grid, np.linspace(0.0, 1.0, 5), [np.abs(rng.standard_normal(grid.shape)) for _ in range(5)]
    )
    return mu


KERN, OPTS = KernelSpec(s=0.5), TailOptions(4.0)


def _excess_parts(traj, Q, path):
    rep = excess(traj, Q.t0, Q.x0, Q.r, 2.0, KERN, OPTS, slant=path)
    return rep.interior, rep.tail_part


# Each cylinder site as a function of (trajectory, cylinder, path).
CYLINDER_SITES = {
    "cylinder_mass": lambda traj, Q, path: cylinder_mass(_atoms_and_density(traj.grid), Q, path),
    "cylinder_lq_mean": lambda traj, Q, path: cylinder_lq_mean(traj, Q, (1.5, 2.0, 4.0), path),
    "tail_time_lq": lambda traj, Q, path: tail_time_lq(
        traj, Q, (1.5, 2.0), KERN, OPTS, offset=0.3, slant=path
    ),
    "excess": _excess_parts,
    "holder_oscillation": _cylinder_oscillation,
}
WINDOW_SITES = [name for name in CYLINDER_SITES if name != "cylinder_mass"]


class TestCylinderGeometry:
    @pytest.mark.parametrize("site", sorted(CYLINDER_SITES))
    def test_zero_path_matches_straight(self, site):
        traj = _random_traj(np.linspace(0.0, 1.0, 11))
        Q = Cylinder(0.95, (3.3, 4.1), 0.7, 0.5)
        straight = CYLINDER_SITES[site](traj, Q, None)
        zero = CYLINDER_SITES[site](traj, Q, SlantPath.zero(Q.r))
        np.testing.assert_array_equal(zero, straight)

    @pytest.mark.parametrize("site", sorted(CYLINDER_SITES))
    def test_path_must_reach_the_slab_start(self, site):
        traj = _random_traj(np.linspace(0.0, 1.0, 11))
        Q = Cylinder(0.95, (3.3, 4.1), 0.7, 0.5)
        short = SlantPath(0.7, np.linspace(-0.5, 0.0, 3), np.zeros((3, 2)), 0.0)
        with pytest.raises(
            ValueError, match=r"starts at rescaled time -0\.5, after -1.* t0 = 0\.95, r = 0\.7$"
        ):
            CYLINDER_SITES[site](traj, Q, short)

    @pytest.mark.parametrize("site", WINDOW_SITES)
    def test_window_needs_two_snapshots(self, site):
        traj = _random_traj((0.0, 0.5, 1.0))
        Q = Cylinder(1.0, (3.3, 4.1), 0.2, 0.5)  # slab [0.8, 1] holds one snapshot
        with pytest.raises(
            ValueError, match=r"cylinder at t0 = 1, r = 0\.2 holds 1 snapshot\(s\); at least two"
        ):
            CYLINDER_SITES[site](traj, Q, None)
