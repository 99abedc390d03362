import csv
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from nldd import potentials, verify
from nldd.config import CHECK_SPECS, ConfigError, ExperimentConfig
from nldd.evolution import TrajectoryStore
from nldd.fields import ScalarField, ball_mask, make_grid
from nldd.measures import Cylinder, DensityTrack, MeasureData, SlantPath, cylinder_mass
from nldd.operators import KernelSpec
from nldd.potentials import SLANT_STEPS, TailOptions, excess, slant_ode, tail_time_lq
from nldd.reports import VerificationReport, write_csv
from nldd.verify import (
    _cylinder_oscillation,
    _placements,
    cylinder_lq_mean,
    fit_holder_exponent,
    run_campaign,
    run_experiment,
    verify_comparison,
    verify_excess_decay,
    verify_lorentz,
    verify_bmo_slanted,
    verify_potential_estimate,
)


RANDOM = {"kind": "random", "amplitude": 1.0, "decay": 2.5}


def base_raw(**extra):
    raw = {
        "grid": {"d": 2, "n": 32, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": RANDOM,
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


def spy_solves(monkeypatch) -> list:
    """The arguments of every solve a check starts, with or without SQG drift."""
    solves = []
    for name in ("solve", "solve_sqg"):
        monkeypatch.setattr(f"nldd.verify.{name}", lambda *a, **k: solves.append(a))
    return solves


def spy_runs(monkeypatch) -> list:
    """The solver settings of every solve evolution._run makes; each solve
    still runs."""
    from nldd import evolution

    runs, real = [], evolution._run

    def counted(u0, b, mu, config):
        runs.append(config)
        return real(u0, b, mu, config)

    monkeypatch.setattr(evolution, "_run", counted)
    return runs


ATOM_ONLY = {"atoms": [{"t": 0.4, "x": [4.0, 4.0], "mass": 0.5}]}


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

    @pytest.mark.parametrize(
        "drift", [{"family": "none"}, {"family": "shear", "amplitude": 0.5}, {"family": "sqg"}],
        ids=["none", "shear", "sqg"],
    )
    @pytest.mark.parametrize(
        "measure",
        [{"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": -0.5}]}, density_measure()],
        ids=["atom", "density"],
    )
    def test_zero_measure_scale_is_the_homogeneous_run(self, drift, measure):
        # the measure scaled by 0 forces nothing, so the run steps as the same
        # config with no measure section does, to the bit
        plain = run_experiment(ExperimentConfig(base_raw(drift=drift)))
        zero = run_experiment(
            ExperimentConfig(base_raw(drift=drift, measure=measure)), measure_scale=0.0
        )
        assert zero.traj.times == plain.traj.times
        for a, b in zip(zero.traj.snapshots, plain.traj.snapshots, strict=True):
            assert np.array_equal(a.values, b.values)

    def test_doubled_amplitude_doubles_the_run(self):
        # the solve is linear in its data, and initial.amplitude scales the
        # random data by a power of two, exactly
        one = run_experiment(ExperimentConfig(base_raw()))
        two = run_experiment(ExperimentConfig(base_raw(initial=dict(RANDOM, amplitude=2.0))))
        np.testing.assert_array_equal(
            two.traj.snapshots[-1].values, 2.0 * one.traj.snapshots[-1].values
        )


class TestSharedSolves:
    """run_experiment solves each distinct problem of a config object once."""

    def test_excess_calls_on_one_config_share_one_solve(self, monkeypatch):
        raw = base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0}, solver={"dt": 0.02, "t_end": 1.2}
        )
        runs = spy_runs(monkeypatch)
        cfg = ExperimentConfig(raw)
        reports = [verify_excess_decay(cfg, m_max=1, salt=salt) for salt in range(8)]
        assert len(runs) == 1
        # the shared solve gives what a fresh config's own solve gives
        fresh = verify_excess_decay(ExperimentConfig(raw), m_max=1, salt=7)
        assert len(runs) == 2 and fresh.extras == reports[-1].extras

    def test_a_new_seed_is_a_new_problem(self, monkeypatch):
        # without a measure, every measure scale is the same problem
        runs = spy_runs(monkeypatch)
        cfg = ExperimentConfig(base_raw())
        first = run_experiment(cfg)
        assert run_experiment(cfg, measure_scale=0.0) is first and len(runs) == 1
        cfg.raw["seed"] = 8
        second = run_experiment(cfg)
        assert len(runs) == 2
        assert not np.array_equal(first.traj.snapshots[0].values, second.traj.snapshots[0].values)

    @pytest.mark.parametrize("stride, solves", [(1, 1), (2, 2)])
    def test_comparison_stride_override_shares_only_an_equal_solve(
        self, monkeypatch, stride, solves
    ):
        # the comparison check solves at snapshot stride 1: the same problem
        # as the config's own solve only when the config's stride is 1
        runs = spy_runs(monkeypatch)
        cfg = ExperimentConfig(base_raw(
            measure=ATOM_ONLY, solver={"dt": 4e-3, "t_end": 1.0, "snapshot_stride": stride}
        ))
        verify_potential_estimate(cfg, num_placements=2)
        verify_comparison(cfg, num_cylinders=1, mass_factors=(1.0,))
        assert len(runs) == solves
        assert [run.snapshot_stride for run in runs] == [stride, 1][:solves]


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
        # (both configs share the seed, so they draw the same placements)
        cfg1 = ExperimentConfig(base_raw())
        cfg2 = ExperimentConfig(base_raw(initial=dict(RANDOM, amplitude=2.0)))
        r1 = verify_potential_estimate(cfg1, num_placements=4)
        r2 = verify_potential_estimate(cfg2, num_placements=4)
        assert r2.fitted_constant == pytest.approx(r1.fitted_constant, rel=1e-10)

    def test_rows_per_placement_in_q_order(self):
        cfg = ExperimentConfig(base_raw())
        rep = verify_potential_estimate(cfg, num_placements=2)
        assert [r.q for r in rep.rows] == [1.5, 2.0, 4.0] * 2

    def test_unresolved_placement_skipped(self):
        # with snapshots only at t = 0, 0.2 and 1, a cylinder ending at 1 and
        # shallower than 0.8 holds one snapshot: its placement gives no row
        cfg = ExperimentConfig(base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0}, solver={"dt": 0.02, "t_end": 1.0}
        ))
        exp = run_experiment(cfg)
        thin = TrajectoryStore(exp.grid)
        for t, u in zip(exp.traj.times, exp.traj.snapshots):
            if np.isclose(t, (0.0, 0.2, 1.0)).any():
                thin.append(u)
        exp = dataclasses.replace(exp, traj=thin)
        placements = _placements(exp, cfg.rng(1), 6)
        resolved = [
            (t0, R) for t0, _, R in placements
            if len(thin.window(Cylinder(t0, (0.0, 0.0), R, 0.5).t_start, t0)) >= 2
        ]
        assert 0 < len(resolved) < len(placements)
        rep = VerificationReport("potential-estimate")
        verify._potential_rows(rep, exp, (2.0,), placements)
        assert sorted({(r.t0, r.radius) for r in rep.rows}) == sorted(resolved)

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
        assert all(r.lhs <= r.rhs for r in rep.rows)

    def test_measure_term_is_active_with_the_atom_at_x0(self):
        # acceptance 06's forced run with its atom moved onto the check's own
        # centre, so every forced row's cylinder holds it
        raw = base_raw(
            grid={"d": 2, "n": 128, "domain_length": 8.0},
            solver={"dt": 4e-3, "t_end": 1.2},
            seed=1,
        )
        x0 = verify._grid_node(make_grid(2, 128, 8.0), ExperimentConfig(raw).rng(2))
        assert x0 == (6.4375, 0.625)
        raw["measure"] = {"atoms": [{"t": 0.9, "x": list(x0), "mass": 0.5}]}
        rep = verify_excess_decay(ExperimentConfig(raw), m_max=2)
        forced = rep.rows[3:]  # after the three homogeneous rows
        assert len(forced) == 3 and all(row.x0 == x0 for row in forced)
        assert all(row.rhs_terms[1] > 0.0 for row in forced)
        assert all(row.lhs <= row.rhs for row in forced)

    def test_each_tail_rule_is_built_once(self):
        # both runs take their excess radius by radius, so the second run at
        # each radius reuses the tail rule the first one built
        cfg = ExperimentConfig(
            base_raw(
                grid={"d": 2, "n": 64, "domain_length": 8.0},
                solver={"dt": 0.02, "t_end": 1.2},
                measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
            )
        )
        potentials._tail_nodes.cache_clear()
        rep = verify_excess_decay(cfg, m_max=1)
        info = potentials._tail_nodes.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        assert len(rep.rows) == 4 and len(rep.extras["excess_with_measure"]) == 2

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
        # the extras keep the slope under each capped exponent
        slopes = rep.extras["slopes"]
        assert rep.extras["alphas"] == [1.0 if slope >= 1.0 else slope for slope in slopes]
        assert rep.extras["num_capped"] == sum(slope >= 1.0 for slope in slopes)

    def test_zero_solution_yields_no_fit(self):
        cfg = ExperimentConfig(
            base_raw(
                grid={"d": 2, "n": 128, "domain_length": 8.0},
                initial={"kind": "zero"},
            )
        )
        rep = fit_holder_exponent(cfg, num_points=3)
        assert rep.extras["alphas"] == rep.extras["slopes"] == []
        assert rep.extras["num_capped"] == 0


    @pytest.mark.parametrize("slanted", [True, False])
    def test_rows_on_the_oscillation_cylinder(self, slanted):
        # lhs and right-hand side of a row share one cylinder, slanted or straight
        raw = base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0},
            drift={"family": "lacunary", "coefficients": [0.3] * 3},
            solver={"dt": 0.02, "t_end": 1.0},
        )
        cfg = ExperimentConfig(raw)
        rep = fit_holder_exponent(cfg, num_points=3, slanted=slanted)
        assert rep.extras["slanted"] is slanted and rep.rows
        exp = run_experiment(cfg, measure_scale=0.0)
        moved = []
        for row in rep.rows:
            Q = Cylinder(row.t0, row.x0, row.radius, 0.5)
            path = None
            if slanted:
                (path,) = slant_ode(exp.drift, [min(row.radius, 1.0)], x0=row.x0)
            (rhs1,) = cylinder_lq_mean(exp.traj, Q, (1.0,), path)
            (rhs2,) = tail_time_lq(exp.traj, Q, (2.0,), exp.kernel, exp.tail_options, slant=path)
            assert row.lhs == 0.5 * _cylinder_oscillation(exp.traj, Q, path)
            assert row.rhs_terms[:2] == (rhs1, rhs2)
            moved.append(rhs1 != cylinder_lq_mean(exp.traj, Q, (1.0,))[0])
        assert all(moved) if slanted else not any(moved)


    @pytest.mark.parametrize("family", ["none", "sqg"])
    def test_slanted_request_without_a_drift_rejected_before_any_solve(self, family, monkeypatch):
        raw = base_raw(
            drift={"family": family},
            verification={"params": {"holder": {"slanted": True}}},
        )
        solves = []
        monkeypatch.setattr("nldd.verify.run_experiment", lambda *a, **k: solves.append(a))
        with pytest.raises(ConfigError, match=r"'verification\.params\.holder\.slanted'"):
            verify.CHECKS["holder"](ExperimentConfig(raw))
        assert solves == []


class TestBmoSlantedCheck:
    @pytest.mark.parametrize("family", ["none", "sqg"])
    def test_needs_an_explicit_drift_before_any_solve(self, family, monkeypatch):
        solves = spy_solves(monkeypatch)
        raw = base_raw(drift={"family": family}, measure=ATOM_ONLY)
        message = f"config field 'drift.family': the bmo check needs an explicit drift, not {family!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            verify_bmo_slanted(ExperimentConfig(raw))
        assert solves == []

    def test_path_missing_the_slab_start_raises(self, monkeypatch):
        # a path that stops at rescaled time -0.5 fails the check instead of
        # dropping its placement
        import nldd.verify

        def short_paths(*args, **kwargs):
            half = slice(SLANT_STEPS // 2, None)
            return [
                SlantPath(p.r, p.times[half], p.samples[half], p.slopes[half], p.c1_norm)
                for p in slant_ode(*args, **kwargs)
            ]

        monkeypatch.setattr(nldd.verify, "slant_ode", short_paths)
        raw = base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0},
            drift={"family": "lacunary", "coefficients": [0.3] * 3},
            solver={"dt": 0.02, "t_end": 1.0},
        )
        with pytest.raises(ValueError, match=r"starts at rescaled time -0\.5, after -1"):
            verify_bmo_slanted(ExperimentConfig(raw), num_placements=2)


    def test_subcritical_rows_carry_the_bmo_ceiling(self):
        # at s > 1/2 the rows are straight potential-estimate rows, judged
        # against the BMO check's own ceiling
        raw = base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0},
            kernel={"s": 0.75},
            drift={"family": "lacunary", "coefficients": [0.3] * 5},
            measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
            solver={"dt": 0.02, "t_end": 1.0},
            seed=11,
            verification={"ceilings": {"potential-estimate": 1e-3, "bmo-slanted": 10}},
        )
        rep = verify_bmo_slanted(ExperimentConfig(raw))
        assert rep.extras["mode"] == "BMO, subcritical" and rep.rows
        assert rep.ceiling == 10
        assert 0.0 < rep.fitted_constant < 10 and rep.passed
        assert "path_norms" not in rep.extras

    @pytest.mark.parametrize("s", [0.5, 0.75])
    def test_no_resolved_placement_raises_at_every_s(self, s):
        # snapshots 50 steps apart resolve no placement's cylinder: the check
        # fails at s = 1/2 as it does at s > 1/2, instead of passing with 0 rows
        raw = base_raw(
            grid={"d": 2, "n": 64, "domain_length": 8.0},
            kernel={"s": s},
            drift={"family": "lacunary", "coefficients": [0.3] * 5},
            measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
            solver={"dt": 0.02, "t_end": 1.0, "snapshot_stride": 50},
            seed=11,
        )
        with pytest.raises(ValueError, match="no admissible placements"):
            verify_bmo_slanted(ExperimentConfig(raw))


class TestOneSlantIntegration:
    """Every slant path a slanted check needs comes from one slant_ode call."""

    RAW = dict(
        grid={"d": 2, "n": 64, "domain_length": 8.0},
        drift={"family": "lacunary", "coefficients": [0.3] * 3},
        measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
        solver={"dt": 0.02, "t_end": 1.0},
    )

    @staticmethod
    def spy(monkeypatch):
        import nldd.verify

        calls = []

        def counted(b, scales, *args, **kwargs):
            calls.append(len(scales))
            return slant_ode(b, scales, *args, **kwargs)

        monkeypatch.setattr(nldd.verify, "slant_ode", counted)
        return calls

    @pytest.mark.parametrize("num_placements", [1, 4])
    def test_bmo_check(self, monkeypatch, num_placements):
        calls = self.spy(monkeypatch)
        cfg = ExperimentConfig(base_raw(**self.RAW))
        rep = verify_bmo_slanted(cfg, num_placements=num_placements)
        assert rep.rows and len(rep.extras["path_norms"]) == 3
        # the three fitted paths, then per placement its cylinder's and its potential's
        assert len(calls) == 1 and calls[0] > 3 + 2 * num_placements

    def test_slanted_holder_check(self, monkeypatch):
        calls = self.spy(monkeypatch)
        cfg = ExperimentConfig(base_raw(**self.RAW))
        rep = fit_holder_exponent(cfg, num_points=3, slanted=True)
        assert rep.extras["slanted"] and rep.rows
        assert len(calls) == 1 and calls[0] % 3 == 0


class TestLorentzCheck:
    def test_needs_density(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        for raw in (base_raw(), base_raw(measure=ATOM_ONLY)):
            message = "config field 'measure.density': the lorentz check needs a density measure"
            with pytest.raises(ConfigError, match=re.escape(message)):
                verify_lorentz(ExperimentConfig(raw), p=1.2, sigma=np.inf)
        assert solves == []  # rejected before any solve

    def test_reports_target_exponent(self):
        cfg = ExperimentConfig(base_raw(measure=density_measure()))
        rep = verify_lorentz(cfg, p=1.2, sigma=np.inf)
        assert rep.extras["target_exponent"] == 2.0
        assert rep.rows[0].lhs >= 0.0
        assert rep.rows[0].rhs > 0.0

    @pytest.mark.parametrize("support", [(0.0, 1.0), (0.25, 0.6)])
    @pytest.mark.parametrize("sigma", [np.inf, 2.0])
    def test_mu_norm_of_a_uniform_density_is_closed_form(self, support, sigma):
        # c on [t_start, t_end] puts c on each of the window's M ball nodes
        # with measure cell * span, so ||mu||_{p,inf} = c (M cell span)^(1/p);
        # for finite sigma the step sum telescopes to that times (p/sigma)^(1/sigma)
        t_start, t_end = support
        level, p = 0.5, 1.2
        raw = base_raw(
            measure={"density": {"kind": "uniform", "level": level,
                                 "t_start": t_start, "t_end": t_end}},
            solver={"dt": 0.02, "t_end": 1.0},
        )
        rep = verify_lorentz(ExperimentConfig(raw), p=p, sigma=sigma)
        g = make_grid(2, 32, 8.0)
        nodes = ball_mask(g, (4.0, 4.0), 2.0).sum()
        want = level * (nodes * g.cell_volume * (t_end - t_start)) ** (1.0 / p)
        if np.isfinite(sigma):
            want *= (p / sigma) ** (1.0 / sigma)
        assert rep.extras["mu_quasi_norm"] == pytest.approx(want, rel=1e-12)
        assert rep.rows[0].rhs_terms[0] == rep.extras["mu_quasi_norm"]

    def test_p_range_guard(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        cfg = ExperimentConfig(base_raw(measure=density_measure()))
        with pytest.raises(ValueError, match="p must"):
            verify_lorentz(cfg, p=5.0, sigma=2.0)
        assert solves == []


class TestComparisonCheck:
    def test_needs_atoms(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        for raw in (base_raw(), base_raw(measure=density_measure())):
            message = "config field 'measure.atoms': the comparison check needs an atomic measure"
            with pytest.raises(ConfigError, match=re.escape(message)):
                verify_comparison(ExperimentConfig(raw))
        assert solves == []  # rejected before any solve

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


@pytest.mark.parametrize(
    "check, knob, value, message",
    [
        ("excess", "m_max", 0, "m_max must be at least 1, got 0"),
        ("excess", "m_max", -1, "m_max must be at least 1, got -1"),
        ("lorentz", "p", 1.0, "p must lie in (1, (d+2s)/(2s)) = (1, 3), got 1.0"),
        ("lorentz", "p", 3.0, "p must lie in (1, (d+2s)/(2s)) = (1, 3), got 3.0"),
        ("lorentz", "sigma", -2.0, "sigma must be positive, got -2.0"),
        ("lorentz", "sigma", 0.0, "sigma must be positive, got 0.0"),
        ("bmo", "c0", -1.0, "c0 must be >= 0, got -1.0"),
    ],
    ids=[
        "excess.m_max-zero", "excess.m_max-negative", "lorentz.p-at-1", "lorentz.p-at-max",
        "lorentz.sigma-negative", "lorentz.sigma-zero", "bmo.c0-negative",
    ],
)
def test_bad_check_knob_fails_at_its_field_before_any_solve(monkeypatch, check, knob, value, message):
    solves = []
    monkeypatch.setattr("nldd.verify.solve", lambda *a, **k: solves.append(a))
    cfg = ExperimentConfig(base_raw(
        drift={"family": "shear"},
        measure={**density_measure(), "atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
        verification={"params": {check: {knob: value}}},
    ))
    path = f"verification.params.{check}.{knob}"
    with pytest.raises(ConfigError, match=re.escape(f"config field '{path}': {message}")):
        verify.CHECKS[check](cfg)
    assert solves == []


@pytest.mark.parametrize(
    "check, s, params, path, message",
    [
        (
            "holder", 0.75, {"slanted": True}, "verification.params.holder.slanted",
            "slanted rows need s = 1/2, got s = 0.75",
        ),
        (
            "bmo", 0.25, {}, "kernel.s",
            "the bmo check needs s >= 1/2, below which a BMO drift is supercritical; got s = 0.25",
        ),
    ],
    ids=["holder-slanted-off-one-half", "bmo-below-one-half"],
)
@pytest.mark.parametrize("through", ["check", "campaign"])
def test_a_check_refuses_an_s_it_has_no_estimate_for(
    tmp_path, monkeypatch, through, check, s, params, path, message
):
    # slanted Hölder rows exist at s = 1/2 only, and below s = 1/2 a BMO
    # drift is supercritical: each is refused at its field before any solve
    import yaml

    solves = spy_solves(monkeypatch)
    raw = base_raw(
        kernel={"s": s}, drift={"family": "shear"}, measure=ATOM_ONLY,
        verification={"selection": [check], "params": {check: params}},
    )
    with pytest.raises(ConfigError, match=re.escape(f"config field '{path}': {message}")):
        if through == "check":
            verify.CHECKS[check](ExperimentConfig(raw))
        else:
            (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
            run_campaign(tmp_path / "cfg.yaml", tmp_path / "out")
    assert solves == [] and not (tmp_path / "out").exists()


class TestCampaign:
    def _write(self, tmp_path, raw):
        import yaml

        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(raw))
        return p

    def test_unknown_check_rejected(self, tmp_path):
        raw = base_raw(verification={"selection": ["spectral-gap"]})
        with pytest.raises(ConfigError, match=r"'verification\.selection\[0\]': must be one of"):
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

    def test_check_error_returns_two(self, tmp_path, monkeypatch):
        # a check that fails as it runs; the failure is recorded
        def fails(*args):
            raise FloatingPointError("the quasi-norm overflowed")

        monkeypatch.setattr("nldd.verify.lorentz_quasi_norm", fails)
        raw = base_raw(measure=density_measure(), verification={"selection": ["lorentz"]})
        code = run_campaign(self._write(tmp_path, raw), tmp_path / "out")
        assert code == 2
        with open(tmp_path / "out" / "report.json") as fh:
            sidecar = json.load(fh)
        assert "lorentz" in sidecar["errors"]
        error = sidecar["errors"]["lorentz"]
        assert error == "FloatingPointError: the quasi-norm overflowed"
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

    @pytest.mark.parametrize(
        "verification, path",
        [
            ({"ceilings": None}, "verification.ceilings"),
            ({"ceilings": [1.0]}, "verification.ceilings"),
            ({"params": None}, "verification.params"),
            ({"params": {"lorentz": 1.2}}, "verification.params.lorentz"),
            ({"params": {"lorentz": None}}, "verification.params.lorentz"),
        ],
        ids=["null-ceilings", "list-ceilings", "null-params", "scalar-check", "null-check"],
    )
    def test_bad_sub_section_raises_before_any_solve(
        self, tmp_path, monkeypatch, verification, path
    ):
        solves = []
        monkeypatch.setattr("nldd.verify.run_experiment", lambda *a, **k: solves.append(a))
        raw = base_raw(
            measure=density_measure(), verification={"selection": ["lorentz"], **verification}
        )
        with pytest.raises(ConfigError, match=rf"config field '{path}': "):
            run_campaign(self._write(tmp_path, raw), tmp_path / "out")
        assert solves == [] and not (tmp_path / "out").exists()

    def test_checks_match_the_config_schema(self):
        # verify dispatches every check the config declares, and no other
        assert list(verify.CHECKS) == list(CHECK_SPECS)

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
    mu.density = DensityTrack(grid, 0.0, 1.0, np.abs(rng.standard_normal(grid.shape)))
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


def _per_snapshot_balls(traj, Q, path):
    """The window's times and each snapshot's values in its own ball, one mask
    per snapshot: the reference for the stacked ``Cylinder.ball_values``."""
    idx, times, _, _ = Q.window(traj, path)
    masks = [ball_mask(traj.grid, c, Q.r) for c in Q.centers(times, path)]
    return times, [traj.snapshots[i].values[m] for i, m in zip(idx, masks)]


def _lq_mean_per_snapshot(traj, Q, path, qs=(1.0, 1.5, 2.0, 4.0)):
    """cylinder_lq_mean as one pass per snapshot and q."""
    times, values = _per_snapshot_balls(traj, Q, path)
    span = times[-1] - times[0]
    return np.array([
        (np.trapezoid([(np.abs(v) ** q).mean() for v in values], times) / span) ** (1.0 / q)
        for q in qs
    ])


def _oscillation_per_snapshot(traj, Q, path):
    _, values = _per_snapshot_balls(traj, Q, path)
    return max(v.max() for v in values) - min(v.min() for v in values)


def _excess_interior_per_snapshot(traj, Q, path, q=2.0):
    times, values = _per_snapshot_balls(traj, Q, path)
    span = times[-1] - times[0]
    mean_Q = float(np.trapezoid([v.mean() for v in values], times) / span)
    osc = np.array([np.abs(v - mean_Q).mean() for v in values])
    return float((np.trapezoid(osc**q, times) / span) ** (1.0 / q))


# each reader of the stacked ball values and its per-snapshot reference
BALL_VALUE_READERS = {
    "cylinder_lq_mean": (
        lambda traj, Q, path: cylinder_lq_mean(traj, Q, (1.0, 1.5, 2.0, 4.0), path),
        _lq_mean_per_snapshot,
    ),
    "holder_oscillation": (_cylinder_oscillation, _oscillation_per_snapshot),
    "excess_interior": (
        lambda traj, Q, path: excess(traj, Q.t0, Q.x0, Q.r, 2.0, KERN, OPTS, slant=path).interior,
        _excess_interior_per_snapshot,
    ),
}


def _wide_traj(seed):
    """41 snapshots on [0, 2] whose values spread over eight decades, so that
    a sum taken in another order moves the last bits of a mean."""
    g = make_grid(2, 32, 8.0)
    rng = np.random.default_rng(seed)
    base, drift = rng.standard_normal((2, *g.shape)) * 10.0 ** rng.uniform(-4, 4, (2, *g.shape))
    traj = TrajectoryStore(g)
    for t in np.linspace(0.0, 2.0, 41):
        traj.append(ScalarField(g, base + t * drift, t))
    return traj


@pytest.mark.parametrize("slanted", [False, True])
@pytest.mark.parametrize("reader", sorted(BALL_VALUE_READERS))
def test_stacked_ball_values_match_per_snapshot_balls(reader, slanted):
    # windows of 15 and 37 rows, with balls of 22 to 27 and 160 to 166
    # nodes: past the 8 terms and the 128-term blocks of numpy's pairwise sums
    stacked, reference = BALL_VALUE_READERS[reader]
    for traj, (Q, rows, nodes) in itertools.product(
        map(_wide_traj, range(10)),
        (
            (Cylinder(0.95, (3.3, 4.1), 0.7, 0.5), 15, 8),
            (Cylinder(1.95, (3.3, 4.1), 1.8, 0.5), 37, 128),
        ),
    ):
        path = None
        if slanted:  # every snapshot of the window gets a centre of its own
            ts = np.linspace(-1.0, 0.0, 9)
            path = SlantPath(Q.r, ts, np.outer(ts, (0.9, -0.4)), np.tile((0.9, -0.4), (9, 1)), 1.0)
        times, blocks = Q.ball_values(traj, path)
        assert times.size == rows and len(blocks) == (rows if slanted else 1)
        assert min(values.shape[1] for _, values in blocks) > nodes
        np.testing.assert_array_equal(stacked(traj, Q, path), reference(traj, Q, path))


class TestCylinderGeometry:
    @pytest.mark.parametrize("site", sorted(CYLINDER_SITES))
    def test_zero_path_matches_straight(self, site):
        traj = _random_traj(np.linspace(0.0, 1.0, 11))
        Q = Cylinder(0.95, (3.3, 4.1), 0.7, 0.5)
        straight = CYLINDER_SITES[site](traj, Q, None)
        zero_path = SlantPath(Q.r, [-1.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        zero = CYLINDER_SITES[site](traj, Q, zero_path)
        np.testing.assert_array_equal(zero, straight)

    @pytest.mark.parametrize("site", sorted(CYLINDER_SITES))
    def test_path_must_reach_the_slab_start(self, site):
        traj = _random_traj(np.linspace(0.0, 1.0, 11))
        Q = Cylinder(0.95, (3.3, 4.1), 0.7, 0.5)
        short = SlantPath(0.7, np.linspace(-0.5, 0.0, 3), np.zeros((3, 2)), np.zeros((3, 2)), 0.0)
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
