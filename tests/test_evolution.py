import numpy as np
import pytest

from nldd.config import shear_drift
from nldd.evolution import (
    CFLError,
    SolverConfig,
    TrajectoryStore,
    comparison_solve,
    measure_forcing,
    solve,
    solve_sqg,
)
from nldd.fields import (
    ScalarField,
    VectorField,
    forward,
    grid_coordinates,
    make_grid,
)
from nldd.measures import Cylinder, DensityTrack, MeasureData
from nldd.operators import KernelSpec


def eigenmode(grid, wavenumber=1, axis=0, amplitude=1.0):
    xs = grid_coordinates(grid)
    base = 2.0 * np.pi / grid.domain_length
    return ScalarField(grid, amplitude * np.sin(base * wavenumber * xs[axis]), 0.0)


class TestConfigValidation:
    def test_rejects_bad_steps(self):
        k = KernelSpec(s=0.5)
        with pytest.raises(ValueError):
            SolverConfig(kernel=k, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(kernel=k, dt=0.1, t_end=1.0, drift_mode="spiral")
        with pytest.raises(ValueError):
            SolverConfig(kernel=k, dt=0.1, t_end=1.0, snapshot_stride=0)

    def test_t_end_must_be_integer_steps(self):
        g = make_grid(2, 16, 2 * np.pi)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="integer"):
            solve(eigenmode(g), None, None, cfg)


class TestTrajectoryStore:
    def test_ordering_and_lookup(self):
        g = make_grid(2, 8, 1.0)
        store = TrajectoryStore(g)
        for t in (0.0, 0.5, 1.0):
            store.append(ScalarField(g, np.zeros(g.shape), t))
        assert store.index_at(0.6) == 1
        assert store.window(0.4, 1.1) == [1, 2]
        assert store.window(0.0, 1.0, closed=False) == [1]
        with pytest.raises(ValueError, match="increasing"):
            store.append(ScalarField(g, np.zeros(g.shape), 0.25))


class TestPureDiffusion:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_eigenmode_decay_exact(self, s):
        # diffusion is integrated exactly: e^(-|k|^(2s) t) on each mode
        g = make_grid(2, 32, 2 * np.pi)
        u0 = eigenmode(g, wavenumber=2)
        cfg = SolverConfig(kernel=KernelSpec(s=s), dt=0.05, t_end=1.0)
        traj = solve(u0, None, None, cfg)
        decay = np.exp(-(2.0 ** (2 * s)) * 1.0)
        np.testing.assert_allclose(
            traj.snapshots[-1].values, decay * u0.values, atol=1e-12
        )

    def test_lambda_is_a_class_bound_not_a_rate(self):
        # lam bounds the admissible kernel class; the dissipation rate is fixed
        g = make_grid(2, 32, 2 * np.pi)
        u0 = eigenmode(g)
        for lam in (1.0, 2.0):
            cfg = SolverConfig(kernel=KernelSpec(s=0.5, lam=lam), dt=0.1, t_end=1.0)
            traj = solve(u0, None, None, cfg)
            np.testing.assert_allclose(
                traj.snapshots[-1].values, np.exp(-1.0) * u0.values, atol=1e-12
            )

    def test_mean_is_conserved(self):
        g = make_grid(2, 32, 2 * np.pi)
        rng = np.random.default_rng(0)
        u0 = ScalarField(g, 1.5 + rng.standard_normal(g.shape))
        b = shear_drift(g, amplitude=1.0)
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.5, drift_mode="given"
        )
        traj = solve(u0, b, None, cfg)
        assert traj.snapshots[-1].mean() == pytest.approx(u0.mean(), abs=1e-12)


class TestDrift:
    def test_cfl_violation_raises(self):
        g = make_grid(2, 32, 2 * np.pi)
        b = shear_drift(g, amplitude=50.0)
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.05, t_end=0.5, drift_mode="given"
        )
        with pytest.raises(CFLError) as err:
            solve(eigenmode(g), b, None, cfg)
        assert err.value.admissible < 0.05

    def test_constant_drift_translates(self):
        # pure advection with b = (1, 0): u(x, t) = u0(x - t e1)
        g = make_grid(2, 64, 2 * np.pi)
        u0 = eigenmode(g, wavenumber=3)
        b = VectorField(
            (
                ScalarField(g, np.ones(g.shape)),
                ScalarField(g, np.zeros(g.shape)),
            ),
            divergence_free=True,
        )
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5),
            dt=0.01,
            t_end=0.5,
            drift_mode="given",
            diffusion_off=True,
        )
        traj = solve(u0, b, None, cfg)
        xs = grid_coordinates(g)
        expected = np.sin(3 * (xs[0] - 0.5))
        # second-order phase error: (k b dt)^3 / 6 per step
        np.testing.assert_allclose(
            traj.snapshots[-1].values, expected, atol=5e-4
        )

    def test_non_divergence_free_rejected_without_projection(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        bad = VectorField(
            (ScalarField(g, np.cos(xs[0])), ScalarField(g, np.zeros(g.shape)))
        )
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.1, drift_mode="given"
        )
        with pytest.raises(ValueError, match="divergence"):
            solve(eigenmode(g), bad, None, cfg)
        # with Leray projection the same input is accepted
        solve(eigenmode(g), bad, None, cfg, project_drift=True)

    def test_fixed_drift_checked_once_per_solve(self, monkeypatch):
        g = make_grid(2, 16, 2 * np.pi)
        calls = []
        check = VectorField.spectral_divergence_max
        monkeypatch.setattr(
            VectorField, "spectral_divergence_max", lambda b: calls.append(1) or check(b)
        )
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="given")
        solve(eigenmode(g), shear_drift(g), None, cfg)
        assert len(calls) == 1

    def test_snapshot_stride(self):
        g = make_grid(2, 16, 2 * np.pi)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0, snapshot_stride=5)
        traj = solve(eigenmode(g), None, None, cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])


class TestMeasureForcing:
    def test_atom_mass_is_exact(self):
        g = make_grid(2, 32, 4.0)
        mu = MeasureData.from_atoms([(0.55, (2.0, 2.0), 3.0)], domain_length=4.0)
        dt = 0.1
        f = measure_forcing(mu, 0.5, dt, g, h_moll=2 * g.spacing)
        assert f.values.sum() * g.cell_volume * dt == pytest.approx(3.0, rel=1e-12)
        # outside the slab: nothing
        f2 = measure_forcing(mu, 0.7, dt, g, h_moll=2 * g.spacing)
        assert np.all(f2.values == 0.0)

    def test_requires_resolved_mollifier(self):
        g = make_grid(2, 32, 4.0)
        mu = MeasureData.from_atoms([(0.55, (2.0, 2.0), 3.0)], domain_length=4.0)
        with pytest.raises(ValueError, match="mollification"):
            measure_forcing(mu, 0.5, 0.1, g, h_moll=0.0)

    def test_density_forcing_injects_mass(self):
        g = make_grid(2, 32, 4.0)
        track = DensityTrack(g, [0.0, 1.0], [np.ones(g.shape)] * 2)
        mu = MeasureData(density=track)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.05, t_end=1.0)
        traj = solve(ScalarField(g, np.zeros(g.shape)), None, mu, cfg)
        # mean grows at rate 1 (uniform unit density)
        assert traj.snapshots[-1].mean() == pytest.approx(1.0, rel=1e-6)

    def test_solution_linear_in_data(self):
        g = make_grid(2, 32, 4.0)
        mu = MeasureData.from_atoms([(0.2, (2.0, 2.0), 1.0)], domain_length=4.0)
        u0 = eigenmode(g)
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.05, t_end=0.5, h_moll=2 * g.spacing
        )
        base = solve(u0, None, mu, cfg).snapshots[-1].values
        doubled = solve(
            u0.with_values(2.0 * u0.values), None, mu.scaled(2.0), cfg
        ).snapshots[-1].values
        np.testing.assert_array_equal(doubled, 2.0 * base)


class TestComparison:
    def test_no_measure_gives_matching_companion(self):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(1)
        u0 = ScalarField(g, rng.standard_normal(g.shape))
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.05, t_end=1.0)
        traj = solve(u0, None, None, cfg)
        Q = Cylinder(t0=1.0, x0=(4.0, 4.0), r=0.8, s=0.5)
        pair = comparison_solve(traj, None, None, Q, cfg)
        diff = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(pair.u_traj.snapshots, pair.v_traj.snapshots)
        )
        assert diff < 1e-10

    def test_radius_cap(self):
        g = make_grid(2, 16, 8.0)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0)
        traj = solve(ScalarField(g, np.zeros(g.shape)), None, None, cfg)
        with pytest.raises(ValueError, match="L/8"):
            comparison_solve(traj, None, None, Cylinder(1.0, (4.0, 4.0), 2.0, 0.5), cfg)


class TestSqg:
    def test_smoke_and_mean(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        u0 = ScalarField(g, np.sin(xs[0]) + 0.3 * np.cos(2 * xs[1]))
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="sqg"
        )
        traj = solve_sqg(u0, None, cfg)
        final = traj.snapshots[-1]
        assert np.all(np.isfinite(final.values))
        assert final.mean() == pytest.approx(u0.mean(), abs=1e-12)
        # dissipation: energy decreases
        assert (final.values**2).sum() < (u0.values**2).sum()

    def test_mode_guards(self):
        g = make_grid(2, 16, 2 * np.pi)
        u0 = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            solve_sqg(u0, None, SolverConfig(kernel=KernelSpec(s=0.75), dt=0.1, t_end=0.1, drift_mode="sqg"))
        with pytest.raises(ValueError):
            solve_sqg(u0, None, SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=0.1))
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=0.1, drift_mode="sqg")
        with pytest.raises(ValueError):
            solve(u0, None, None, cfg)
