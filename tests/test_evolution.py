from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nldd import evolution, fields, operators
from nldd.config import lacunary_drift, shear_drift
from nldd.evolution import (
    CFLError,
    SolverConfig,
    TrajectoryStore,
    _phi1,
    _phi2,
    _Stepper,
    comparison_solve,
    measure_forcing,
    solve,
    solve_sqg,
)
from nldd.fields import (
    ParameterError,
    ScalarField,
    VectorField,
    ball_mask,
    dealias_mask,
    gradient_wavevectors,
    grid_coordinates,
    half_spectrum,
    inverse_half,
    make_grid,
    wavenumber_magnitude,
    wavevectors,
)
from nldd.measures import Cylinder, DensityTrack, MeasureData
from nldd.operators import KernelSpec, _sqg_multipliers, biot_savart_sqg, diffusion_multiplier


def eigenmode(grid, wavenumber=1, axis=0, amplitude=1.0):
    xs = grid_coordinates(grid)
    base = 2.0 * np.pi / grid.domain_length
    return ScalarField(grid, amplitude * np.sin(base * wavenumber * xs[axis]), 0.0)


def reference_step(grid, config, uhat, barrs, forcing, sqg):
    """The fftn-layout ETD-RK2 step, SQG drift included, that the rfftn solver
    state replaced; the half-spectrum step must match it to roundoff."""
    dt = config.dt
    z = -dt * diffusion_multiplier(grid, config.kernel)
    mask = dealias_mask(grid)
    ks = wavevectors(grid)

    def drift(uh):
        if not sqg:
            return barrs
        # biot_savart_sqg of the physical field, Nyquist planes dropped
        uh = np.fft.fftn(np.fft.ifftn(uh).real)
        uh[grid.n // 2, :] = 0.0
        uh[:, grid.n // 2] = 0.0
        kmag = wavenumber_magnitude(grid)
        inv = np.divide(1.0, kmag, out=np.zeros_like(kmag), where=kmag > 0)
        k1, k2 = ks
        return np.fft.ifftn(1j * (-k2) * inv * uh).real, np.fft.ifftn(1j * k1 * inv * uh).real

    def nonlinear(uh, b):
        acc = np.zeros(grid.shape, dtype=complex) if forcing is None else np.fft.fftn(forcing)
        if b is not None:
            adv = sum(bj * np.fft.ifftn(1j * k * uh * mask).real for k, bj in zip(ks, b))
            acc = acc - mask * np.fft.fftn(adv)
        return acc

    n0 = nonlinear(uhat, drift(uhat))
    pred = np.exp(z) * uhat + dt * _phi1(z) * n0
    n1 = nonlinear(pred, drift(pred))
    return pred + dt * _phi2(z) * (n1 - n0)


def allocating_step(grid, config, uhat, t, b, forcing, sqg):
    """The half-spectrum step with a fresh array for every temporary; a step
    that reuses its stepper's work arrays must match it bitwise."""
    dt = config.dt
    z = -dt * half_spectrum(diffusion_multiplier(grid, config.kernel))
    mask = half_spectrum(dealias_mask(grid))

    def drift_at(uh, tt):
        if not sqg:
            return b
        comps = (inverse_half(m * uh, grid) for m in _sqg_multipliers(grid))
        return VectorField(tuple(ScalarField(grid, c, tt) for c in comps))

    def nonlinear(uh, b, fhat):
        acc = np.zeros(uh.shape, dtype=complex) if fhat is None else fhat
        if b is not None:
            ud = uh * mask
            adv = np.zeros(grid.shape)
            for k, barr in zip(gradient_wavevectors(grid), b.arrays()):
                adv += barr * inverse_half(1j * k * ud, grid)
            acc = acc - np.fft.rfftn(adv) * mask
        return acc

    fhat = None if forcing is None else np.fft.rfftn(forcing)
    n0 = nonlinear(uhat, drift_at(uhat, t), fhat)
    pred = np.exp(z) * uhat + dt * _phi1(z) * n0
    n1 = nonlinear(pred, drift_at(pred, t + dt), fhat)
    return pred + dt * _phi2(z) * (n1 - n0)


def two_component_drift(grid):
    """(cos k x2, cos k x1) at the base wavenumber k: divergence-free, with
    both components nonzero."""
    xs = grid_coordinates(grid)
    k = 2.0 * np.pi / grid.domain_length
    comps = (np.cos(k * xs[1]), np.cos(k * xs[0]))
    return VectorField(tuple(ScalarField(grid, c) for c in comps), divergence_free=True)


def count_transforms(monkeypatch, grid):
    """Count the fields the solver transforms, by helper: fields.forward_half,
    inverse_half, forward_band and inverse_band as the evolution and
    operators modules reach them, a stacked call counting each member, and
    any n-d np.fft call; keep the forward inputs, and count numpy's complex
    1-d passes (fft and ifft) by the number of columns they transform."""
    calls = Counter()
    inputs = []
    widths = Counter()

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            if name in ("fft", "ifft"):
                widths[a.shape[-1]] += 1
            elif name in ("forward_half", "forward_band", "inverse_half", "inverse_band"):
                calls[name] += int(np.prod(a.shape[: a.ndim - grid.d]))
            else:
                calls[name] += 1
            if name in ("fftn", "rfftn", "forward_half", "forward_band"):
                inputs.append(np.array(a))
            return fn(a, *args, **kwargs)

        return counted

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    for module in (evolution, operators):
        for name in ("forward_half", "inverse_half", "forward_band", "inverse_band"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(fields, name)))
    return calls, inputs, widths


class TestHalfSpectrumStep:
    @pytest.mark.parametrize(
        "d, mode", [(2, "none"), (3, "none"), (2, "given"), (3, "given"), (2, "sqg")]
    )
    @pytest.mark.parametrize("forced", [True, False])
    def test_matches_fftn_layout_reference(self, d, mode, forced):
        # white noise puts content on every Nyquist plane
        g = make_grid(d, 32 if d == 2 else 16, 2 * np.pi)
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal(g.shape)
        xs = grid_coordinates(g)
        b = None
        if mode == "given":
            # divergence-free: component j does not depend on x_j
            b = VectorField(
                tuple(ScalarField(g, np.cos(xs[(j + 1) % d] + j)) for j in range(d)),
                divergence_free=True,
            )
        forcing = rng.standard_normal(g.shape) if forced else None
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.005, t_end=0.02, drift_mode=mode)
        stepper = _Stepper(g, cfg, b)
        uhat, ref = np.fft.rfftn(u0), np.fft.fftn(u0)
        for i in range(4):
            uhat = stepper.step(uhat, i * cfg.dt, forcing)
            ref = reference_step(
                g, cfg, ref, None if b is None else b.arrays(), forcing, mode == "sqg"
            )
        got, want = inverse_half(uhat, g), np.fft.ifftn(ref).real
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["none", "given", "sqg"])
    @pytest.mark.parametrize("forced", [True, False])
    def test_reused_work_arrays_match_an_allocating_step(self, mode, forced):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(5)
        forcing = rng.standard_normal(g.shape) if forced else None
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.01, t_end=0.04, drift_mode=mode)
        b = shear_drift(g) if mode == "given" else None
        stepper = _Stepper(g, cfg, b)
        uhat = np.fft.rfftn(rng.standard_normal(g.shape))
        ref = uhat.copy()
        for i in range(4):
            t = i * cfg.dt
            assert stepper.step(uhat, t, forcing) is uhat
            ref = allocating_step(g, cfg, ref, t, b, forcing, mode == "sqg")
            assert np.array_equal(uhat, ref)

    def test_batched_and_unbatched_states_share_a_stepper(self):
        # one stepper keeps a set of work arrays per state shape; alternating
        # shapes must give what a fresh stepper gives each shape
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(6)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.01, t_end=0.04, drift_mode="given")
        drift = shear_drift(g)
        single = np.fft.rfftn(rng.standard_normal(g.shape))
        stack = np.fft.rfftn(rng.standard_normal((2, *g.shape)), axes=(-2, -1))
        shared, alone, stacked = (_Stepper(g, cfg, drift) for _ in range(3))
        a, b = single.copy(), stack.copy()
        for i in range(4):
            t = i * cfg.dt
            shared.step(a, t)
            shared.step(b, t)
            alone.step(single, t)
            stacked.step(stack, t)
        assert np.array_equal(a, single)
        assert np.array_equal(b, stack)

    def test_transform_budget(self, monkeypatch):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(g.shape)
        forcing = rng.standard_normal(g.shape)
        # the columns of the half spectrum, and those the two-thirds mask keeps
        half, band = g.n // 2 + 1, g.n // 3 + 1

        def budget(mode, drift, forcing):
            cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.01, t_end=0.01, drift_mode=mode)
            stepper, uhat = _Stepper(g, cfg, drift), np.fft.rfftn(u0)
            calls, inputs, widths = count_transforms(monkeypatch, g)
            stepper.step(uhat, 0.0, forcing)
            monkeypatch.undo()
            return dict(calls), inputs, dict(widths)

        # given drift: per stage one band gradient inverse per component that
        # is not zero everywhere and one band advection forward, plus one
        # forcing forward per step; no n-d numpy transform.  The shear drift
        # is (cos x2, 0).  The gradient and advection column passes touch the
        # band's columns, the forcing's all of them.
        fwd, inv = "forward_half", "inverse_half"
        fwd_band, inv_band = "forward_band", "inverse_band"
        assert budget("given", shear_drift(g), forcing)[::2] == (
            {fwd: 1, fwd_band: 2, inv_band: 2}, {half: 1, band: 4}
        )
        assert budget("given", shear_drift(g), None)[::2] == (
            {fwd_band: 2, inv_band: 2}, {band: 4}
        )
        assert budget("given", two_component_drift(g), forcing)[::2] == (
            {fwd: 1, fwd_band: 2, inv_band: 4}, {half: 1, band: 6}
        )
        # SQG, 2 forward and 8 inverse per step; per stage: the drift (2
        # inverse, in one stacked call), whose divergence check reads a bound
        # from its coefficients with no transform, and the advection (2 band
        # inverse, 1 band forward); no fftn, and no forward transform of the
        # state's physical field
        calls, inputs, widths = budget("sqg", None, None)
        assert calls == {inv: 4, fwd_band: 2, inv_band: 4}
        assert widths == {half: 2, band: 6}
        assert not any(np.allclose(x, u0) for x in inputs)

    @pytest.mark.parametrize("family", ["shear", "lacunary", "two-component", "sqg"])
    def test_zero_drift_components_are_skipped_bitwise(self, monkeypatch, family):
        # a step advects only the components of a fixed drift that are not
        # zero everywhere; the skipped terms add +-0.0, so the trajectory is
        # the one a loop over every component gives, bitwise
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(4)
        u0 = ScalarField(g, rng.standard_normal(g.shape))
        mu = MeasureData.from_atoms([(0.05, (4.0, 4.0), 1.0)], domain_length=8.0)
        drifts = {
            "shear": shear_drift(g, amplitude=2.0),
            "lacunary": lacunary_drift(g, [0.5, 0.25, 0.125]),
            "two-component": two_component_drift(g),
        }
        b = drifts.get(family)
        mode = "sqg" if family == "sqg" else "given"
        cfg = SolverConfig(
            kernel=KernelSpec(s=0.5), dt=0.01, t_end=0.1, drift_mode=mode, h_moll=2 * g.spacing
        )

        def run():
            return solve_sqg(u0, mu, cfg) if mode == "sqg" else solve(u0, b, mu, cfg)

        advected = []
        nonlinear = _Stepper.nonlinear
        monkeypatch.setattr(
            _Stepper,
            "nonlinear",
            lambda self, uhat, b, comps, *a, **k: advected.append(comps)
            or nonlinear(self, uhat, b, comps, *a, **k),
        )
        got = run()
        assert set(advected) == {(0,) if family in ("shear", "lacunary") else (0, 1)}
        # the reference loop: every component at every stage
        monkeypatch.setattr(
            _Stepper,
            "nonlinear",
            lambda self, uhat, b, comps, *a, **k: nonlinear(
                self, uhat, b, tuple(range(g.d)), *a, **k
            ),
        )
        want = run()
        assert got.times == want.times
        assert all(np.array_equal(u.values, v.values) for u, v in zip(got.snapshots, want.snapshots))

    def test_non_finite_imaginary_part_raises(self):
        g = make_grid(2, 16, 2 * np.pi)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=0.1)
        uhat = np.fft.rfftn(eigenmode(g).values)
        uhat[1, 2] = complex(uhat[1, 2].real, np.nan)
        with pytest.raises(FloatingPointError, match=r"finiteness at t = 0\.1"):
            _Stepper(g, cfg).step(uhat, 0.0)


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

    @staticmethod
    def count_work(monkeypatch):
        work = []
        for name in ("__init__", "step"):
            method = getattr(_Stepper, name)
            monkeypatch.setattr(
                _Stepper, name, lambda *a, _m=method, _n=name, **k: work.append(_n) or _m(*a, **k)
            )
        return work

    def test_bad_steps_fail_before_the_multiplier_table(self, monkeypatch):
        g = make_grid(2, 16, 2 * np.pi)
        work = self.count_work(monkeypatch)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5, truncation_radius=1.0), dt=0.3, t_end=1.0)
        message = r"t_end = 1\.0 must be an integer number of steps of dt = 0\.3"
        with pytest.raises(ValueError, match=message):
            solve(eigenmode(g), None, None, cfg)
        assert work == []

    def test_unresolved_mollifier_fails_before_any_step(self, monkeypatch):
        g = make_grid(2, 32, 4.0)
        work = self.count_work(monkeypatch)
        mu = MeasureData.from_atoms([(0.55, (2.0, 2.0), 3.0)], domain_length=4.0)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0, h_moll=0.05)
        with pytest.raises(ValueError, match=r"h_moll = 0\.05 is below the grid spacing 0\.125"):
            solve(eigenmode(g), None, mu, cfg)
        assert work == []


class TestTrajectoryStore:
    def test_ordering_and_lookup(self):
        g = make_grid(2, 8, 1.0)
        store = TrajectoryStore(g)
        for t in (0.0, 0.5, 1.0):
            store.append(ScalarField(g, np.zeros(g.shape), t))
        assert store.index_at(0.6) == 1
        assert store.window(0.4, 1.1) == [1, 2]
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
        # a refusal of the parameter dt, which the config maps onto solver.dt
        assert isinstance(err.value, ParameterError) and err.value.parameter == "dt"

    def test_constant_drift_translates(self):
        # b = (1, 0) translates the mode sin(3 x_1) while |k|^(2s) = 3 damps
        # it: u(x, t) = exp(-3 t) sin(3 (x_1 - t))
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
        )
        traj = solve(u0, b, None, cfg)
        xs = grid_coordinates(g)
        expected = np.exp(-3 * 0.5) * np.sin(3 * (xs[0] - 0.5))
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
        # max|div b| = max|sin x_1| = 1 on the grid, named in the message
        with pytest.raises(ValueError, match=r"\|div b\| = 1\.000e\+00 exceeds 1e-10"):
            solve(eigenmode(g), bad, None, cfg)

    def test_fixed_drift_is_checked_when_its_stepper_is_built(self, monkeypatch):
        # a drift that is not divergence-free, or breaks the CFL bound at dt,
        # fails when its stepper is built, so no step is ever taken
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        steps = []
        monkeypatch.setattr(_Stepper, "step", lambda *a, **k: steps.append(1))
        bad = VectorField((ScalarField(g, np.cos(xs[0])), ScalarField(g, np.zeros(g.shape))))
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.05, t_end=0.5, drift_mode="given")
        cases = [
            (bad, ValueError, r"\|div b\| = 1\.000e\+00 exceeds 1e-10"),
            (
                shear_drift(g, amplitude=50.0),
                CFLError,
                r"dt = 0\.05 violates the advective CFL of the drift, max\|b\| = 50; "
                r"admissible dt <= 1\.963e-03",
            ),
        ]
        for b, error, message in cases:
            with pytest.raises(error, match=message):
                _Stepper(g, cfg, b)
            with pytest.raises(error, match=message):
                solve(eigenmode(g), b, None, cfg)
        assert steps == []

    def test_callable_drift_is_rejected(self):
        g = make_grid(2, 16, 2 * np.pi)
        b = shear_drift(g)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="given")
        with pytest.raises(TypeError, match="the drift must be a VectorField or None, got function"):
            solve(eigenmode(g), lambda t: b, None, cfg)

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

    def test_fixed_drift_cfl_norm_computed_once_per_solve(self, monkeypatch):
        g = make_grid(2, 16, 2 * np.pi)
        # flagged divergence-free, so the provider's divergence check is skipped
        b = VectorField(shear_drift(g).components, divergence_free=True)
        norms, stages = [], []
        max_norm, nonlinear = VectorField.max_norm, _Stepper.nonlinear
        monkeypatch.setattr(VectorField, "max_norm", lambda v: norms.append(1) or max_norm(v))
        monkeypatch.setattr(
            _Stepper, "nonlinear", lambda *a, **k: stages.append(1) or nonlinear(*a, **k)
        )
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="given")
        solve(eigenmode(g), b, None, cfg)
        assert (len(norms), len(stages)) == (1, 20)  # 10 steps of two stages
        norms.clear()
        stages.clear()
        with pytest.raises(CFLError, match="violates the advective CFL"):
            solve(eigenmode(g), b, None, replace(cfg, dt=10.0, t_end=20.0))
        assert (len(norms), len(stages)) == (1, 0)

    def test_snapshot_stride(self):
        g = make_grid(2, 16, 2 * np.pi)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0, snapshot_stride=5)
        traj = solve(eigenmode(g), None, None, cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("mode", ["none", "given", "sqg"])
    def test_strided_solve_is_the_subsampled_stride_one_solve(self, mode):
        every, _, _ = atom_run(mode)
        strided, _, _ = atom_run(mode, snapshot_stride=3)
        assert strided.times == every.times[::3]
        for u, v in zip(strided.snapshots, every.snapshots[::3]):
            np.testing.assert_array_equal(u.values, v.values)


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
        # a solve with atoms refuses h_moll below the spacing before its first step
        g = make_grid(2, 32, 4.0)
        mu = MeasureData.from_atoms([(0.55, (2.0, 2.0), 3.0)], domain_length=4.0)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0, h_moll=0.1)
        with pytest.raises(ParameterError, match=r"h_moll = 0\.1 is below the grid spacing 0\.125") as err:
            solve(ScalarField(g, np.zeros(g.shape)), None, mu, cfg)
        assert err.value.parameter == "h_moll"

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
            ScalarField(u0.grid, 2.0 * u0.values, u0.time), None, mu.scaled(2.0), cfg
        ).snapshots[-1].values
        np.testing.assert_array_equal(doubled, 2.0 * base)


def allocating_companion(u_traj, b, Q, config, sqg_drifts=None):
    """The companion loop with fresh arrays at every step, and an SQG drift
    looked up by nearest time at both ends of each step; the in-place
    comparison_solve must match it bitwise.  sqg_drifts holds one drift per
    snapshot of the window."""
    grid = u_traj.grid
    idx = u_traj.window(Q.t_start, Q.t0)
    times = [u_traj.times[i] for i in idx]
    dt = float(np.diff(times)[0])
    inside = ball_mask(grid, Q.x0, Q.r)
    stepper = _Stepper(grid, replace(config, dt=dt), b)
    by_time = dict(zip(times, sqg_drifts or ()))
    at = lambda t: by_time[min(by_time, key=lambda tt: abs(tt - t))]
    v = u_traj.snapshots[idx[0]].values.copy()
    out = [(times[0], v)]
    for j in range(len(idx) - 1):
        drifts = None if sqg_drifts is None else (at(times[j]), at(times[j] + dt))
        vhat = stepper.step(np.fft.rfftn(v), times[j], drifts=drifts)
        v = np.where(inside, inverse_half(vhat, grid), u_traj.snapshots[idx[j + 1]].values)
        out.append((times[j + 1], v.copy()))
    return out


def atom_run(mode, snapshot_stride=1):
    """A two-mode solve on [0, 0.6] with one atom, with no, shear or SQG drift."""
    g = make_grid(2, 32, 8.0)
    xs = grid_coordinates(g)
    u0 = ScalarField(g, np.sin(np.pi * xs[0] / 4.0) + 0.5 * np.cos(np.pi * xs[1] / 2.0))
    mu = MeasureData.from_atoms([(0.2, (4.0, 4.0), 0.5)], domain_length=8.0)
    cfg = SolverConfig(
        kernel=KernelSpec(s=0.5), dt=0.05, t_end=0.6, drift_mode=mode, h_moll=2 * g.spacing,
        snapshot_stride=snapshot_stride,
    )
    if mode == "sqg":
        return solve_sqg(u0, mu, cfg), None, cfg
    b = shear_drift(g) if mode == "given" else None
    return solve(u0, b, mu, cfg), b, cfg


class TestComparison:
    @pytest.mark.parametrize("mode", ["none", "given", "sqg"])
    def test_matches_the_allocating_loop(self, mode):
        traj, b, cfg = atom_run(mode)
        Q = Cylinder(t0=0.55, x0=(4.25, 3.75), r=0.5, s=0.5)
        sqg_drifts = None
        if mode == "sqg":
            idx = traj.window(Q.t_start, Q.t0)
            sqg_drifts = [biot_savart_sqg(traj.snapshots[i]) for i in idx]
        expected = allocating_companion(traj, b, Q, cfg, sqg_drifts)
        v_traj = comparison_solve(traj, b, Q, cfg)
        assert len(expected) == len(v_traj.snapshots) > 2
        for (t, values), v in zip(expected, v_traj.snapshots):
            assert v.time == t
            np.testing.assert_array_equal(v.values, values)
        # the atom lands inside the window, so the companion departs from u
        assert not np.array_equal(v_traj.snapshots[-1].values, traj.at(Q.t0).values)

    def test_no_measure_gives_matching_companion(self):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(1)
        u0 = ScalarField(g, rng.standard_normal(g.shape))
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.05, t_end=1.0)
        traj = solve(u0, None, None, cfg)
        Q = Cylinder(t0=1.0, x0=(4.0, 4.0), r=0.8, s=0.5)
        v_traj = comparison_solve(traj, None, Q, cfg)
        diff = max(
            np.abs(traj.at(v.time).values - v.values).max() for v in v_traj.snapshots
        )
        assert diff < 1e-10

    def test_radius_cap(self):
        g = make_grid(2, 16, 8.0)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.1, t_end=1.0)
        traj = solve(ScalarField(g, np.zeros(g.shape)), None, None, cfg)
        with pytest.raises(ValueError, match="L/8"):
            comparison_solve(traj, None, Cylinder(1.0, (4.0, 4.0), 2.0, 0.5), cfg)


class TestDriftModeNone:
    """Under drift mode "none" every entry point drops a drift it is handed."""

    @staticmethod
    def assert_same(a, b):
        assert a.times == b.times
        for u, v in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(u.values, v.values)

    def test_solve_and_comparison_solve(self):
        traj, _, cfg = atom_run("none")
        b = shear_drift(traj.grid)
        u0, mu = traj.snapshots[0], MeasureData.from_atoms([(0.2, (4.0, 4.0), 0.5)], 8.0)
        self.assert_same(solve(u0, b, mu, cfg), solve(u0, None, mu, cfg))
        Q = Cylinder(t0=0.55, x0=(4.25, 3.75), r=0.5, s=0.5)
        self.assert_same(comparison_solve(traj, b, Q, cfg), comparison_solve(traj, None, Q, cfg))

    def test_estimate_kernel(self):
        from nldd.heatkernel import estimate_kernel

        g = make_grid(2, 32, 8.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kern, dt=0.05, t_end=1.0, drift_mode="none", h_moll=g.spacing)
        est = estimate_kernel(shear_drift(g), 0.0, (4.0, 4.0), [1.0], cfg, g)
        free = estimate_kernel(None, 0.0, (4.0, 4.0), [1.0], cfg, g)
        np.testing.assert_array_equal(est.fields[0].values, free.fields[0].values)


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

    def test_step_reads_the_drift_as_arrays(self, monkeypatch):
        # the step builds no field around its drift, so no sample scan runs
        g = make_grid(2, 32, 2 * np.pi)
        u0 = np.sin(grid_coordinates(g)[0])
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="sqg")
        stepper = _Stepper(g, cfg)
        built = []
        post_init = ScalarField.__post_init__
        monkeypatch.setattr(
            ScalarField, "__post_init__", lambda f: built.append(1) or post_init(f)
        )
        uhat = stepper.step(np.fft.rfftn(u0), 0.0)
        assert built == [] and np.isfinite(uhat).all()

    def test_non_finite_drift_raises(self):
        # check_cfl would pass a NaN max norm, so the drift refuses it first
        g = make_grid(2, 16, 2 * np.pi)
        cfg = SolverConfig(kernel=KernelSpec(s=0.5), dt=0.02, t_end=0.2, drift_mode="sqg")
        uhat = np.fft.rfftn(np.sin(grid_coordinates(g)[0]))
        uhat[1, 2] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="^scalar field contains non-finite samples$"):
            _Stepper(g, cfg).step(uhat, 0.0)

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
