from dataclasses import replace

import numpy as np
import pytest
from heat_oracles import (
    exact_free_kernel,
    free_kernel_by_panels,
    free_kernel_by_quad,
    gluing_check,
    periodized_free_kernel,
)

from nldd import heatkernel
from nldd.config import ExperimentConfig, shear_drift
from nldd.evolution import CFLError, SolverConfig, _Stepper
from nldd.fields import ParameterError, VectorField, make_grid, wavevectors
from nldd.heatkernel import (
    _composed_source,
    _gaussian_spectral,
    _solve_recording,
    estimate_kernel,
    kernel_sanity,
    upper_bound_check,
)
from nldd.operators import KernelSpec
from nldd.snapshots import load_kernel_estimate, save_kernel_estimate


def solver(kernel, grid, dt=2e-3, t_end=1.0, h_factor=1.0):
    return SolverConfig(
        kernel=kernel, dt=dt, t_end=t_end, h_moll=h_factor * grid.spacing
    )


def width_solve(grid, cfg, b, y, width, t_start, times):
    """The fields of one Gaussian of the given width at y, solved alone."""
    uhat0 = _gaussian_spectral(grid, np.asarray(y, dtype=float), width)
    return _solve_recording(_Stepper(grid, cfg, b), uhat0[None], t_start, np.array(times))[0]


def bench_estimate():
    """The estimate of the benchmark's heatkernel config."""
    cfg = ExperimentConfig({
        "grid": {"d": 2, "n": 32, "domain_length": 8.0}, "kernel": {"s": 0.5},
        "drift": {"family": "shear", "amplitude": 1.0}, "solver": {"dt": 0.02},
        "heatkernel": {"times": [1.0, 1.5, 2.0], "h_moll": 0.25},
    })
    grid, kernel = cfg.build_grid(), cfg.build_kernel()
    b = cfg.build_drift(grid)
    eta, y, times, solver = cfg.build_heatkernel(grid, kernel)
    return estimate_kernel(b, eta, y, times, solver, grid)


class TestExactFreeKernel:
    def test_half_closed_form_two_d(self):
        kern = KernelSpec(s=0.5)
        t, r = 0.7, 1.3
        expected = t / (2 * np.pi * (t**2 + r**2) ** 1.5)
        assert exact_free_kernel(kern, 2, t, r) == pytest.approx(expected, rel=1e-14)

    def test_half_closed_form_three_d(self):
        kern = KernelSpec(s=0.5)
        t, r = 0.4, 0.9
        expected = t / (np.pi**2 * (t**2 + r**2) ** 2)
        assert exact_free_kernel(kern, 3, t, r) == pytest.approx(expected, rel=1e-14)

    def test_inversion_matches_closed_form(self):
        # generic-s route evaluated at s just off 1/2 approaches the closed form
        near = KernelSpec(s=0.5 + 1e-9)
        half = KernelSpec(s=0.5)
        for r in (0.0, 0.5, 2.0):
            a = exact_free_kernel(near, 2, 1.0, r)
            b = exact_free_kernel(half, 2, 1.0, r)
            assert a == pytest.approx(b, rel=1e-5)

    def test_gaussian_limit_mass(self):
        # radial integral of the kernel over R^2 is 1
        kern = KernelSpec(s=0.75)
        rs = np.linspace(0.0, 40.0, 8001)
        vals = exact_free_kernel(kern, 2, 1.0, rs)
        mass = np.trapezoid(vals * 2 * np.pi * rs, rs)
        # the power-law tail beyond the cutoff carries ~0.3% of the mass
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_self_similarity(self):
        # p(t, r) = t^(-d/2s) p(1, r t^(-1/2s))
        kern = KernelSpec(s=0.75)
        d, s = 2, 0.75
        t, r = 3.0, 1.1
        lhs = exact_free_kernel(kern, d, t, r)
        rhs = t ** (-d / (2 * s)) * exact_free_kernel(kern, d, 1.0, r * t ** (-1 / (2 * s)))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            exact_free_kernel(KernelSpec(s=0.5), 2, 0.0, 1.0)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("d", [2, 3])
    def test_panel_rule_matches_adaptive_quadrature(self, d, s):
        # the shared Gauss-Legendre rule against the per-radius quad loop, to
        # 1e-8 of the on-diagonal scale; past t = 1 at s = 1/4 the quad
        # loop's own error nears that share of the scale t^(-4)
        kern = KernelSpec(s=s)
        radii = np.array([0.0, 0.3, 1.0, 2.5])
        for t in (0.5, 1.0):
            got = free_kernel_by_panels(kern, d, t, radii)
            want = free_kernel_by_quad(kern, d, t, radii)
            assert np.abs(got - want).max() <= 1e-8 * t ** (-d / (2 * s))


class TestEstimate:
    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_is_the_real_field_of_the_fftn_formula(self, d):
        # off the grid, the fftn formula's Nyquist modes have no partner; the
        # real field it stands for keeps their Hermitian part
        grid = make_grid(d, 16, 4.0)
        y, width = np.array([1.3, 2.71, 0.45][:d]), 0.3
        ks = wavevectors(grid)
        phase = sum(k * c for k, c in zip(ks, y))
        full = np.exp(-0.5 * width**2 * sum(k**2 for k in ks) - 1j * phase)
        want = np.fft.rfftn(np.fft.ifftn(full * grid.num_points / 4.0**d).real)
        got = _gaussian_spectral(grid, y, width)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_matches_periodized_free_kernel(self):
        grid = make_grid(2, 128, 16.0)
        kern = KernelSpec(s=0.5)
        y = np.array([8.0, 8.0])
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, y, [1.0, 1.5, 2.0], cfg, grid)
        coords = np.stack(np.meshgrid(*[np.arange(grid.n) * grid.spacing] * 2, indexing="ij"), axis=-1)
        for i, t in enumerate(est.times):
            oracle = periodized_free_kernel(kern, grid, t, coords - y)
            err = np.abs(est.fields[i].values - oracle).max() / oracle.max()
            assert err < 0.02

    def test_mass_normalization(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        for i in range(3):
            assert est.mass(i) == pytest.approx(1.0, abs=1e-8)

    def test_time_shift_invariance(self):
        # autonomous drift: starting at eta only shifts the clock
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        a = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0], cfg, grid)
        b = estimate_kernel(None, 0.5, (8.0, 8.0), [1.5], cfg, grid)
        np.testing.assert_allclose(
            a.fields[0].values, b.fields[0].values, atol=1e-10
        )

    @staticmethod
    def record_stepped_shapes(monkeypatch):
        shapes = []
        step = _Stepper.step
        monkeypatch.setattr(
            _Stepper, "step", lambda self, uhat, *a, **k: shapes.append(uhat.shape)
            or step(self, uhat, *a, **k)
        )
        return shapes

    def test_one_start_steps_one_member(self, monkeypatch):
        # fewer than three times: no semigroup terms, so the stack holds the
        # extrapolated start alone
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        shapes = self.record_stepped_shapes(monkeypatch)
        est = estimate_kernel(shear_drift(grid), 0.0, (2.0, 2.0), [1.0, 2.0], cfg, grid)
        assert est.semigroup is None
        assert shapes == [(1, 16, 9)] * 40
        # three times: the h/2 term rides along, and the composition joins
        # at the middle time
        shapes.clear()
        estimate_kernel(shear_drift(grid), 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)
        assert shapes == [(2, 16, 9)] * 30 + [(3, 16, 9)] * 10

    @pytest.mark.parametrize("drift", ["none", "shear"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_fields_are_the_two_width_extrapolation(self, d, drift):
        # reference: Richardson in the width from separate h and h/2 solves
        grid = make_grid(d, 16, 4.0)
        kern = KernelSpec(s=0.75)
        b = shear_drift(grid) if drift == "shear" else None
        mode = "given" if drift == "shear" else "none"
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode=mode, h_moll=grid.spacing)
        y, h, times = np.full(d, 1.7), grid.spacing, [1.0, 1.5, 2.0]
        est = estimate_kernel(b, 0.0, y, times, cfg, grid)
        coarse = width_solve(grid, cfg, b, y, h, 0.0, times)
        fine = width_solve(grid, cfg, b, y, h / 2.0, 0.0, times)
        for got, g_h, g_half in zip(est.fields, coarse, fine):
            want = (4.0 * g_half.values - g_h.values) / 3.0
            assert got.time == g_h.time
            assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()

    def test_rejects_time_too_close_to_source(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid)
        with pytest.raises(ValueError, match="eta"):
            estimate_kernel(None, 0.0, (8.0, 8.0), [0.1], cfg, grid)

    def test_rejects_off_step_record_time(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        message = r"^time 1\.0013 is not a whole number of steps of dt = 0\.005 after eta = 0\.0$"
        with pytest.raises(ParameterError, match=message) as info:
            estimate_kernel(None, 0.0, (8.0, 8.0), [1.0, 1.0013], cfg, grid)
        assert info.value.parameter == "times"
        with pytest.raises(ParameterError, match=r"^every time must lie after eta = 0\.5, got 0\.5$"):
            estimate_kernel(None, 0.5, (8.0, 8.0), [0.5, 1.0], cfg, grid)

    def test_rejects_sqg_mode(self):
        # the SQG drift depends on the solution: no kernel to estimate
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="sqg", h_moll=grid.spacing)
        with pytest.raises(ValueError, match="the equation has no heat kernel"):
            estimate_kernel(None, 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)

    def test_rejects_unresolved_mollifier(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=5e-3, t_end=2.0, h_moll=0.0)
        with pytest.raises(ParameterError, match=r"^h_moll = 0\.0 is below the grid spacing 0\.25$"):
            estimate_kernel(None, 0.0, (8.0, 8.0), [1.0], cfg, grid)


class TestSanity:
    def test_free_kernel_passes(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = kernel_sanity(est)
        assert rep.extras["mass_ok"]
        assert rep.extras["semigroup_ok"]
        assert len(rep.rows) == 2 and rep.passed

    def test_fixed_drift_cfl_violation_raises(self, monkeypatch):
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        # flagged divergence-free, so the provider's divergence check is skipped
        b = VectorField(shear_drift(grid).components, divergence_free=True)
        norms, stages = [], []
        max_norm, nonlinear = VectorField.max_norm, _Stepper.nonlinear
        monkeypatch.setattr(VectorField, "max_norm", lambda v: norms.append(1) or max_norm(v))
        monkeypatch.setattr(
            _Stepper, "nonlinear", lambda *a, **k: stages.append(1) or nonlinear(*a, **k)
        )
        cfg = SolverConfig(kernel=kern, dt=1.0, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        with pytest.raises(CFLError, match="violates the advective CFL"):
            estimate_kernel(b, 0.0, (2.0, 2.0), [2.0], cfg, grid)
        assert (len(norms), len(stages)) == (1, 0)
        # the kernel and its h/2 term advance as one stack: one norm, and 40
        # steps of two stages
        norms.clear()
        times = [1.0, 1.5, 2.0]
        est = estimate_kernel(b, 0.0, (2.0, 2.0), times, replace(cfg, dt=0.05), grid)
        assert (len(norms), len(stages)) == (1, 2 * 40)
        # the drift's CFL bound is checked once, when its stepper is built
        norms.clear()
        with pytest.raises(CFLError, match="violates the advective CFL"):
            _Stepper(grid, replace(cfg, dt=0.5), b)
        assert len(norms) == 1

    def test_sanity_reuses_the_checked_drift_of_the_estimate(self, monkeypatch):
        # the composition was solved in the estimate's own loop, with the
        # drift checked when its stepper was built: kernel_sanity takes no
        # solver step, and makes no divergence check and no norm
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        est = estimate_kernel(shear_drift(grid), 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)
        calls = []
        for cls, name in (
            (VectorField, "spectral_divergence_max"), (VectorField, "max_norm"), (_Stepper, "step")
        ):
            method = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda *a, _m=method, _n=name, **k: calls.append(_n) or _m(*a, **k)
            )
        assert kernel_sanity(est).extras["semigroup_ok"]
        assert calls == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_both_widths_in_one_loop_match_single_solves(self, d):
        # pins that numpy transforms each member of a stack over the trailing
        # axes as it transforms that member alone
        grid = make_grid(d, 16, 4.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=1.0, drift_mode="given", h_moll=grid.spacing)
        drift = shear_drift(grid)
        y = np.full(d, 1.7)
        h = grid.spacing
        starts = [_gaussian_spectral(grid, y, w) for w in (h, h / 2.0)]
        times = np.array([0.5, 1.0])
        batched = _solve_recording(_Stepper(grid, cfg, drift), np.stack(starts), 0.0, times)
        assert len(batched) == 2
        for fields, uhat0 in zip(batched, starts):
            (alone,) = _solve_recording(_Stepper(grid, cfg, drift), uhat0[None], 0.0, times)
            assert [f.time for f in fields] == [f.time for f in alone]
            assert all(np.array_equal(f.values, g.values) for f, g in zip(fields, alone))

    def test_semigroup_matches_per_source_solves(self):
        # reference: the composition summed one source solve at a time
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        b = shear_drift(grid)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        est = estimate_kernel(b, 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)
        width = grid.spacing / 2.0
        a = width_solve(grid, cfg, b, (2.0, 2.0), width, 0.0, [1.5])[0].values
        H = 2 * grid.spacing
        composed = np.zeros(grid.shape)
        for i in range(0, grid.n, 2):
            for j in range(0, grid.n, 2):
                if a[i, j] * H**2 < 1e-10:
                    continue
                z = np.array([i, j]) * grid.spacing
                kz = width_solve(grid, cfg, b, z, width, 1.5, [2.0])[0]
                composed += a[i, j] * kz.values * H**2
        direct = width_solve(grid, cfg, b, (2.0, 2.0), width, 0.0, [2.0])[0].values
        assert est.semigroup[1].values.tobytes() == direct.tobytes()
        ref = np.abs(composed - direct).sum() / np.abs(direct).sum()
        got = kernel_sanity(est).extras["semigroup_l1_error"]
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_composition_rides_the_estimate_bitwise(self, d):
        # the h/2 Gaussian rides beside the kernel, and the composed source
        # joins the stack at the middle time; at the last time both are the
        # fields separate solves give
        grid = make_grid(d, 16, 4.0)
        kern = KernelSpec(s=0.75)
        b = shear_drift(grid)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        y, width = np.full(d, 1.7), grid.spacing / 2.0
        est = estimate_kernel(b, 0.0, y, [1.0, 1.5, 2.0], cfg, grid)
        fine = width_solve(grid, cfg, b, y, width, 0.0, [1.0, 1.5, 2.0])
        source = _composed_source(grid, width, fine[1].values)
        (alone,) = _solve_recording(_Stepper(grid, cfg, b), source[None], 1.5, np.array([2.0]))[0]
        composed, direct = est.semigroup
        assert composed.time == direct.time == alone.time == 2.0
        assert composed.values.tobytes() == alone.values.tobytes()
        assert direct.values.tobytes() == fine[2].values.tobytes()

    def test_bench_semigroup_error_is_pinned(self):
        # bench/reference.json pins the same number, and a change that moves
        # it updates both
        error = kernel_sanity(bench_estimate()).extras["semigroup_l1_error"]
        assert error == pytest.approx(0.002187838144121118, rel=1e-12)

    def test_the_report_gives_each_check_its_own_verdict(self, monkeypatch):
        # a semigroup error of 2.188e-3 fails a tolerance of 2.15e-3 while
        # the mass error is far inside its own: the report fails with it,
        # where a sum of both errors against a sum of both tolerances passed
        monkeypatch.setattr(heatkernel, "SANITY_SEMIGROUP_TOL", 2.15e-3)
        rep = kernel_sanity(bench_estimate())
        assert rep.extras["mass_ok"] and not rep.extras["semigroup_ok"]
        assert rep.ceiling == 1.0 and not rep.passed
        assert [row.rhs for row in rep.rows] == [heatkernel.SANITY_MASS_TOL, 2.15e-3]

    def test_needs_three_times(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0], cfg, grid)
        assert est.semigroup is None
        with pytest.raises(ValueError, match="needs an estimate from estimate_kernel"):
            kernel_sanity(est)


    def test_loaded_estimate_is_rejected(self, tmp_path):
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, h_moll=grid.spacing)
        est = estimate_kernel(None, 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)
        save_kernel_estimate(est, tmp_path / "kernel.nldd")
        with pytest.raises(ValueError, match="needs an estimate from estimate_kernel"):
            kernel_sanity(load_kernel_estimate(tmp_path / "kernel.nldd"))


class TestUpperBound:
    def test_loaded_estimate_matches_in_memory(self, tmp_path):
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.75)
        b = shear_drift(grid)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        est = estimate_kernel(b, 0.25, (2.0, 1.5), [1.0, 1.5, 2.0], cfg, grid)
        save_kernel_estimate(est, tmp_path / "kernel.nldd")
        loaded = load_kernel_estimate(tmp_path / "kernel.nldd")
        assert loaded.kernel == kern
        want = upper_bound_check(est, T=2.0)
        got = upper_bound_check(loaded, T=2.0)
        assert len(got.rows) == 3
        assert got.rows == want.rows  # bitwise: no tolerance
        assert got.extras == want.extras


    def test_free_kernel_constant_is_moderate(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = upper_bound_check(est, T=2.0)
        assert len(rep.rows) == 3
        assert all(np.isfinite(r.lhs) for r in rep.rows)
        # the exact free-kernel constant at the diagonal is 1/(2 pi) ~ 0.16;
        # with the spatial factor it stays order one
        assert 0.05 < rep.fitted_constant < 5.0

    def test_time_ceiling_filters_rows(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = upper_bound_check(est, T=1.2)
        assert len(rep.rows) == 1


class TestGluing:
    def test_truncated_approaches_full(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=1.0)
        rep = gluing_check(None, [2.0, 4.0], 0.0, (8.0, 8.0), 1.0, cfg, grid)
        agreement = rep.extras["max_rel_difference"]
        assert agreement[4.0] < agreement[2.0]
        assert all(c >= 0.0 for c in rep.extras["fitted_c"])
        assert all(C >= 0.0 for C in rep.extras["fitted_C"])

    def test_rejects_oversized_truncation(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=1.0)
        with pytest.raises(ValueError, match="L/4"):
            gluing_check(None, [8.0], 0.0, (8.0, 8.0), 1.0, cfg, grid)
