import numpy as np
import pytest

from nldd.config import shear_drift
from nldd.evolution import DriftProvider, SolverConfig
from nldd.fields import make_grid
from nldd.heatkernel import (
    _gaussian_spectral,
    _solve_recording,
    estimate_kernel,
    exact_free_kernel,
    gluing_check,
    kernel_sanity,
    periodized_free_kernel,
    upper_bound_check,
)
from nldd.operators import KernelSpec


def solver(kernel, grid, dt=2e-3, t_end=1.0, h_factor=1.0):
    return SolverConfig(
        kernel=kernel, dt=dt, t_end=t_end, h_moll=h_factor * grid.spacing
    )


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


class TestEstimate:
    def test_matches_periodized_free_kernel(self):
        grid = make_grid(2, 128, 16.0)
        kern = KernelSpec(s=0.5)
        y = np.array([8.0, 8.0])
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, y, [1.0, 1.5, 2.0], cfg, grid)
        coords = np.stack(np.meshgrid(*[np.arange(grid.n) * grid.spacing] * 2, indexing="ij"), axis=-1)
        for i, t in enumerate(est.times):
            oracle = periodized_free_kernel(kern, grid, t, coords - y, images=4)
            err = np.abs(est.fields[i].values - oracle).max() / oracle.max()
            assert err < 0.02

    def test_mass_normalization(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        for i in range(3):
            assert est.mass(i) == pytest.approx(1.0, abs=1e-8)

    def test_time_shift_invariance(self):
        # autonomous drift: starting at eta only shifts the clock
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        a = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0], cfg, grid)
        b = estimate_kernel(None, kern, 0.5, (8.0, 8.0), [1.5], cfg, grid)
        np.testing.assert_allclose(
            a.fields[0].values, b.fields[0].values, atol=1e-10
        )

    def test_rejects_time_too_close_to_source(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid)
        with pytest.raises(ValueError, match="eta"):
            estimate_kernel(None, kern, 0.0, (8.0, 8.0), [0.1], cfg, grid)

    def test_rejects_off_step_record_time(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        with pytest.raises(ValueError, match=r"record time 1\.0013 is not a whole number of steps of dt = 0\.005"):
            estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0, 1.0013], cfg, grid)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0], cfg, grid)
        uhat0 = _gaussian_spectral(grid, np.array([8.0, 8.0]), grid.spacing)
        with pytest.raises(ValueError, match=r"record time 0\.5 must lie after t_start = 0\.5"):
            _solve_recording(est.stepper, uhat0, DriftProvider(None), 0.5, np.array([0.5, 1.0]))

    def test_rejects_unresolved_mollifier(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = SolverConfig(kernel=kern, dt=5e-3, t_end=2.0, h_moll=0.0)
        with pytest.raises(ValueError, match="mollification"):
            estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0], cfg, grid)


class TestSanity:
    def test_free_kernel_passes(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = kernel_sanity(est)
        assert rep.extras["mass_ok"]
        assert rep.extras["semigroup_ok"]
        assert rep.rows[0].passed

    def test_semigroup_matches_per_source_solves(self):
        # reference: the composition summed one source solve at a time
        grid = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.5)
        b = shear_drift(grid)
        cfg = SolverConfig(kernel=kern, dt=0.05, t_end=2.0, drift_mode="given", h_moll=grid.spacing)
        est = estimate_kernel(b, kern, 0.0, (2.0, 2.0), [1.0, 1.5, 2.0], cfg, grid)
        width = min(est.mollification_widths)
        a = est.raw_fields[width][1].values
        H = 2 * grid.spacing
        composed = np.zeros(grid.shape)
        for i in range(0, grid.n, 2):
            for j in range(0, grid.n, 2):
                if a[i, j] * H**2 < 1e-10:
                    continue
                z = np.array([i, j]) * grid.spacing
                uhat0 = _gaussian_spectral(grid, z, width)
                kz = _solve_recording(est.stepper, uhat0, DriftProvider(b), 1.5, np.array([2.0]))[0]
                composed += a[i, j] * kz.values * H**2
        direct = est.raw_fields[width][-1].values
        ref = np.abs(composed - direct).sum() / np.abs(direct).sum()
        got = kernel_sanity(est).extras["semigroup_l1_error"]
        assert got == pytest.approx(ref, rel=1e-12)

    def test_needs_three_times(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0], cfg, grid)
        with pytest.raises(ValueError):
            kernel_sanity(est)


class TestUpperBound:
    def test_free_kernel_constant_is_moderate(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = upper_bound_check(est, T=2.0, ceiling=10.0)
        assert len(rep.rows) == 3
        assert all(np.isfinite(r.lhs) for r in rep.rows)
        assert rep.passed
        # the exact free-kernel constant at the diagonal is 1/(2 pi) ~ 0.16;
        # with the spatial factor it stays order one
        assert 0.05 < rep.fitted_constant < 5.0

    def test_time_ceiling_filters_rows(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=2.0)
        est = estimate_kernel(None, kern, 0.0, (8.0, 8.0), [1.0, 1.5, 2.0], cfg, grid)
        rep = upper_bound_check(est, T=1.2)
        assert len(rep.rows) == 1


class TestGluing:
    def test_truncated_approaches_full(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=1.0)
        rep = gluing_check(None, kern, [2.0, 4.0], 0.0, (8.0, 8.0), 1.0, cfg, grid)
        agreement = rep.extras["max_rel_difference"]
        assert agreement[4.0] < agreement[2.0]
        assert all(c >= 0.0 for c in rep.extras["fitted_c"])
        assert all(C >= 0.0 for C in rep.extras["fitted_C"])

    def test_rejects_oversized_truncation(self):
        grid = make_grid(2, 64, 16.0)
        kern = KernelSpec(s=0.5)
        cfg = solver(kern, grid, dt=5e-3, t_end=1.0)
        with pytest.raises(ValueError, match="L/4"):
            gluing_check(None, kern, [8.0], 0.0, (8.0, 8.0), 1.0, cfg, grid)
