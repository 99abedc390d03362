import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from nldd.fields import (
    ScalarField,
    SpectralField,
    forward,
    grid_coordinates,
    inverse,
    make_grid,
    wavenumber_magnitude,
    wavevectors,
)
from nldd.operators import (
    KernelSpec,
    _one_minus_angular,
    biot_savart_sqg,
    diffusion_multiplier,
    leray_project,
    normalization_constant,
    truncated_multiplier_table,
)


def apply_multiplier(f, mult):
    return inverse(SpectralField(f.grid, mult * forward(f).coefficients))


def per_wavenumber_table(grid, kernel):
    """The truncated table as first written: one order-24 composite rule on
    (0, rho] per distinct |k|, with no rescaling to (0, 1]."""
    d, s, rho = grid.d, kernel.s, kernel.truncation_radius
    area = 2 * np.pi if d == 2 else 4 * np.pi
    xg, wg = leggauss(24)
    kmag = wavenumber_magnitude(grid)
    out = np.zeros(kmag.shape)
    for k in np.unique(kmag[kmag > 0]):
        nodes, weights = [], []
        hi = rho
        for _ in range(60):
            lo = hi / 2.0
            pieces = max(1, int(np.ceil(k * (hi - lo) / (2.0 * np.pi))))
            edges = np.linspace(lo, hi, pieces + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                nodes.append((a + b) / 2.0 + (b - a) / 2.0 * xg)
                weights.append((b - a) / 2.0 * wg)
            hi = lo
        r, w = np.concatenate(nodes), np.concatenate(weights)
        out[kmag == k] = area * (_one_minus_angular(d, k * r) * r ** (-1.0 - 2.0 * s) * w).sum()
    return out / normalization_constant(d, s)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(s=0.0)
        with pytest.raises(ValueError):
            KernelSpec(s=1.0)
        with pytest.raises(ValueError):
            KernelSpec(s=0.5, lam=0.5)
        with pytest.raises(ValueError):
            KernelSpec(s=0.5, truncation_radius=-1.0)

    def test_truncate_untruncate(self):
        k = KernelSpec(s=0.5)
        assert k.truncated(2.0).truncation_radius == 2.0
        assert k.truncated(2.0).untruncated().truncation_radius is None


class TestNormalizationConstant:
    def test_known_value_half(self):
        # d=2, s=1/2: pi |Gamma(-1/2)| / (2 Gamma(3/2)) = 2 pi
        assert normalization_constant(2, 0.5) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_known_value_three_d(self):
        # d=3, s=1/2: pi^(3/2) |Gamma(-1/2)| / (2 Gamma(2)) = pi^2
        assert normalization_constant(3, 0.5) == pytest.approx(np.pi**2, rel=1e-12)

    @pytest.mark.parametrize("d,s", [(2, 0.25), (2, 0.75), (3, 0.75)])
    def test_against_direct_quadrature(self, d, s):
        # independent evaluation of the defining integral
        from scipy import special

        area = 2 * np.pi if d == 2 else 4 * np.pi
        ang = special.j0 if d == 2 else (lambda x: np.sinc(x / np.pi))
        small = 1e-3
        c2 = 1 / 4 if d == 2 else 1 / 6
        head = area * c2 * small ** (2 - 2 * s) / (2 - 2 * s)
        # one quad per unit interval keeps each piece within a fraction of an
        # oscillation
        edges = np.concatenate(([small], np.arange(1.0, 51.0)))
        body = sum(
            integrate.quad(lambda r: area * (1 - ang(r)) * r ** (-1 - 2 * s), lo, hi)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        tail = area / (2 * s) * 50.0 ** (-2 * s)  # oscillatory part < power tail
        val = normalization_constant(d, s)
        assert val == pytest.approx(head + body + tail, rel=5e-3)


class TestFractionalLaplacian:
    def test_eigenmode(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.sin(2 * xs[0]))
        for s in (0.25, 0.5, 0.75):
            out = apply_multiplier(f, diffusion_multiplier(g, KernelSpec(s=s)))
            np.testing.assert_allclose(
                out.values, 2.0 ** (2 * s) * f.values, atol=1e-11
            )

    def test_kills_constants(self):
        g = make_grid(2, 16, 1.0)
        f = ScalarField(g, np.full(g.shape, 3.7))
        out = apply_multiplier(f, diffusion_multiplier(g, KernelSpec(s=0.5)))
        assert np.abs(out.values).max() < 1e-12

    def test_truncated_kernel_gets_the_table(self):
        g = make_grid(2, 16, 1.0)
        kern = KernelSpec(s=0.5, truncation_radius=0.25)
        np.testing.assert_array_equal(
            diffusion_multiplier(g, kern), truncated_multiplier_table(g, kern)
        )


class TestTruncatedMultiplier:
    def test_against_two_d_quadrature(self):
        # independent oracle: direct double integral over the disk in polar form
        s, rho = 0.5, 1.5
        g = make_grid(2, 16, 2 * np.pi)
        k = np.array([1.0, 2.0])
        kmag = np.sqrt((k**2).sum())

        def inner(r):
            f = lambda th: 1.0 - np.cos(r * (k[0] * np.cos(th) + k[1] * np.sin(th)))
            v, _ = integrate.quad(f, 0.0, 2 * np.pi, limit=200)
            return v * r ** (-2.0)

        ref, _ = integrate.quad(inner, 1e-8, rho, limit=400)
        ref += np.pi * kmag**2 / 2 * (1e-8)  # series head, (1-cos) ~ (k.z)^2/2
        table = truncated_multiplier_table(g, KernelSpec(s=s, truncation_radius=rho))
        val = table[1, 2] * normalization_constant(2, s)
        assert val == pytest.approx(ref, rel=1e-6)

    def test_monotone_in_rho(self):
        g = make_grid(2, 16, 2 * np.pi)
        nz = wavenumber_magnitude(g) > 0
        k = KernelSpec(s=0.5)
        tables = [truncated_multiplier_table(g, k.truncated(rho)) for rho in (0.5, 1.0, 2.0, 4.0)]
        assert all(np.all(a[nz] < b[nz]) for a, b in zip(tables, tables[1:]))

    def test_zero_wavevector(self):
        g = make_grid(2, 16, 2 * np.pi)
        assert truncated_multiplier_table(g, KernelSpec(s=0.5, truncation_radius=1.0))[0, 0] == 0.0

    def test_requires_truncation(self):
        g = make_grid(2, 16, 2 * np.pi)
        with pytest.raises(ValueError, match="truncation radius"):
            truncated_multiplier_table(g, KernelSpec(s=0.5))

    @pytest.mark.parametrize("rho", [0.5, 4.0, 32.0])
    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_profile_matches_per_wavenumber_rule(self, d, n, rho):
        g = make_grid(d, n, 4.0)
        kern = KernelSpec(s=0.75, truncation_radius=rho)
        np.testing.assert_allclose(
            truncated_multiplier_table(g, kern), per_wavenumber_table(g, kern), rtol=1e-13, atol=0
        )

    def test_table_converges_to_full_multiplier(self):
        g = make_grid(2, 16, 4.0)
        kern = KernelSpec(s=0.75)
        kmag = wavenumber_magnitude(g)
        nz = kmag > 0
        errs = []
        for rho in (8.0, 32.0):
            tab = truncated_multiplier_table(g, kern.truncated(rho))
            errs.append(np.abs(tab[nz] - kmag[nz] ** 1.5).max())
        assert errs[1] < errs[0] / 4  # ~rho^(-2s) decay
        assert errs[1] < 0.02

    def test_truncated_operator_on_eigenmode(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.cos(3 * xs[1]))
        kern = KernelSpec(s=0.5, truncation_radius=50.0)
        out = apply_multiplier(f, truncated_multiplier_table(g, kern))
        np.testing.assert_allclose(out.values, 3.0 * f.values, atol=0.06)


class TestGradient:
    def test_analytic(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.sin(xs[0]) * np.cos(2 * xs[1]))
        gx, gy = (apply_multiplier(f, 1j * k).values for k in wavevectors(g))
        np.testing.assert_allclose(gx, np.cos(xs[0]) * np.cos(2 * xs[1]), atol=1e-11)
        np.testing.assert_allclose(gy, -2 * np.sin(xs[0]) * np.sin(2 * xs[1]), atol=1e-11)


class TestBiotSavart:
    def test_single_mode(self):
        # u = sin(x1): uhat at k=(1,0); b = (0, cos(x1))
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        u = ScalarField(g, np.sin(xs[0]))
        b = biot_savart_sqg(u)
        np.testing.assert_allclose(b.components[0].values, 0.0, atol=1e-12)
        np.testing.assert_allclose(b.components[1].values, np.cos(xs[0]), atol=1e-12)

    def test_divergence_free(self):
        g = make_grid(2, 32, 2 * np.pi)
        rng = np.random.default_rng(3)
        u = ScalarField(g, rng.standard_normal(g.shape))
        b = biot_savart_sqg(u)
        assert b.divergence_free
        assert b.spectral_divergence_max() < 1e-10 * b.max_norm()

    def test_rejects_three_d(self):
        g = make_grid(3, 8, 1.0)
        with pytest.raises(ValueError):
            biot_savart_sqg(ScalarField(g, np.zeros(g.shape)))


class TestLerayProjection:
    def test_idempotent_and_divergence_free(self):
        g = make_grid(2, 32, 2 * np.pi)
        rng = np.random.default_rng(4)
        from nldd.fields import VectorField

        b = VectorField(
            tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2))
        )
        pb = leray_project(b)
        assert pb.spectral_divergence_max() < 1e-10 * max(pb.max_norm(), 1e-12)
        ppb = leray_project(pb)
        for c1, c2 in zip(pb.components, ppb.components):
            np.testing.assert_allclose(c1.values, c2.values, atol=1e-12)

    def test_preserves_divergence_free(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        from nldd.fields import VectorField

        b = VectorField(
            (ScalarField(g, np.cos(xs[1])), ScalarField(g, np.zeros(g.shape)))
        )
        pb = leray_project(b)
        np.testing.assert_allclose(pb.components[0].values, np.cos(xs[1]), atol=1e-12)
