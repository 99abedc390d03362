import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldd.fields import (
    GridSpec,
    ScalarField,
    SpectralField,
    VectorField,
    ball_mask,
    dealias_mask,
    forward,
    grid_coordinates,
    grid_distance,
    inverse,
    make_grid,
    torus_distance,
    wavenumber_magnitude,
    wavevectors,
)


class TestMakeGrid:
    def test_basic(self):
        g = make_grid(2, 64, 2 * np.pi)
        assert g.shape == (64, 64)
        assert g.num_points == 64**2
        assert g.spacing == pytest.approx(2 * np.pi / 64)
        assert g.cell_volume == pytest.approx((2 * np.pi / 64) ** 2)

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_bad_dimension(self, d):
        with pytest.raises(ValueError):
            make_grid(d, 64, 1.0)

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_bad_size(self, n):
        with pytest.raises(ValueError):
            make_grid(2, n, 1.0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            make_grid(2, 64, -1.0)


class TestTransforms:
    def test_roundtrip_identity(self):
        g = make_grid(2, 32, 2 * np.pi)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        back = inverse(forward(f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)

    def test_single_mode_eigenvalue(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.sin(3 * xs[0]))
        fhat = forward(f).coefficients
        # energy concentrated on |m1| = 3
        idx = np.argwhere(np.abs(fhat) > 1e-8)
        assert set(idx[:, 0]) == {3, 29}
        assert set(idx[:, 1]) == {0}


class TestDealias:
    def test_mask_two_thirds(self):
        g = make_grid(2, 16, 1.0)
        mask = dealias_mask(g)
        m = np.fft.fftfreq(16) * 16
        for i in range(16):
            for j in range(16):
                assert mask[i, j] == (abs(m[i]) <= 16 / 3 and abs(m[j]) <= 16 / 3)

    def test_dealias_removes_high_modes(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.cos(15 * xs[0]))
        cleaned = inverse(SpectralField(g, forward(f).coefficients * dealias_mask(g)))
        assert np.abs(cleaned.values).max() < 1e-12


class TestTorusDistance:
    def test_wraparound(self):
        p = np.array([0.1, 0.0])
        c = np.array([9.9, 0.0])
        assert torus_distance(p, c, 10.0) == pytest.approx(0.2)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(0.0, 10.0), y=st.floats(0.0, 10.0),
        cx=st.floats(0.0, 10.0), cy=st.floats(0.0, 10.0),
    )
    def test_bounded_by_half_diagonal(self, x, y, cx, cy):
        dist = torus_distance(np.array([x, y]), np.array([cx, cy]), 10.0)
        assert dist <= 10.0 * np.sqrt(2) / 2 + 1e-12

    def test_symmetry(self):
        a, b = np.array([1.0, 2.0]), np.array([7.5, 0.3])
        assert torus_distance(a, b, 8.0) == pytest.approx(torus_distance(b, a, 8.0))

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("where", ["aligned", "off-grid", "outside"])
    def test_grid_helpers_match_stacked_reference(self, d, n, where):
        g = make_grid(d, n, 8.0)
        h = g.spacing
        center = {
            "aligned": np.full(d, 5.0 * h),
            "off-grid": np.linspace(0.37, 7.61, d),
            "outside": np.array([-1.3, 9.7, 17.25][:d]),
        }[where]
        reference = torus_distance(np.stack(grid_coordinates(g), axis=-1), center, 8.0)
        assert np.array_equal(grid_distance(g, center), reference)
        # 4h is an exact grid distance from an aligned center: pins the strict <
        for r in (4.0 * h, 2.5):
            assert np.array_equal(ball_mask(g, center, r), reference < r)


class TestFields:
    def test_scalar_field_shape_coercion(self):
        g = make_grid(2, 8, 1.0)
        f = ScalarField(g, np.arange(64, dtype=float))
        assert f.values.shape == (8, 8)
        assert f.samples[9] == 9.0

    def test_scalar_field_rejects_nan(self):
        g = make_grid(2, 8, 1.0)
        vals = np.zeros(g.shape)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, vals)

    def test_vector_field_divergence_assertion(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        # b = (cos x2, 0) is divergence-free
        ok = VectorField(
            (ScalarField(g, np.cos(xs[1])), ScalarField(g, np.zeros(g.shape))),
            divergence_free=True,
        )
        assert ok.spectral_divergence_max() < 1e-10
        with pytest.raises(ValueError):
            VectorField(
                (ScalarField(g, np.cos(xs[0])), ScalarField(g, np.zeros(g.shape))),
                divergence_free=True,
            )

    def test_wavenumber_magnitude_convention(self):
        g = make_grid(2, 16, 4.0)
        ks = wavevectors(g)
        assert ks[0][1, 0] == pytest.approx(2 * np.pi / 4.0)
        kmag = wavenumber_magnitude(g)
        assert kmag[0, 0] == 0.0
        assert kmag[1, 0] == pytest.approx(2 * np.pi / 4.0)
