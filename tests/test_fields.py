import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldd import fields, operators, potentials
from nldd.fields import (
    ScalarField,
    VectorField,
    ball_mask,
    dealias_columns,
    dealias_mask,
    forward_band,
    forward_half,
    grid_coordinates,
    grid_distance,
    half_spectrum,
    inverse_band,
    inverse_half,
    inverse_half_bound,
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
        back = inverse_half(np.fft.rfftn(f.values), g)
        np.testing.assert_allclose(back, f.values, atol=1e-13)

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_half_transforms_are_numpys_bitwise(self, d, n, stack):
        # the 1-d transforms in numpy's own order give rfftn and irfftn to
        # the bit, over the trailing d axes of a stack too
        g = make_grid(d, n, 2 * np.pi)
        axes = tuple(range(-d, 0))
        values = np.random.default_rng(d).standard_normal(stack + g.shape)
        want = np.fft.rfftn(values, axes=axes)
        out = np.empty_like(want)
        assert forward_half(values, g, out=out) is out
        for got in (out, forward_half(values, g)):
            assert got.tobytes() == want.tobytes()
        coeff = want.copy()
        back = np.empty_like(values)
        assert inverse_half(coeff, g, out=back) is back
        expected = np.fft.irfftn(want, s=g.shape, axes=axes)
        for got in (back, inverse_half(coeff, g)):
            assert got.tobytes() == expected.tobytes()
        assert coeff.tobytes() == want.tobytes()  # the coefficients are left as they are

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_band_transforms_are_the_full_ones_bitwise(self, d, n, stack):
        # on coefficients the two-thirds mask has cut, the band transforms
        # give forward_half's band and inverse_half's samples to the bit
        g = make_grid(d, n, 2 * np.pi)
        c = dealias_columns(g)
        rng = np.random.default_rng(d)
        values = rng.standard_normal(stack + g.shape)
        full = forward_half(values, g)
        out = np.full_like(full, np.nan)
        assert forward_band(values, g, out=out) is out
        assert out[..., :c].tobytes() == full[..., :c].tobytes()
        assert not out[..., c:].any()
        coeff = full * half_spectrum(dealias_mask(g))
        want = inverse_half(coeff, g)
        samples = np.empty_like(values)
        work = coeff.copy()
        assert inverse_band(work, g, out=samples) is samples
        assert samples.tobytes() == want.tobytes()
        assert work[..., c:].tobytes() == coeff[..., c:].tobytes()  # the zero columns stay
        # inverse_half in place in its input gives the same samples
        assert inverse_half(work := coeff.copy(), g, work=work).tobytes() == want.tobytes()

    def test_dealias_columns_are_the_masks(self):
        for d, n in ((2, 16), (2, 256), (3, 32)):
            g = make_grid(d, n, 1.0)
            kept = half_spectrum(dealias_mask(g)).any(axis=tuple(range(d - 1)))
            assert np.flatnonzero(kept).tolist() == list(range(dealias_columns(g)))

    def test_inverse_bound_is_above_the_exact_maximum(self):
        # any half spectrum, imaginary parts in the self-conjugate columns 0
        # and n/2 included
        g = make_grid(2, 32, 2 * np.pi)
        rng = np.random.default_rng(9)
        for scale in (1.0, 1e-15, 1e3):
            coeff = scale * (
                rng.standard_normal((32, 17)) + 1j * rng.standard_normal((32, 17))
            )
            assert coeff[:, [0, 16]].imag.all()
            exact = np.abs(np.fft.irfftn(coeff, s=g.shape, axes=(0, 1))).max()
            bound = inverse_half_bound(coeff, g, scratch=np.empty_like(coeff))
            assert exact <= bound <= 2.0 * np.abs(coeff).sum() * np.sqrt(2) / g.num_points
        # one interior coefficient reaches it
        coeff = np.zeros((32, 17), dtype=complex)
        coeff[3, 5] = 4.0
        bound = inverse_half_bound(coeff, g, scratch=np.empty_like(coeff))
        assert bound == np.abs(np.fft.irfftn(coeff, s=g.shape, axes=(0, 1))).max()

    def test_single_mode_eigenvalue(self):
        g = make_grid(2, 32, 2 * np.pi)
        xs = grid_coordinates(g)
        f = ScalarField(g, np.sin(3 * xs[0]))
        fhat = np.fft.fftn(f.values)
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
        cleaned = np.fft.ifftn(np.fft.fftn(f.values) * dealias_mask(g)).real
        assert np.abs(cleaned).max() < 1e-12


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
        assert f.values[1, 1] == 9.0

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


# every cached table, called with a fresh key each time: a GridSpec equal to
# the last one, or a quadrature order or dimension
CACHED_TABLES = {
    "_axis": lambda: fields._axis(make_grid(2, 16, 8.0)),
    "grid_coordinates": lambda: grid_coordinates(make_grid(2, 16, 8.0)),
    "wavevectors": lambda: wavevectors(make_grid(2, 16, 8.0)),
    "wavenumber_magnitude": lambda: wavenumber_magnitude(make_grid(2, 16, 8.0)),
    "dealias_mask": lambda: dealias_mask(make_grid(2, 16, 8.0)),
    "gradient_wavevectors": lambda: fields.gradient_wavevectors(make_grid(2, 16, 8.0)),
    "_spectral_gradient": lambda: operators._spectral_gradient(make_grid(2, 16, 8.0)),
    "_sqg_multipliers": lambda: operators._sqg_multipliers(make_grid(2, 16, 8.0)),
    "_panel_nodes": lambda: potentials._panel_nodes(12),
    "_disk_quadrature-2d": lambda: potentials._disk_quadrature(2),
    "_disk_quadrature-3d": lambda: potentials._disk_quadrature(3),
}


@pytest.mark.parametrize("name", list(CACHED_TABLES))
def test_cached_tables_are_shared_and_read_only(name):
    # one object per key, which no caller can change under the others
    table = CACHED_TABLES[name]
    first = table()
    assert table() is first
    for a in first if isinstance(first, tuple) else (first,):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
