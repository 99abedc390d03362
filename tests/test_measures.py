import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldd.fields import make_grid
from nldd.measures import (
    Cylinder,
    DensityTrack,
    MeasureData,
    SlantPath,
    cylinder_mass,
    slanted_cylinder_mass,
)


class TestCylinder:
    def test_time_depth(self):
        Q = Cylinder(t0=2.0, x0=(0.0, 0.0), r=0.5, s=0.75)
        assert Q.time_depth == pytest.approx(0.5**1.5)
        assert Q.t_start == pytest.approx(2.0 - 0.5**1.5)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Cylinder(0.0, (0.0, 0.0), 0.0, 0.5)


class TestAtomMass:
    def test_open_interval_excludes_boundary_times(self):
        # atoms exactly at t_start or t0 do not count
        mu = MeasureData.from_atoms(
            [(1.0, (0, 0), 1.0), (2.0, (0, 0), 1.0), (1.5, (0, 0), 1.0)],
            domain_length=8.0,
        )
        Q = Cylinder(t0=2.0, x0=(0.0, 0.0), r=1.0, s=0.5)  # depth 1, (1, 2)
        assert cylinder_mass(mu, Q) == pytest.approx(1.0)

    def test_open_ball_excludes_boundary_atoms(self):
        mu = MeasureData.from_atoms(
            [(0.5, (1.0, 0.0), 3.0), (0.5, (0.5, 0.0), 2.0)], domain_length=8.0
        )
        Q = Cylinder(t0=1.0, x0=(0.0, 0.0), r=1.0, s=0.5)
        assert cylinder_mass(mu, Q) == pytest.approx(2.0)

    def test_periodic_wraparound(self):
        mu = MeasureData.from_atoms([(0.75, (7.9, 0.0), 1.0)], domain_length=8.0)
        Q = Cylinder(t0=1.0, x0=(0.1, 0.0), r=0.5, s=0.5)
        assert cylinder_mass(mu, Q) == pytest.approx(1.0)

    def test_total_variation_of_signed_atoms(self):
        mu = MeasureData.from_atoms(
            [(0.5, (0, 0), 1.0), (0.6, (0, 0), -2.0)], domain_length=8.0
        )
        Q = Cylinder(t0=1.0, x0=(0.0, 0.0), r=1.0, s=0.5)
        assert cylinder_mass(mu, Q) == pytest.approx(3.0)
        assert mu.total_mass == pytest.approx(3.0)

    def test_requires_domain_length(self):
        mu = MeasureData.from_atoms([(0.5, (0, 0), 1.0)])
        with pytest.raises(ValueError):
            cylinder_mass(mu, Cylinder(1.0, (0.0, 0.0), 1.0, 0.5))


class TestDensityMass:
    def _uniform_track(self, value=2.0):
        g = make_grid(2, 32, 4.0)
        times = np.array([0.0, 1.0, 2.0])
        return g, DensityTrack(g, times, [np.full(g.shape, value)] * 3)

    def test_total_mass_uniform(self):
        g, track = self._uniform_track()
        # 2 * L^2 * T = 2 * 16 * 2
        assert track.total_mass() == pytest.approx(64.0)

    def test_cylinder_mass_matches_disc_area(self):
        g, track = self._uniform_track()
        mu = MeasureData(density=track)
        Q = Cylinder(t0=1.5, x0=(2.0, 2.0), r=1.0, s=0.5)
        expected = 2.0 * np.pi * 1.0**2 * Q.time_depth
        assert cylinder_mass(mu, Q) == pytest.approx(expected, rel=0.05)

    def test_sample_interpolates(self):
        g = make_grid(2, 8, 1.0)
        track = DensityTrack(
            g, [0.0, 1.0], [np.zeros(g.shape), np.ones(g.shape)]
        )
        assert track.sample(0.25).mean() == pytest.approx(0.25)
        assert track.sample(-1.0).max() == 0.0
        assert track.sample(5.0).max() == 0.0

    def test_rejects_unsorted_times(self):
        g = make_grid(2, 8, 1.0)
        with pytest.raises(ValueError):
            DensityTrack(g, [1.0, 0.5], [np.zeros(g.shape)] * 2)


class TestScaling:
    @settings(max_examples=20, deadline=None)
    @given(factor=st.floats(0.1, 10.0))
    def test_mass_scales_linearly(self, factor):
        g = make_grid(2, 16, 4.0)
        track = DensityTrack(g, [0.0, 1.0], [np.ones(g.shape)] * 2)
        mu = MeasureData.from_atoms([(0.5, (1.0, 1.0), 2.0)], domain_length=4.0)
        mu.density = track
        Q = Cylinder(t0=1.0, x0=(1.0, 1.0), r=1.5, s=0.5)
        base = cylinder_mass(mu, Q)
        assert cylinder_mass(mu.scaled(factor), Q) == pytest.approx(
            factor * base, rel=1e-12
        )


class TestSlant:
    def test_zero_path_matches_straight(self):
        mu = MeasureData.from_atoms(
            [(0.5, (1.0, 0.0), 1.0), (0.2, (3.0, 3.0), 4.0)], domain_length=8.0
        )
        Q = Cylinder(t0=1.0, x0=(0.5, 0.0), r=1.0, s=0.5)
        assert slanted_cylinder_mass(mu, Q, SlantPath.zero(Q.r)) == cylinder_mass(mu, Q)

    def test_translated_center_captures_moved_atom(self):
        # path drifts one unit in x1 toward the past
        ts = np.linspace(-1.0, 0.0, 5)
        path = SlantPath(1.0, ts, np.stack([-ts, np.zeros(5)], axis=1), 1.0)
        Q = Cylinder(t0=1.0, x0=(0.0, 0.0), r=1.0, s=0.5)
        # at t = 0.5 the center sits at x1 = 0.5
        np.testing.assert_allclose(Q.centers([0.5], path), [[0.5, 0.0]])
        far = MeasureData.from_atoms([(0.25, (1.2, 0.0), 1.0)], domain_length=8.0)
        assert cylinder_mass(far, Q) == 0.0
        assert cylinder_mass(far, Q, path) == pytest.approx(1.0)

    def test_centers_match_scalar_path_evaluation(self):
        ts = np.linspace(-1.0, 0.0, 7)
        path = SlantPath(0.5, ts, np.stack([ts**2 - ts, 0.3 * ts], axis=1), 1.0)
        Q = Cylinder(t0=1.0, x0=(2.0, 3.0), r=0.5, s=0.5)
        times = np.linspace(0.5, 1.0, 11)
        expected = [np.asarray(Q.x0) + Q.r * path.at((t - Q.t0) / Q.r) for t in times]
        np.testing.assert_array_equal(Q.centers(times, path), expected)
        np.testing.assert_array_equal(Q.centers(times), [Q.x0] * times.size)

    def test_empty_slab_has_no_mass(self):
        # atoms before and after the slab (0.5, 1): no centre is needed
        mu = MeasureData.from_atoms(
            [(0.2, (0.0, 0.0), 1.0), (1.5, (0.0, 0.0), 2.0)], domain_length=8.0
        )
        Q = Cylinder(t0=1.0, x0=(0.0, 0.0), r=0.5, s=0.5)
        ts = np.linspace(-1.0, 0.0, 5)
        path = SlantPath(0.5, ts, np.stack([-ts, ts], axis=1), 1.0)
        assert cylinder_mass(mu, Q, path) == 0.0
        assert cylinder_mass(mu, Q) == 0.0

    def test_path_must_vanish_at_origin(self):
        ts = np.linspace(-1.0, 0.0, 5)
        with pytest.raises(ValueError):
            SlantPath(1.0, ts, np.ones((5, 2)), 1.0)

