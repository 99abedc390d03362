import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldd.config import ExperimentConfig
from nldd.fields import (
    ScalarField,
    VectorField,
    ball_mask,
    grid_coordinates,
    make_grid,
    torus_distance,
)
from nldd.measures import (
    Cylinder,
    DensityTrack,
    MeasureData,
    SlantPath,
    cylinder_mass,
    cylinder_masses,
    slanted_cylinder_mass,
)
from nldd.operators import KernelSpec
from nldd.potentials import potential_radii, riesz_potential, slant_ode


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

    def test_requires_domain_length(self):
        mu = MeasureData.from_atoms([(0.5, (0, 0), 1.0)])
        with pytest.raises(ValueError):
            cylinder_mass(mu, Cylinder(1.0, (0.0, 0.0), 1.0, 0.5))


class TestDensityMass:
    def _uniform_track(self, value=2.0):
        g = make_grid(2, 32, 4.0)
        return g, DensityTrack(g, 0.0, 2.0, np.full(g.shape, value))

    def test_cylinder_mass_matches_disc_area(self):
        g, track = self._uniform_track()
        mu = MeasureData(density=track)
        Q = Cylinder(t0=1.5, x0=(2.0, 2.0), r=1.0, s=0.5)
        expected = 2.0 * np.pi * 1.0**2 * Q.time_depth
        assert cylinder_mass(mu, Q) == pytest.approx(expected, rel=0.05)

    def test_straight_mass_is_one_node_sum_times_the_overlap(self):
        # the ball holds |rho| at its nodes over the part of the slab that
        # meets [t_start, t_end]: the slab (1.75, 2.5) meets [0, 2] in 0.25
        g, track = self._uniform_track()
        Q = Cylinder(t0=2.5, x0=(2.0, 2.0), r=0.75, s=0.5)
        nodes = ball_mask(g, Q.x0, Q.r).sum()
        assert track.mass(Q) == pytest.approx(2.0 * nodes * g.cell_volume * 0.25, rel=1e-14)
        assert track.mass(Cylinder(t0=3.0, x0=(2.0, 2.0), r=0.75, s=0.5)) == 0.0

    @pytest.mark.parametrize("t_end", [1.0, 0.5])
    def test_rejects_an_empty_interval(self, t_end):
        g = make_grid(2, 8, 1.0)
        with pytest.raises(ValueError, match="density t_end = .* must exceed t_start = 1"):
            DensityTrack(g, 1.0, t_end, np.ones(g.shape))


class TestScaling:
    @settings(max_examples=20, deadline=None)
    @given(factor=st.floats(0.1, 10.0))
    def test_mass_scales_linearly(self, factor):
        g = make_grid(2, 16, 4.0)
        track = DensityTrack(g, 0.0, 1.0, np.ones(g.shape))
        mu = MeasureData.from_atoms([(0.5, (1.0, 1.0), 2.0)], domain_length=4.0)
        mu.density = track
        Q = Cylinder(t0=1.0, x0=(1.0, 1.0), r=1.5, s=0.5)
        base = cylinder_mass(mu, Q)
        assert cylinder_mass(mu.scaled(factor), Q) == pytest.approx(
            factor * base, rel=1e-12
        )


def _random_measure(seed, with_density):
    """Twelve signed atoms on [0, 1.5] x T^2_8, and a random density profile
    on [0, 1.2] if asked for."""
    rng = np.random.default_rng(seed)
    n = 12
    mu = MeasureData(
        atom_times=rng.uniform(0.0, 1.5, n),
        atom_positions=rng.uniform(0.0, 8.0, (n, 2)),
        atom_masses=rng.uniform(-2.0, 2.0, n),
        domain_length=8.0,
    )
    if with_density:
        g = make_grid(2, 16, 8.0)
        mu.density = DensityTrack(g, 0.0, 1.2, rng.random(g.shape))
    return mu


def _bending_drift():
    """b = (0.8 cos(k x_2), 0.6 cos(k x_1)) on T^2_8: divergence-free, with
    slant paths that bend."""
    g = make_grid(2, 16, 8.0)
    xs = grid_coordinates(g)
    k = 2.0 * np.pi / g.domain_length
    return VectorField(
        (ScalarField(g, 0.8 * np.cos(k * xs[1])), ScalarField(g, 0.6 * np.cos(k * xs[0])))
    )


class TestStraightMasses:
    @pytest.mark.parametrize("with_density", [False, True])
    def test_match_cylinder_mass_bitwise(self, with_density):
        # the radii riesz_potential asks for: atom entry radii as breakpoints,
        # so some atoms sit on a ball's edge or a slab's start
        t0, x0, s = 1.0, np.array([3.0, 5.0]), 0.75
        mu = _random_measure(9, with_density)
        dist = torus_distance(mu.atom_positions, x0, 8.0)
        entry = np.maximum(np.abs(t0 - mu.atom_times) ** (1.0 / (2.0 * s)), dist)
        radii = np.concatenate([np.geomspace(0.05, 4.0, 40), entry[entry < 4.0]])
        got = cylinder_masses(mu, t0, x0, radii, s)
        want = [cylinder_mass(mu, Cylinder(t0, tuple(x0), r, s)) for r in radii]
        assert got.tobytes() == np.array(want).tobytes()
        assert 0.0 < got.max()


def loop_masses(mu, t0, x0, radii, s, paths=None):
    """The atom masses of cylinder_masses radius by radius: each radius's own
    slab start, distances and inside-set, and its own sum."""
    masses = []
    for i, rho in enumerate(radii):
        centers = x0 if paths is None else x0 + rho * paths[i].at((mu.atom_times - t0) / rho)
        dist = torus_distance(mu.atom_positions, centers, mu.domain_length)
        inside = (mu.atom_times > t0 - rho ** (2.0 * s)) & (mu.atom_times < t0) & (dist < rho)
        masses.append(np.abs(mu.atom_masses[inside]).sum())
    return np.array(masses)


class TestOnePassMasses:
    """cylinder_masses sums each run of equal inside-sets once; every radius
    must still get bitwise the sum of its own atoms.  Nine atoms take numpy's
    8-way unrolled pairwise sum, fewer a plain loop."""

    @staticmethod
    def measure(num_atoms, seed):
        rng = np.random.default_rng(seed)
        return MeasureData(
            atom_times=rng.uniform(0.0, 1.0, num_atoms),
            atom_positions=np.array([3.0, 5.0]) + rng.uniform(-1.0, 1.0, (num_atoms, 2)),
            atom_masses=rng.uniform(-2.0, 2.0, num_atoms) * 10.0 ** rng.uniform(-8, 8, num_atoms),
            domain_length=8.0,
        )

    @pytest.mark.parametrize("num_atoms", [1, 3, 9])
    @pytest.mark.parametrize("s", [0.5, 0.75])
    def test_straight_match_the_per_radius_loop(self, num_atoms, s):
        t0, x0 = 1.0, np.array([3.0, 5.0])
        mu = self.measure(num_atoms, 10)
        # the radii of a straight riesz_potential: entry radii as breakpoints,
        # then the interval midpoints, so the radii rise twice
        dist = torus_distance(mu.atom_positions, x0, 8.0)
        entry = np.maximum((t0 - mu.atom_times) ** (1.0 / (2.0 * s)), dist)
        _, all_radii, active = potential_radii(mu, t0, 2.0, s, 1e-3, entry[entry < 2.0])
        radii = all_radii[active]
        got = cylinder_masses(mu, t0, x0, radii, s)
        assert got.tobytes() == loop_masses(mu, t0, x0, radii, s).tobytes()
        assert np.unique(got).size == num_atoms + (got.min() == 0.0)

    @pytest.mark.parametrize("num_atoms", [3, 9])
    def test_slanted_match_the_per_radius_loop(self, num_atoms):
        t0, x0, s = 1.0, np.array([3.0, 5.0]), 0.5
        mu = self.measure(num_atoms, 20 + num_atoms)
        _, all_radii, active = potential_radii(mu, t0, 1.0, s, 1e-3)
        radii = all_radii[active]
        paths = slant_ode(_bending_drift(), radii, x0=x0)
        got = cylinder_masses(mu, t0, x0, radii, s, paths)
        assert got.tobytes() == loop_masses(mu, t0, x0, radii, s, paths).tobytes()
        assert got.tobytes() != cylinder_masses(mu, t0, x0, radii, s).tobytes()

    def test_paths_of_several_calls_match_the_per_radius_loop(self):
        # paths on different time grids are read one run of shared grids at a time
        t0, x0, s = 1.0, np.array([3.0, 5.0]), 0.5
        mu = self.measure(9, 31)
        radii = np.geomspace(0.05, 1.0, 12)
        paths = [
            *slant_ode(_bending_drift(), radii[:5], x0=x0),
            SlantPath(radii[5], [-1.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), 0.0),
            *slant_ode(_bending_drift(), radii[6:], x0=x0),
        ]
        got = cylinder_masses(mu, t0, x0, radii, s, paths)
        assert got.tobytes() == loop_masses(mu, t0, x0, radii, s, paths).tobytes()

    def test_path_count_must_match_the_radii(self):
        mu = self.measure(3, 1)
        paths = slant_ode(_bending_drift(), [0.5, 0.25], x0=(3.0, 5.0))
        with pytest.raises(ValueError, match="2 slant paths for 3 radii"):
            cylinder_masses(mu, 1.0, (3.0, 5.0), [0.5, 0.25, 0.1], 0.5, paths)


class TestPinnedMasses:
    """riesz_potential and cylinder_mass on atoms, and on atoms plus an
    inverse_power density at n = 32, as one cylinder-mass function computed
    them when it replaced the straight and slanted copies it merged.

    The density entries come from node sums over ball masks, which are wrong
    below the grid scale (ROADMAP item 2); fixing that moves them on purpose,
    most of all the straight value at the default rho_min.  The slanted
    density entries also depend on the time rule of a moving ball's mass
    (``measures.DENSITY_TIME_NODES``).  The atom entries should not move.
    """

    T0, X0, R, RHO_MIN = 0.9, (3.5, 4.0), 1.0, 1e-2
    PINNED = {
        False: {
            "straight": 14.694444444444422,
            "straight_default_rho_min": 14.69444444444442,
            "zero_paths": 14.958061939254872,
            "slant_paths": 14.099843144052812,
            "mass_0.3": 1.5,
            "mass_0.3_slanted": 1.5,
            "mass_0.7": 2.0,
            "mass_0.7_slanted": 2.0,
        },
        True: {
            "straight": 27.691189707891063,
            "straight_default_rho_min": 1110.1763952718259,
            "zero_paths": 27.954811949910106,
            "slant_paths": 26.639090506496682,
            "mass_0.3": 1.5831866758487678,
            "mass_0.3_slanted": 1.5642300537970553,
            "mass_0.7": 2.8586314351377817,
            "mass_0.7_slanted": 2.773511696379705,
        },
    }

    @pytest.mark.parametrize("with_density", [False, True])
    def test_values_are_pinned(self, with_density):
        T0, X0, R, RHO_MIN = self.T0, self.X0, self.R, self.RHO_MIN
        grid = make_grid(2, 32, 8.0)
        measure = {
            "atoms": [
                {"t": 0.3, "x": [4.0, 4.0], "mass": 0.5},
                {"t": 0.7, "x": [2.0, 6.0], "mass": -0.25},
                {"t": 0.8, "x": [3.4, 4.2], "mass": 1.5},
            ]
        }
        if with_density:
            measure["density"] = {
                "kind": "inverse_power", "exponent": 1.2, "center": [3.0, 3.0],
                "t_start": 0.0, "t_end": 1.0,
            }
        mu = ExperimentConfig({"measure": measure}).build_measure(grid)
        kernel = KernelSpec(s=0.5)
        _, all_radii, active = potential_radii(mu, T0, R, 0.5, RHO_MIN)
        rhos = all_radii[active]
        zero = [SlantPath(r, [-1.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), 0.0) for r in rhos]
        bent = slant_ode(_bending_drift(), rhos, x0=X0)
        got = {
            "straight": riesz_potential(mu, T0, X0, R, kernel, a=1.0, rho_min=RHO_MIN).value,
            "straight_default_rho_min": riesz_potential(mu, T0, X0, R, kernel, a=1.0).value,
            "zero_paths": riesz_potential(
                mu, T0, X0, R, kernel, a=1.0, slant=zero, rho_min=RHO_MIN
            ).value,
            "slant_paths": riesz_potential(
                mu, T0, X0, R, kernel, a=1.0, slant=bent, rho_min=RHO_MIN
            ).value,
        }
        for r, path in zip((0.3, 0.7), slant_ode(_bending_drift(), [0.3, 0.7], x0=X0)):
            Q = Cylinder(T0, X0, r, 0.5)
            got[f"mass_{r}"] = cylinder_mass(mu, Q)
            got[f"mass_{r}_slanted"] = cylinder_mass(mu, Q, path)
        assert got == pytest.approx(self.PINNED[with_density], rel=1e-12, abs=0.0)


class TestSlant:
    def test_zero_path_matches_straight(self):
        mu = MeasureData.from_atoms(
            [(0.5, (1.0, 0.0), 1.0), (0.2, (3.0, 3.0), 4.0)], domain_length=8.0
        )
        Q = Cylinder(t0=1.0, x0=(0.5, 0.0), r=1.0, s=0.5)
        zero = SlantPath(Q.r, [-1.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        assert slanted_cylinder_mass(mu, Q, zero) == cylinder_mass(mu, Q)

    @pytest.mark.parametrize("with_density", [False, True])
    def test_slanted_masses_match_one_radius_calls(self, with_density):
        t0, x0, s = 1.0, np.array([3.0, 5.0]), 0.5
        mu = _random_measure(3, with_density)
        radii = np.geomspace(0.05, 1.0, 17)
        paths = slant_ode(_bending_drift(), radii, x0=x0)
        got = cylinder_masses(mu, t0, x0, radii, s, paths)
        want = [cylinder_mass(mu, Cylinder(t0, tuple(x0), r, s), p) for r, p in zip(radii, paths)]
        assert got.tobytes() == np.array(want).tobytes()
        assert got.tobytes() != cylinder_masses(mu, t0, x0, radii, s).tobytes()

    def test_translated_center_captures_moved_atom(self):
        # path drifts one unit in x1 toward the past
        ts = np.linspace(-1.0, 0.0, 5)
        path = SlantPath(
            1.0, ts, np.stack([-ts, np.zeros(5)], axis=1), np.tile([-1.0, 0.0], (5, 1)), 1.0
        )
        Q = Cylinder(t0=1.0, x0=(0.0, 0.0), r=1.0, s=0.5)
        # at t = 0.5 the center sits at x1 = 0.5
        np.testing.assert_allclose(Q.centers([0.5], path), [[0.5, 0.0]])
        far = MeasureData.from_atoms([(0.25, (1.2, 0.0), 1.0)], domain_length=8.0)
        assert cylinder_mass(far, Q) == 0.0
        assert cylinder_mass(far, Q, path) == pytest.approx(1.0)

    def test_centers_match_scalar_path_evaluation(self):
        ts = np.linspace(-1.0, 0.0, 7)
        path = SlantPath(
            0.5,
            ts,
            np.stack([ts**2 - ts, 0.3 * ts], axis=1),
            np.stack([2.0 * ts - 1.0, np.full(7, 0.3)], axis=1),
            1.0,
        )
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
        path = SlantPath(0.5, ts, np.stack([-ts, ts], axis=1), np.tile([-1.0, 1.0], (5, 1)), 1.0)
        assert cylinder_mass(mu, Q, path) == 0.0
        assert cylinder_mass(mu, Q) == 0.0

    def test_path_must_vanish_at_origin(self):
        ts = np.linspace(-1.0, 0.0, 5)
        with pytest.raises(ValueError):
            SlantPath(1.0, ts, np.ones((5, 2)), np.zeros((5, 2)), 1.0)


class TestSlantPathReading:
    """SlantPath.at: cubic Hermite interpolation of the samples and slopes."""

    def test_samples_at_the_nodes(self):
        rng = np.random.default_rng(5)
        ts = np.array([-1.0, -0.8, -0.55, -0.3, -0.1, 0.0])
        samples = rng.standard_normal((6, 2))
        samples[-1] = 0.0
        path = SlantPath(0.5, ts, samples, rng.standard_normal((6, 2)), 1.0)
        np.testing.assert_array_equal(path.at(ts), samples)
        for t, z in zip(ts, samples):
            np.testing.assert_array_equal(path.at(t), z)

    def test_reproduces_a_cubic_with_its_slopes(self):
        def z(t):
            return np.stack([t**3 - 2.0 * t**2 + 0.5 * t, -0.7 * t**3 + t], axis=-1)

        def dz(t):
            return np.stack([3.0 * t**2 - 4.0 * t + 0.5, -2.1 * t**2 + 1.0], axis=-1)

        ts = np.array([-1.0, -0.7, -0.45, -0.1, 0.0])
        path = SlantPath(0.5, ts, z(ts), dz(ts), 1.0)
        tau = np.linspace(-1.0, 0.0, 1001)
        np.testing.assert_allclose(path.at(tau), z(tau), rtol=0.0, atol=1e-14)

    def test_straight_path_stays_on_its_line_and_clamps(self):
        ts = np.linspace(-1.0, 0.0, 33)
        v = np.array([0.9, -0.4])
        path = SlantPath(1.0, ts, np.outer(ts, v), np.tile(v, (33, 1)), 1.0)
        tau = np.linspace(-1.0, 0.0, 1001)
        np.testing.assert_allclose(path.at(tau), np.outer(tau, v), rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(path.at([-3.0, -1.0]), [-v, -v])
        np.testing.assert_array_equal(path.at([0.0, 0.5]), np.zeros((2, 2)))
        assert path.at(np.zeros((4, 3))).shape == (4, 3, 2)

    @pytest.mark.parametrize(
        "times, slopes, message",
        [
            (
                np.linspace(-1.0, 0.0, 5),
                np.zeros((4, 2)),
                r"slopes of shape \(4, 2\) do not match samples of shape \(5, 2\)",
            ),
            (np.linspace(-1.0, 0.0, 5), np.zeros((5, 3)), r"slopes of shape \(5, 3\) do not"),
            (
                np.array([-1.0, -0.5, -0.5, -0.25, 0.0]),
                np.zeros((5, 2)),
                "two or more increasing time nodes",
            ),
        ],
    )
    def test_rejects_bad_slopes_or_times(self, times, slopes, message):
        with pytest.raises(ValueError, match=message):
            SlantPath(1.0, times, np.zeros((5, 2)), slopes, 1.0)
