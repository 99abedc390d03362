import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.ndimage import map_coordinates

from nldd.config import lacunary_drift, shear_drift
from nldd.evolution import SolverConfig, TrajectoryStore, solve
from nldd.fields import ScalarField, VectorField, ball_mask, grid_coordinates, make_grid
from nldd.measures import Cylinder, DensityTrack, MeasureData, SlantPath
from nldd.operators import KernelSpec
from nldd.potentials import (
    TailOptions,
    _disk_quadrature,
    _radial_grid,
    _tail_nodes,
    bmo_seminorm,
    excess,
    interpolate_periodic,
    riesz_potential,
    slant_ode,
    tail,
    tail_time_lq,
)


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, value), 0.0)


def constant_drift(grid, vec):
    return VectorField(
        tuple(ScalarField(grid, np.full(grid.shape, v)) for v in vec),
        divergence_free=True,
    )


class TestInterpolation:
    def test_exact_at_grid_points(self):
        g = make_grid(2, 16, 4.0)
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.standard_normal(g.shape))
        pts = np.stack(grid_coordinates(g), axis=-1).reshape(-1, 2)
        np.testing.assert_allclose(
            interpolate_periodic(f, g, pts), f.values.ravel(), atol=1e-13
        )

    def test_periodic_wrap(self):
        g = make_grid(2, 16, 4.0)
        f = ScalarField(g, np.arange(256, dtype=float))
        a = interpolate_periodic(f, g, np.array([[0.1, 0.2]]))
        b = interpolate_periodic(f, g, np.array([[4.1, -3.8]]))
        assert a == pytest.approx(b, abs=1e-12)

    @staticmethod
    def reference(values, g, points):
        """scipy's linear spline with periodic wrap at the same grid coordinates."""
        idx = (points / g.spacing) % g.n
        return map_coordinates(values, [idx[..., j] for j in range(g.d)], order=1, mode="grid-wrap")

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_matches_map_coordinates(self, d, n):
        g = make_grid(d, n, 4.0)
        rng = np.random.default_rng(d)
        f = rng.standard_normal(g.shape)
        nodes = np.stack(grid_coordinates(g), axis=-1).reshape(-1, d)
        cases = {
            "random": rng.uniform(-2.0 * g.domain_length, 3.0 * g.domain_length, (400, 3, d)),
            "nodes": nodes,
            # the wrap cell [n-1, n) along every axis
            "wrap": (n - 1 + rng.uniform(0.0, 1.0, (200, d))) * g.spacing,
            # % n rounds these up to exactly n, which must read node 0
            "round-up": np.full((2, d), -1e-17),
        }
        for name, pts in cases.items():
            got = interpolate_periodic(f, g, pts)
            ref = self.reference(f, g, pts)
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(f).max(), name
        np.testing.assert_array_equal(interpolate_periodic(f, g, nodes), f.ravel())
        assert interpolate_periodic(f, g, cases["round-up"])[0] == f.flat[0]

    def test_batch_matches_single_calls(self):
        g = make_grid(2, 32, 4.0)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((3, *g.shape))
        pts = rng.uniform(-4.0, 8.0, (50, 7, 2))
        got = interpolate_periodic(batch, g, pts)
        assert got.shape == (3, 50, 7)
        for k in range(3):
            np.testing.assert_array_equal(got[k], interpolate_periodic(batch[k], g, pts))

    def test_non_finite_point_rejected(self):
        g = make_grid(2, 16, 4.0)
        f = np.zeros(g.shape)
        pts = np.array([[0.5, 1.0], [np.nan, 2.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match=r"interpolation point \[nan  2\.\] is not finite"):
            interpolate_periodic(f, g, pts)


def reference_tail(v, x0, r, s, R_max, order=12):
    """The per-radius tail rule: the mean of |v| over each sphere of the
    radial grid, one interpolation per radius, then the radial sum."""
    grid, d = v.grid, v.grid.d
    x0 = np.asarray(x0, dtype=float)
    radii, w_rad = _radial_grid(r, R_max, order)
    means = np.empty(radii.size)
    for i, rho in enumerate(radii):
        if d == 2:
            m = max(32, int(np.ceil(2.0 * np.pi * rho / grid.spacing)) * 2)
            theta = 2.0 * np.pi * np.arange(m) / m
            pts = x0 + rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            means[i] = np.abs(interpolate_periodic(v, grid, pts)).mean()
        else:
            ct, wct = np.polynomial.legendre.leggauss(12)
            m = max(16, int(np.ceil(2.0 * np.pi * rho / grid.spacing)))
            phi = 2.0 * np.pi * np.arange(m) / m
            st = np.sqrt(1.0 - ct**2)
            pts = x0 + rho * np.stack(
                [np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)), np.outer(ct, np.ones(m))],
                axis=-1,
            )
            vals = np.abs(interpolate_periodic(v, grid, pts))
            means[i] = (vals.mean(axis=1) * wct).sum() / 2.0
    area = 2.0 * np.pi if d == 2 else 4.0 * np.pi
    integrand = area * radii ** (d - 1.0) * radii ** (-d - 2.0 * s) * means
    return r ** (2.0 * s) * (integrand * w_rad).sum()


def random_traj(g, seed, times):
    rng = np.random.default_rng(seed)
    base, drift = rng.standard_normal((2, *g.shape))
    traj = TrajectoryStore(g)
    for t in times:
        traj.append(ScalarField(g, base + t * drift, t))
    return traj


class TestTail:
    @pytest.mark.parametrize("d,n,s", [(2, 32, 0.5), (2, 32, 0.75), (3, 16, 0.5), (3, 16, 0.3)])
    @pytest.mark.parametrize("x0", [(4.0, 4.0, 4.0), (3.1, 4.73, 0.37)])
    def test_matches_per_radius_rule(self, d, n, s, x0):
        g = make_grid(d, n, 8.0)
        rng = np.random.default_rng(3)
        v = ScalarField(g, rng.standard_normal(g.shape))
        got = tail(v, x0[:d], 0.7, KernelSpec(s=s), TailOptions(4.0))
        ref = reference_tail(v, x0[:d], 0.7, s, 4.0)
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_time_lq_matches_per_radius_rule(self, d, n):
        # off-grid centre, slanted path and an offset together
        g = make_grid(d, n, 8.0)
        traj = random_traj(g, 4, np.linspace(0.0, 1.0, 6))
        x0, r, s, offset, t0 = np.array([3.3, 4.1, 2.9])[:d], 0.8, 0.5, 0.4, 1.0
        samples = np.linspace(0.6, 0.0, 5)[:, None] * np.ones(d)
        path = SlantPath(r, np.linspace(-1.0, 0.0, 5), samples, 1.0)
        q = 2.5
        Q = Cylinder(t0, x0, r, s)
        (got,) = tail_time_lq(
            traj, Q, (q,), KernelSpec(s=s), TailOptions(4.0), offset=offset, slant=path
        )
        idx = traj.window(Q.t_start, Q.t0)
        times = np.array([traj.times[i] for i in idx])
        refs = [
            reference_tail(
                u.with_values(u.values - offset), x0 + r * path.at((t - t0) / r), r, s, 4.0
            )
            for t, u in zip(times, (traj.snapshots[i] for i in idx))
        ]
        ref = (np.trapezoid(np.array(refs) ** q, times) / (times[-1] - times[0])) ** (1.0 / q)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_several_q_equal_per_q_calls(self):
        g = make_grid(2, 32, 8.0)
        traj = random_traj(g, 5, np.linspace(0.0, 1.0, 6))
        Q = Cylinder(1.0, (3.1, 4.6), 0.7, 0.5)
        rest = (KernelSpec(s=0.5), TailOptions(4.0))
        qs = (1.5, 2.0, 4.0)
        batch = tail_time_lq(traj, Q, qs, *rest, offset=0.3)
        singles = [tail_time_lq(traj, Q, (q,), *rest, offset=0.3)[0] for q in qs]
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_straight_window_matches_per_snapshot_interpolation(self, d, n):
        # the shared corners give bitwise the per-snapshot interpolation loop
        g = make_grid(d, n, 8.0)
        times = np.linspace(0.0, 1.0, 7)
        traj = random_traj(g, 9, times)
        x0, r, s, offset, qs = np.array([3.3, 5.1, 0.2])[:d], 0.6, 0.5, 0.25, (1.5, 3.0)
        Q = Cylinder(1.0, x0, r, s)
        got = tail_time_lq(traj, Q, qs, KernelSpec(s=s), TailOptions(4.0), offset=offset)
        offsets, weights = _tail_nodes(g, r, 4.0, 12, s)
        idx = traj.window(Q.t_start, Q.t0)
        vals = np.array([
            weights @ np.abs(interpolate_periodic(traj.snapshots[i].values, g, x0 + offsets) - offset)
            for i in idx
        ])
        ts = times[idx]
        ref = [(np.trapezoid(vals**q, ts) / (ts[-1] - ts[0])) ** (1.0 / q) for q in qs]
        np.testing.assert_array_equal(got, ref)

    def test_q_validation_names_the_value(self):
        g = make_grid(2, 16, 8.0)
        traj = random_traj(g, 6, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError, match=r"requires q > 1, got 1\.0$"):
            tail_time_lq(
                traj, Cylinder(1.0, (4.0, 4.0), 0.5, 0.5), (2.0, 1.0), KernelSpec(s=0.5),
                TailOptions(4.0),
            )

    @pytest.mark.parametrize("d,s", [(2, 0.5), (2, 0.75), (3, 0.5)])
    def test_constant_field_closed_form(self, d, s):
        n = 32 if d == 2 else 16
        g = make_grid(d, n, 8.0)
        kern = KernelSpec(s=s)
        c, r, R = 2.5, 0.5, 4.0
        v = constant_field(g, c)
        area = 2 * np.pi if d == 2 else 4 * np.pi
        expected = c * area * r ** (2 * s) * (r ** (-2 * s) - R ** (-2 * s)) / (2 * s)
        got = tail(v, [4.0] * d, r, kern, TailOptions(R))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_validation(self):
        g = make_grid(2, 16, 8.0)
        v = constant_field(g, 1.0)
        with pytest.raises(ValueError, match="L/2"):
            tail(v, (0, 0), 0.5, KernelSpec(s=0.5), TailOptions(5.0))
        with pytest.raises(ValueError, match="below"):
            tail(v, (0, 0), 4.0, KernelSpec(s=0.5), TailOptions(4.0))

    def test_time_average_of_constant(self):
        g = make_grid(2, 32, 8.0)
        traj = TrajectoryStore(g)
        for t in np.linspace(0.0, 1.0, 6):
            traj.append(ScalarField(g, np.full(g.shape, 3.0), t))
        kern = KernelSpec(s=0.5)
        opts = TailOptions(4.0)
        point = tail(traj.snapshots[0], (4.0, 4.0), 0.5, kern, opts)
        (avg,) = tail_time_lq(traj, Cylinder(1.0, (4.0, 4.0), 0.5, 0.5), (2.0,), kern, opts)
        assert avg == pytest.approx(point, rel=1e-12)

    def test_offset_removes_constant(self):
        g = make_grid(2, 32, 8.0)
        traj = TrajectoryStore(g)
        for t in (0.0, 0.5, 1.0):
            traj.append(ScalarField(g, np.full(g.shape, 3.0), t))
        (avg,) = tail_time_lq(
            traj, Cylinder(1.0, (4.0, 4.0), 0.5, 0.5), (2.0,), KernelSpec(s=0.5),
            TailOptions(4.0), offset=3.0,
        )
        assert avg == pytest.approx(0.0, abs=1e-12)


class TestRieszPotential:
    def test_single_atom_closed_form(self):
        # atom entering at radius rho* contributes m (rho*^-b - R^-b)/b
        s, a = 0.5, 1.0
        kern = KernelSpec(s=s)
        t0, tau, dist, m, R = 1.0, 0.04, 0.6, 2.0, 3.0
        mu = MeasureData.from_atoms([(t0 - tau, (4.0 + dist, 4.0), m)], domain_length=16.0)
        beta = 2 + 2 * s - a
        entry = max(tau ** (1 / (2 * s)), dist)
        expected = m * (entry ** (-beta) - R ** (-beta)) / beta
        prof = riesz_potential(mu, t0, (4.0, 4.0), R, kern, a)
        assert not prof.divergent
        assert prof.value == pytest.approx(expected, rel=1e-10)

    def test_atom_at_center_diverges(self):
        kern = KernelSpec(s=0.5)
        mu = MeasureData.from_atoms([(0.999999, (4.0, 4.0), 1.0)], domain_length=16.0)
        prof = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0, rho_min=0.01)
        assert prof.divergent
        assert prof.value == np.inf

    def test_future_atoms_ignored(self):
        kern = KernelSpec(s=0.5)
        mu = MeasureData.from_atoms([(2.0, (4.0, 4.0), 1.0)], domain_length=16.0)
        prof = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0)
        assert prof.value == 0.0

    def test_linearity_in_mass(self):
        kern = KernelSpec(s=0.75)
        mu = MeasureData.from_atoms(
            [(0.5, (3.0, 4.0), 1.0), (0.8, (5.0, 4.0), 0.5)], domain_length=16.0
        )
        base = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, kern, 1.5).value
        scaled = riesz_potential(mu.scaled(3.0), 1.0, (4.0, 4.0), 3.0, kern, 1.5).value
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_order_validation(self):
        kern = KernelSpec(s=0.5)
        mu = MeasureData.from_atoms([(0.5, (0.0, 0.0), 1.0)], domain_length=16.0)
        with pytest.raises(ValueError, match="order"):
            riesz_potential(mu, 1.0, (0.0, 0.0), 3.0, kern, 4.0)


class TestSlantOde:
    def test_constant_drift_gives_linear_path(self):
        g = make_grid(2, 32, 8.0)
        b = constant_drift(g, (0.75, -0.25))
        (path,) = slant_ode(b, [0.5], t0=1.0, x0=(4.0, 4.0))
        # dz/dt = b everywhere: z(t) = b t on [-1, 0]
        for t in (-1.0, -0.5, -0.25):
            np.testing.assert_allclose(path.at(t), [0.75 * t, -0.25 * t], atol=1e-10)
        speed = np.hypot(0.75, 0.25)
        assert path.c1_norm == pytest.approx(2.0 * speed, rel=1e-8)

    def test_zero_drift_gives_zero_path(self):
        g = make_grid(2, 16, 8.0)
        (path,) = slant_ode(constant_drift(g, (0.0, 0.0)), [1.0])
        assert np.abs(path.samples).max() == 0.0
        assert path.c1_norm == 0.0

    def test_scale_validation(self):
        g = make_grid(2, 16, 8.0)
        b = constant_drift(g, (1.0, 0.0))
        with pytest.raises(ValueError, match=r"slant scale must lie in \(0, 1\], got 2.0"):
            slant_ode(b, [2.0])
        with pytest.raises(ValueError, match=r"got 0.0$"):
            slant_ode(b, [0.5, 1.0, 0.0, 0.25])

    def test_batch_matches_single_scale_solves(self):
        g = make_grid(2, 32, 8.0)
        b = lacunary_drift(g, [0.3] * 5)
        scales = [1.0, 0.5, 0.3, 0.0625]
        batch = slant_ode(b, scales, t0=0.7, x0=(3.1, 4.6))
        assert [p.r for p in batch] == scales
        for r, path in zip(scales, batch):
            (single,) = slant_ode(b, [r], t0=0.7, x0=(3.1, 4.6))
            np.testing.assert_array_equal(path.times, single.times)
            np.testing.assert_array_equal(path.samples, single.samples)
            assert path.c1_norm == single.c1_norm
        assert np.abs(batch[0].samples).max() > 0.0


def test_disk_quadrature_matches_loop_in_3d():
    # the (radius, polar node, azimuth) loop the vectorized rule replaced
    n_rad, n_ang = 8, 16
    xg, wg = leggauss(n_rad)
    rho, w_rad = (0.5 * (xg + 1.0)) ** (1.0 / 3.0), 0.5 * wg
    ct, wct = leggauss(n_rad)
    st = np.sqrt(1.0 - ct**2)
    phi = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    pts, wts = [], []
    for i, r in enumerate(rho):
        for j in range(n_rad):
            for p in phi:
                pts.append([r * st[j] * np.cos(p), r * st[j] * np.sin(p), r * ct[j]])
                wts.append(w_rad[i] * (wct[j] / 2.0) / n_ang)
    got_pts, got_wts = _disk_quadrature(3)
    np.testing.assert_array_equal(got_pts, np.array(pts))
    np.testing.assert_array_equal(got_wts, np.array(wts))


class TestExcess:
    def _traj(self, g, fn, times):
        traj = TrajectoryStore(g)
        for t in times:
            traj.append(ScalarField(g, fn(t), t))
        return traj

    def test_constant_solution_has_zero_excess(self):
        g = make_grid(2, 32, 8.0)
        traj = self._traj(g, lambda t: np.full(g.shape, 5.0), np.linspace(0, 1, 6))
        rep = excess(traj, 1.0, (4.0, 4.0), 0.7, 2.0, KernelSpec(s=0.5), TailOptions(4.0))
        assert rep.interior == pytest.approx(0.0, abs=1e-12)
        assert rep.tail_part == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(6)
        base = rng.standard_normal(g.shape)
        times = np.linspace(0, 1, 6)
        t1 = self._traj(g, lambda t: base * (1 + t), times)
        t2 = self._traj(g, lambda t: base * (1 + t) + 10.0, times)
        kern, opts = KernelSpec(s=0.5), TailOptions(4.0)
        r1 = excess(t1, 1.0, (4.0, 4.0), 0.7, 2.0, kern, opts)
        r2 = excess(t2, 1.0, (4.0, 4.0), 0.7, 2.0, kern, opts)
        assert r2.total == pytest.approx(r1.total, rel=1e-9)

    @pytest.mark.parametrize("slanted", [False, True])
    def test_tail_part_matches_per_snapshot_loop(self, slanted):
        # reference: the tail of each recentred snapshot, one call at a time
        g = make_grid(2, 32, 8.0)
        traj = random_traj(g, 7, np.linspace(0.0, 1.0, 6))
        t0, x0, r, q = 1.0, np.array([3.25, 4.5]), 0.7, 2.0
        kern, opts = KernelSpec(s=0.5), TailOptions(4.0)
        path = SlantPath(r, np.array([-1.0, 0.0]), np.array([[0.5, -0.25], [0.0, 0.0]]), 1.0)
        rep = excess(traj, t0, x0, r, q, kern, opts, slant=path if slanted else None)

        def center(t):
            return x0 + r * path.at((t - t0) / r) if slanted else x0

        idx = traj.window(t0 - r, t0)  # the cylinder's time slab at s = 1/2
        times = np.array([traj.times[i] for i in idx])
        snaps = [traj.snapshots[i] for i in idx]
        means = [u.values[ball_mask(g, center(t), r)].mean() for t, u in zip(times, snaps)]
        mean_Q = float(np.trapezoid(means, times) / (times[-1] - times[0]))
        tails = np.array([
            tail(u.with_values(u.values - mean_Q), center(t), r, kern, opts)
            for t, u in zip(times, snaps)
        ])
        ref = (np.trapezoid(tails**q, times) / (times[-1] - times[0])) ** (1.0 / q)
        assert rep.tail_part == pytest.approx(ref, rel=1e-13)
        assert rep.tail_part > 0.0

    def test_homogeneity(self):
        g = make_grid(2, 32, 8.0)
        rng = np.random.default_rng(8)
        base = rng.standard_normal(g.shape)
        times = np.linspace(0, 1, 6)
        t1 = self._traj(g, lambda t: base, times)
        t2 = self._traj(g, lambda t: 4.0 * base, times)
        kern, opts = KernelSpec(s=0.5), TailOptions(4.0)
        r1 = excess(t1, 1.0, (4.0, 4.0), 0.7, 2.0, kern, opts)
        r2 = excess(t2, 1.0, (4.0, 4.0), 0.7, 2.0, kern, opts)
        assert r2.total == pytest.approx(4.0 * r1.total, rel=1e-9)


class TestBmoSeminorm:
    def test_constant_drift(self):
        g = make_grid(2, 32, 8.0)
        b = constant_drift(g, (2.0, 1.0))
        c1, c2 = bmo_seminorm(b, scales=[0.5, 1.0])
        assert c1 == pytest.approx(np.hypot(2.0, 1.0), rel=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)

    def test_shear_has_oscillation(self):
        g = make_grid(2, 64, 8.0)
        b = shear_drift(g, amplitude=1.0)
        c1, c2 = bmo_seminorm(b, scales=[1.0])
        assert 0.0 < c2 <= 2.0
        assert c1 <= 1.0 + 1e-9

    def test_scale_validation(self):
        g = make_grid(2, 16, 8.0)
        b = constant_drift(g, (1.0, 0.0))
        with pytest.raises(ValueError):
            bmo_seminorm(b, scales=[8.0])


class TestSlantedRiesz:
    def test_zero_path_matches_straight(self):
        kern = KernelSpec(s=0.5)
        mu = MeasureData.from_atoms(
            [(0.7, (4.6, 4.0), 1.0), (0.9, (4.0, 4.3), 0.5)], domain_length=16.0
        )
        straight = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0, rho_min=0.05)
        slanted = riesz_potential(
            mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0,
            slant=lambda rhos: [SlantPath.zero(r) for r in rhos], rho_min=0.05,
        )
        assert slanted.value == pytest.approx(straight.value, rel=0.02)

    @staticmethod
    def _requested(mu, t0, R, rho_min):
        asked = []

        def slant(rhos):
            asked.extend(rhos)
            return [SlantPath.zero(r) for r in rhos]

        prof = riesz_potential(
            mu, t0, (4.0, 4.0), R, KernelSpec(s=0.5), 1.0, slant, rho_min=rho_min
        )
        mids = np.sqrt(prof.radii[:-1] * prof.radii[1:])
        return np.sort(asked), np.sort(np.concatenate([prof.radii, mids]))

    def test_paths_only_for_slabs_holding_atoms(self):
        mu = MeasureData.from_atoms(
            [(0.7, (4.6, 4.0), 1.0), (0.9, (4.0, 4.3), 0.5), (1.5, (4.0, 4.0), 2.0)],
            domain_length=16.0,
        )
        asked, radii = self._requested(mu, 1.0, 3.0, 0.05)
        # at s = 1/2 the slab of rho is (1 - rho, 1): it holds the atom at
        # t = 0.9 exactly when rho > 0.1; the atom at t = 1.5 is in no slab
        np.testing.assert_array_equal(asked, radii[radii > 0.1])
        assert 0 < asked.size < radii.size

    def test_density_asks_every_radius(self):
        g = make_grid(2, 16, 8.0)
        track = DensityTrack(g, [0.0, 2.0], [np.ones(g.shape)] * 2)
        mu = MeasureData(density=track)
        asked, radii = self._requested(mu, 1.0, 1.0, 0.1)
        np.testing.assert_array_equal(asked, radii)
