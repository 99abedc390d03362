import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.ndimage import map_coordinates

from nldd.config import lacunary_drift, shear_drift
from nldd.evolution import TrajectoryStore
from nldd import potentials
from nldd.fields import GridSpec, ScalarField, VectorField, ball_mask, grid_coordinates, make_grid
from nldd.measures import Cylinder, DensityTrack, MeasureData, SlantPath
from nldd.operators import KernelSpec
from nldd.potentials import (
    TailOptions,
    _corner_buffers,
    _corners,
    _disk_quadrature,
    _gather,
    _radial_grid,
    _tail_nodes,
    bmo_seminorm,
    excess,
    interpolate_periodic,
    potential_radii,
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


def zero_path(r):
    """The path that stays at its centre: two nodes, zero samples and slopes."""
    return SlantPath(r, [-1.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


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

    @staticmethod
    def reference_corners(g, points):
        """Corner indices and weights with the remainder taken everywhere,
        one axis at a time."""
        n = g.n
        flat = np.zeros((1, *points.shape[:-1]), dtype=np.intp)
        weights = np.ones((1, *points.shape[:-1]))
        for j in range(g.d):
            coord = points[..., j] / g.spacing % n
            lower = np.floor(coord)
            frac = coord - lower
            lo = lower.astype(np.intp) % n
            flat = np.concatenate([flat * n + lo, flat * n + (lo + 1) % n])
            weights = np.concatenate([weights * (1.0 - frac), weights * frac])
        return flat, weights

    @pytest.mark.parametrize("d", [2, 3])
    def test_corners_outside_the_period_match_remainder_everywhere(self, d):
        g = make_grid(d, 16, 4.0)
        L = g.domain_length
        rng = np.random.default_rng(30 + d)
        values = np.array(
            [-0.0, -1e-300, -1e-17, L, 2.0 * L + 0.3, 5.0 * L, -3.7, -L, -2.0 * L - 0.1]
        )
        cases = np.stack(np.meshgrid(*[values] * d, indexing="ij"), axis=-1).reshape(-1, d)
        inside = rng.uniform(0.0, L, cases.shape)
        mixed = np.where(rng.random(cases.shape) < 0.5, cases, inside)
        for pts in (cases, mixed, rng.uniform(-3.0 * L, 3.0 * L, (40, 5, d))):
            flat, weights = _corners(g, pts)
            ref_flat, ref_weights = self.reference_corners(g, pts)
            np.testing.assert_array_equal(flat, ref_flat)
            np.testing.assert_array_equal(weights, ref_weights)
        # -1e-300 / h % n rounds to exactly n, which is node 0
        flat, weights = _corners(g, np.full((1, d), -1e-300))
        assert flat[0, 0] == 0 and weights[0, 0] == 1.0

    def test_non_finite_point_rejected(self):
        g = make_grid(2, 16, 4.0)
        f = np.zeros(g.shape)
        pts = np.array([[0.5, 1.0], [np.nan, 2.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match=r"interpolation point \[nan  2\.\] is not finite"):
            interpolate_periodic(f, g, pts)

    # coordinates on the torus [0, L), up to its last node or just below L;
    # at L; within one period of it; and farther out: tiny negatives, exact
    # nodes, -L and far off
    REACH = {
        "torus": lambda L, h: [0.0, -0.0, h, 3.0 * h, 0.3, 0.5 * L, L - h],
        "below-L": lambda L, h: [0.0, 0.3, L - 1e-15],
        "at-L": lambda L, h: [0.0, h, L],
        "period": lambda L, h: [-1e-17, -L, -h, 2.0 * L - 1e-15, L, L + h, -0.5 * L, 1.5 * L],
        "beyond": lambda L, h: [-1.5 * L, -L - h, 0.3, L + 0.3],
        "far": lambda L, h: [-5.3 * L, -2.0 * L - 0.1, 3.7 * L, 2.0 * L, -1e-17, L - 1e-15],
    }

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("reach", list(REACH))
    def test_static_axes_give_a_fresh_full_build(self, d, reach):
        # after a full build into a buffer set, rebuilding only the axes
        # whose coordinates change gives bitwise the corners of a fresh
        # full build, and of the remainder taken everywhere
        g = make_grid(d, 16, 4.0)
        values = np.array(self.REACH[reach](g.domain_length, g.spacing))
        rng = np.random.default_rng(50 + d)
        points = np.stack(np.meshgrid(*[values] * d, indexing="ij")).reshape(d, -1)  # axis-first
        buffers = _corner_buffers(d, points.shape[1:])
        _corners(g, points.T, out=buffers)
        subsets = [c for k in range(d + 1) for c in itertools.combinations(range(d), k)]
        for moving in subsets * 2:
            points = points.copy()
            for j in moving:
                points[j] = rng.permutation(points[j])
            got = _corners(g, points.T, out=buffers, axes=list(moving))
            for want in (_corners(g, np.ascontiguousarray(points.T)), self.reference_corners(g, points.T)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])

    def test_empty_point_sets(self):
        g = make_grid(2, 16, 4.0)
        assert interpolate_periodic(np.ones(g.shape), g, np.zeros((0, 2))).shape == (0,)
        assert slant_ode(constant_drift(g, (1.0, 0.0)), []) == []

    def test_non_finite_point_on_a_rebuilt_axis_rejected(self):
        g = make_grid(2, 16, 4.0)
        points = np.array([[0.5, 1.0, 2.0], [1.0, 2.0, 3.0]])  # axis-first
        buffers = _corner_buffers(2, (3,))
        _corners(g, points.T, out=buffers)
        points[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"interpolation point \[ 1\. nan\] is not finite"):
            _corners(g, points.T, out=buffers, axes=[1])


def record_corner_axes(monkeypatch) -> list:
    """The list of axes each later ``_corners`` call of a buffer-refilling
    caller is given, in call order."""
    built = []
    corners = potentials._corners
    monkeypatch.setattr(
        potentials,
        "_corners",
        lambda g, p, out=None, axes=None: built.append(list(axes)) or corners(g, p, out, axes),
    )
    return built


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
        path = SlantPath(r, np.linspace(-1.0, 0.0, 5), samples, np.full((5, d), -0.6), 1.0)
        q = 2.5
        Q = Cylinder(t0, x0, r, s)
        (got,) = tail_time_lq(
            traj, Q, (q,), KernelSpec(s=s), TailOptions(4.0), offset=offset, slant=path
        )
        idx = traj.window(Q.t_start, Q.t0)
        times = np.array([traj.times[i] for i in idx])
        refs = [
            reference_tail(
                ScalarField(u.grid, u.values - offset, u.time),
                x0 + r * path.at((t - t0) / r), r, s, 4.0,
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
        offsets, weights = _tail_nodes(g, r, 4.0, s)
        idx = traj.window(Q.t_start, Q.t0)
        vals = np.array([
            (weights * np.abs(interpolate_periodic(traj.snapshots[i].values, g, x0 + offsets) - offset)).sum()
            for i in idx
        ])
        ts = times[idx]
        ref = [(np.trapezoid(vals**q, ts) / (ts[-1] - ts[0])) ** (1.0 / q) for q in qs]
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_slanted_window_matches_per_centre_corners(self, d, n):
        # one buffer set refilled per centre gives bitwise fresh corners per centre
        g = make_grid(d, n, 8.0)
        times = np.linspace(0.0, 1.0, 7)
        traj = random_traj(g, 12, times)
        x0, r, s, offset, qs = np.array([3.3, 5.1, 0.2])[:d], 0.6, 0.5, 0.25, (1.5, 3.0)
        direction = np.array([1.0, -0.5, 0.3])[:d]
        samples = np.linspace(0.7, 0.0, 5)[:, None] * direction
        slopes = np.tile(-0.7 * direction, (5, 1))
        path = SlantPath(r, np.linspace(-1.0, 0.0, 5), samples, slopes, 1.0)
        Q = Cylinder(1.0, x0, r, s)
        got = tail_time_lq(
            traj, Q, qs, KernelSpec(s=s), TailOptions(4.0), offset=offset, slant=path
        )
        offsets, weights = _tail_nodes(g, r, 4.0, s)
        idx = traj.window(Q.t_start, Q.t0)
        ts = times[idx]
        centres = Q.centers(ts, path)
        assert np.unique(centres, axis=0).shape[0] == len(idx)
        vals = np.array([
            (weights * np.abs(_gather(traj.snapshots[i].values, _corners(g, c + offsets)) - offset)).sum()
            for i, c in zip(idx, centres)
        ])
        ref = [(np.trapezoid(vals**q, ts) / (ts[-1] - ts[0])) ** (1.0 / q) for q in qs]
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, -0.5, 0.0)])
    def test_a_window_moving_along_one_axis_matches_fresh_corners(self, monkeypatch, direction):
        # its centres are static along the other axes, whose corner parts
        # are built at the first centre only
        d = len(direction)
        g = make_grid(d, 32 if d == 2 else 16, 8.0)
        times = np.linspace(0.0, 1.0, 7)
        traj = random_traj(g, 13, times)
        x0, r, s = np.array([3.3, 5.1, 0.2])[:d], 0.6, 0.5
        direction = np.array(direction)
        samples = np.linspace(0.7, 0.0, 5)[:, None] * direction
        slopes = np.tile(-0.7 * direction, (5, 1))
        path = SlantPath(r, np.linspace(-1.0, 0.0, 5), samples, slopes, 1.0)
        Q = Cylinder(1.0, x0, r, s)
        offsets, weights = _tail_nodes(g, r, 4.0, s)
        idx = traj.window(Q.t_start, Q.t0)
        vals = np.array([
            (weights * np.abs(_gather(traj.snapshots[i].values, _corners(g, c + offsets)))).sum()
            for i, c in zip(idx, Q.centers(times[idx], path))
        ])
        ts = times[idx]
        want = (np.trapezoid(vals**2.0, ts) / (ts[-1] - ts[0])) ** 0.5
        built = record_corner_axes(monkeypatch)
        got = tail_time_lq(traj, Q, (2.0,), KernelSpec(s=s), TailOptions(4.0), slant=path)
        assert built == [list(range(d))] + [np.flatnonzero(direction).tolist()] * (len(idx) - 1)
        assert got[0] == want

    def test_a_window_of_more_than_ten_thousand_nodes_reads_the_same_on_one_and_two_blas_threads(self):
        # OpenBLAS splits a dot product of more than 10,000 terms across its
        # threads, which moves the last bits of a BLAS-summed tail
        code = """
import numpy as np
from nldd.evolution import TrajectoryStore
from nldd.fields import ScalarField, make_grid
from nldd.measures import Cylinder
from nldd.operators import KernelSpec
from nldd.potentials import TailOptions, _tail_nodes, tail_time_lq
g = make_grid(2, 128, 8.0)
rng = np.random.default_rng(7)
traj = TrajectoryStore(g)
for t in (0.0, 0.5, 1.0):
    traj.append(ScalarField(g, rng.standard_normal(g.shape), t))
Q = Cylinder(1.0, (3.3, 4.1), 0.5, 0.5)
print(_tail_nodes(g, Q.r, 4.0, 0.5)[1].size)
print(tail_time_lq(traj, Q, (1.5, 2.0), KernelSpec(s=0.5), TailOptions(4.0)).tobytes().hex())
"""
        src = str(Path(potentials.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout.split())
        assert int(outputs[0][0]) > 10_000
        assert outputs[0] == outputs[1]

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
        (path,) = slant_ode(b, [0.5], x0=(4.0, 4.0))
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
        batch = slant_ode(b, scales, x0=(3.1, 4.6))
        assert [p.r for p in batch] == scales
        for r, path in zip(scales, batch):
            (single,) = slant_ode(b, [r], x0=(3.1, 4.6))
            np.testing.assert_array_equal(path.times, single.times)
            np.testing.assert_array_equal(path.samples, single.samples)
            assert path.c1_norm == single.c1_norm
        assert np.abs(batch[0].samples).max() > 0.0

    def test_per_path_start_points_match_single_path_calls(self):
        g = make_grid(2, 32, 8.0)
        b = lacunary_drift(g, [0.3] * 5)
        scales = [1.0, 0.5, 0.3, 0.0625, 0.5]
        starts = np.array([(3.1, 4.6), (0.0, 0.0), (7.9, 0.2), (3.1, 4.6), (5.25, 2.75)])
        batch = slant_ode(b, scales, x0=starts)
        assert [p.r for p in batch] == scales
        for r, x0, path in zip(scales, starts, batch):
            (single,) = slant_ode(b, [r], x0=tuple(x0))
            np.testing.assert_array_equal(path.times, single.times)
            np.testing.assert_array_equal(path.samples, single.samples)
            assert path.c1_norm == single.c1_norm
        # the same scale from two start points gives two paths
        assert not np.array_equal(batch[1].samples, batch[4].samples)

    def test_start_point_shape_validation(self):
        g = make_grid(2, 16, 8.0)
        b = constant_drift(g, (1.0, 0.0))
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(3, 2\), got \(2, 2\)"):
            slant_ode(b, [0.5, 0.25, 1.0], x0=np.zeros((2, 2)))


def reference_slant_paths(b, scales, x0, num_steps=potentials.SLANT_STEPS):
    """slant_ode with a stage right-hand side that interpolates into fresh
    arrays: one interpolate_periodic call on the stacked components."""
    r = np.asarray(scales, dtype=float)
    grid, d = b.grid, b.grid.d
    pts_unit, wts = _disk_quadrature(d)
    components = np.stack(b.arrays())

    def rhs(z):
        centers = np.asarray(x0) + r[:, None] * z
        pts = centers[:, None, :] + r[:, None, None] * pts_unit
        means = (interpolate_periodic(components, grid, pts) * wts).sum(axis=-1)
        return np.moveaxis(means, 0, -1)

    h = -1.0 / num_steps
    z = np.zeros((r.size, d))
    zs, derivs = [z], [rhs(z)]
    for _ in range(num_steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2.0 * k1)
        k3 = rhs(z + h / 2.0 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        zs.append(z)
        derivs.append(rhs(z))
    return np.array(zs[::-1]), np.array(derivs[::-1])


class TestSlantStageBuffers:
    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_matches_fresh_interpolation(self, d, n):
        g = make_grid(d, n, 8.0)
        rng = np.random.default_rng(20 + d)
        b = VectorField(tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(d)))
        scales = [1.0, 0.7, 0.3, 0.0625, 0.5]
        x0 = np.array([3.1, 4.6, 0.4])[:d]
        paths = slant_ode(b, scales, x0=x0)
        samples, derivs = reference_slant_paths(b, scales, x0)
        for i, path in enumerate(paths):
            np.testing.assert_array_equal(path.samples, samples[:, i])
            np.testing.assert_array_equal(path.slopes, derivs[:, i])
            sup = np.linalg.norm(samples[:, i], axis=-1).max() + np.linalg.norm(
                derivs[:, i], axis=-1
            ).max()
            assert path.c1_norm == sup
        assert np.abs(samples).max() > 0.0

    @pytest.mark.parametrize("drift", ["lacunary", "zero"])
    def test_zero_components_give_the_all_component_paths(self, drift):
        # lacunary drift has a zero x2 component; the zero drift has two
        g = make_grid(2, 32, 8.0)
        b = lacunary_drift(g, [0.3] * 5) if drift == "lacunary" else constant_drift(g, (0.0, 0.0))
        scales = [1.0, 0.5, 0.0625]
        x0 = np.array([(3.1, 4.6), (0.2, 7.9), (5.0, 1.0)])
        paths = slant_ode(b, scales, x0=x0)
        samples, derivs = reference_slant_paths(b, scales, x0)
        for i, path in enumerate(paths):
            np.testing.assert_array_equal(path.samples, samples[:, i])
            np.testing.assert_array_equal(path.slopes, derivs[:, i])
            assert not np.signbit(path.samples[:, 1]).any()  # +0, as the gathered zeros gave
            assert not np.signbit(path.slopes[:, 1]).any()
        assert (np.abs(samples[..., 0]).max() > 0.0) == (drift == "lacunary")

    def test_a_zero_component_keeps_its_axis_at_positive_zero_in_3d(self, monkeypatch):
        # the stages rebuild the corner parts of axes 0 and 2 only
        g = make_grid(3, 16, 8.0)
        rng = np.random.default_rng(26)
        b = VectorField(
            (
                ScalarField(g, rng.standard_normal(g.shape)),
                ScalarField(g, np.zeros(g.shape)),
                ScalarField(g, rng.standard_normal(g.shape)),
            )
        )
        scales = [1.0, 0.5, 0.0625]
        x0 = np.array([(3.1, 4.6, 0.4), (0.2, 7.9, 7.99), (5.0, 1.0, 4.0)])
        samples, derivs = reference_slant_paths(b, scales, x0)
        built = record_corner_axes(monkeypatch)
        paths = slant_ode(b, scales, x0=x0)
        assert built == [[0, 1, 2]] + [[0, 2]] * (4 * potentials.SLANT_STEPS)
        for i, path in enumerate(paths):
            np.testing.assert_array_equal(path.samples, samples[:, i])
            np.testing.assert_array_equal(path.slopes, derivs[:, i])
            for along in (path.samples[:, 1], path.slopes[:, 1]):
                assert not along.any() and not np.signbit(along).any()
        assert np.abs(samples[..., [0, 2]]).max(axis=0).min() > 0.0  # every path moves along both

    def test_stages_gather_only_the_components_that_move(self, monkeypatch):
        g = make_grid(2, 32, 8.0)
        gathered = []
        gather = potentials._gather
        monkeypatch.setattr(
            potentials, "_gather", lambda v, *a, **k: gathered.append(v.shape[0]) or gather(v, *a, **k)
        )
        slant_ode(lacunary_drift(g, [0.3] * 5), [1.0, 0.5], x0=(3.1, 4.6))
        assert gathered == [1] * (1 + 4 * potentials.SLANT_STEPS)

    def test_each_step_reuses_the_slope_at_its_start(self, monkeypatch):
        g = make_grid(2, 32, 8.0)
        b = lacunary_drift(g, [0.3] * 5)
        calls = []
        corners = potentials._corners
        monkeypatch.setattr(
            potentials, "_corners", lambda *a, **k: calls.append(1) or corners(*a, **k)
        )
        slant_ode(b, [1.0, 0.5, 0.25], x0=(3.1, 4.6))
        assert len(calls) == 1 + 4 * potentials.SLANT_STEPS

    def test_non_finite_stage_point_rejected(self):
        g = make_grid(2, 16, 8.0)
        b = constant_drift(g, (0.5, 0.25))
        with pytest.raises(ValueError, match=r"interpolation point \[nan nan\] is not finite"):
            slant_ode(b, [0.5, 0.25], x0=(np.nan, np.nan))


class TestSlantPathsThatBend:
    """The cellular drift b = (A cos k x2, A cos k x1) bends every slant path.

    b = grad^perp psi with psi = A (sin k x1 - sin k x2) / k.  The disk rule's
    16 angles are symmetric under a quarter turn, so it damps both modes of b
    alike and psi is conserved along every ball-averaged path, up to the
    bilinear interpolation error of the right-hand side, which no step count
    removes.  Measured at n = 64 against 512 RK4 steps read by Hermite
    interpolation: 32 steps read by Hermite interpolation are 6.0 to 159
    times more accurate than 64 steps read linearly (errors 1.2e-8 to
    2.2e-4 against 1.7e-6 to 1.3e-3), and psi moves by at most 1.02e-5 A
    along the reference.
    """

    K = 2.0 * 2.0 * np.pi / 8.0
    STARTS = np.array([(1.3, 2.7), (5.05, 0.4)])
    SCALES = (0.25, 0.5, 1.0)

    def psi(self, x, amplitude):
        return amplitude * (np.sin(self.K * x[..., 0]) - np.sin(self.K * x[..., 1])) / self.K

    def drift(self, amplitude):
        g = make_grid(2, 64, 8.0)
        x1, x2 = grid_coordinates(g)
        return VectorField(
            (
                ScalarField(g, amplitude * np.cos(self.K * x2)),
                ScalarField(g, amplitude * np.cos(self.K * x1)),
            ),
            divergence_free=True,
        )

    def test_paths_along_every_axis_match_the_reference_bitwise(self):
        # every axis moves, so every stage rebuilds every axis
        b = self.drift(8.0)
        scales = np.tile(self.SCALES, len(self.STARTS))
        starts = np.repeat(self.STARTS, len(self.SCALES), axis=0)
        paths = slant_ode(b, scales, x0=starts)
        samples, derivs = reference_slant_paths(b, scales, starts)
        for i, path in enumerate(paths):
            np.testing.assert_array_equal(path.samples, samples[:, i])
            np.testing.assert_array_equal(path.slopes, derivs[:, i])
        assert np.abs(samples).max(axis=0).min() > 0.0  # every path moves along both axes

    @pytest.mark.parametrize("amplitude", [1.0, 8.0])
    def test_hermite_paths_beat_linear_reading_of_twice_the_steps(self, amplitude):
        b = self.drift(amplitude)
        scales = np.tile(self.SCALES, len(self.STARTS))
        starts = np.repeat(self.STARTS, len(self.SCALES), axis=0)
        paths = slant_ode(b, scales, x0=starts)
        linear_samples, _ = reference_slant_paths(b, scales, starts, num_steps=64)
        fine_samples, fine_slopes = reference_slant_paths(b, scales, starts, num_steps=512)
        tau, linear_times = np.linspace(-1.0, 0.0, 2001), np.linspace(-1.0, 0.0, 65)
        for i, (r, x0, path) in enumerate(zip(scales, starts, paths)):
            fine = SlantPath(
                r, np.linspace(-1.0, 0.0, 513), fine_samples[:, i], fine_slopes[:, i], 0.0
            ).at(tau)
            linear = np.stack(
                [np.interp(tau, linear_times, linear_samples[:, i, j]) for j in (0, 1)], axis=-1
            )
            hermite_error = r * np.linalg.norm(path.at(tau) - fine, axis=-1).max()
            linear_error = r * np.linalg.norm(linear - fine, axis=-1).max()
            assert linear_error > 1e-6  # the path bends: a straight one reads exactly
            assert hermite_error <= 0.25 * linear_error
            drift = np.abs(self.psi(x0 + r * fine, amplitude) - self.psi(x0, amplitude)).max()
            assert drift <= 2e-5 * amplitude


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
        path = SlantPath(
            r,
            np.array([-1.0, 0.0]),
            np.array([[0.5, -0.25], [0.0, 0.0]]),
            np.array([[-0.5, 0.25], [-0.5, 0.25]]),
            1.0,
        )
        rep = excess(traj, t0, x0, r, q, kern, opts, slant=path if slanted else None)

        def center(t):
            return x0 + r * path.at((t - t0) / r) if slanted else x0

        idx = traj.window(t0 - r, t0)  # the cylinder's time slab at s = 1/2
        times = np.array([traj.times[i] for i in idx])
        snaps = [traj.snapshots[i] for i in idx]
        means = [u.values[ball_mask(g, center(t), r)].mean() for t, u in zip(times, snaps)]
        mean_Q = float(np.trapezoid(means, times) / (times[-1] - times[0]))
        tails = np.array([
            tail(ScalarField(u.grid, u.values - mean_Q, u.time), center(t), r, kern, opts)
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

    @staticmethod
    def reference(b, scales):
        """One ball_mask per centre and scale."""
        grid = b.grid
        speed = np.sqrt(sum(c.values**2 for c in b.components))
        comp_vals = [c.values for c in b.components]
        centers = [
            tuple(i * potentials.BMO_CENTER_STRIDE * grid.spacing for i in idx)
            for idx in np.ndindex(*([grid.n // potentials.BMO_CENTER_STRIDE] * grid.d))
        ]
        c1 = 0.0
        if grid.domain_length > 2.0:
            for ct in centers:
                c1 = max(c1, float(speed[ball_mask(grid, ct, 1.0)].mean()))
        else:
            c1 = float(speed.mean())
        c2 = 0.0
        for r in scales:
            for ct in centers:
                m = ball_mask(grid, ct, r)
                means = [v[m].mean() for v in comp_vals]
                osc = np.sqrt(sum((v[m] - mu) ** 2 for v, mu in zip(comp_vals, means))).mean()
                c2 = max(c2, float(osc))
        return c1, c2

    @pytest.mark.parametrize(
        "d,n,L", [(2, 64, 8.0), (2, 48, 8.0), (2, 40, 6.0), (3, 16, 8.0), (2, 64, 2.0)]
    )
    def test_balls_by_translation_match_per_centre_masks(self, d, n, L):
        # GridSpec directly: n = 48 and 40 put the nodes off dyadic coordinates
        g = GridSpec(d=d, n=n, domain_length=L)
        rng = np.random.default_rng(n + d)
        b = VectorField(tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(d)))
        scales = [r for r in (0.5, 1.0) if g.spacing < r <= L / 2.0]
        assert bmo_seminorm(b, scales) == self.reference(b, scales)

    def test_lacunary_drift_matches_per_centre_masks(self):
        b = lacunary_drift(make_grid(2, 64, 8.0), [0.3] * 5)
        assert bmo_seminorm(b, [0.5, 1.0]) == self.reference(b, [0.5, 1.0])

    @pytest.mark.parametrize("scales", [[0.5, 1.0], [1.0, 0.5], [0.5]])
    def test_rows_of_each_radius_are_built_once(self, monkeypatch, scales):
        # C1 reads the unit balls where C2 does
        b = lacunary_drift(make_grid(2, 64, 8.0), [0.3] * 5)
        want = self.reference(b, scales)
        built = []
        ball_rows = potentials._ball_rows
        monkeypatch.setattr(potentials, "_ball_rows", lambda g, r: built.append(r) or ball_rows(g, r))
        assert bmo_seminorm(b, scales) == want
        assert sorted(built) == [0.5, 1.0]

    def test_gathers_one_slab_of_centres_at_a_time(self):
        b = lacunary_drift(make_grid(2, 128, 8.0), [0.3] * 5)
        bmo_seminorm(b, [0.5, 1.0])  # warm caches outside the trace
        tracemalloc.start()
        try:
            bmo_seminorm(b, [0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSlantedRiesz:
    @staticmethod
    def zero_paths(mu, t0, R, rho_min=None):
        """Zero slant paths for the active radii of the potential."""
        _, all_radii, active = potential_radii(mu, t0, R, 0.5, rho_min)
        return [zero_path(r) for r in all_radii[active]]

    def test_zero_path_matches_straight(self):
        kern = KernelSpec(s=0.5)
        mu = MeasureData.from_atoms(
            [(0.7, (4.6, 4.0), 1.0), (0.9, (4.0, 4.3), 0.5)], domain_length=16.0
        )
        straight = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0, rho_min=0.05)
        slanted = riesz_potential(
            mu, 1.0, (4.0, 4.0), 3.0, kern, 1.0,
            slant=self.zero_paths(mu, 1.0, 3.0, 0.05), rho_min=0.05,
        )
        assert slanted.value == pytest.approx(straight.value, rel=0.02)

    def test_paths_only_for_slabs_holding_atoms(self):
        mu = MeasureData.from_atoms(
            [(0.7, (4.6, 4.0), 1.0), (0.9, (4.0, 4.3), 0.5), (1.5, (4.0, 4.0), 2.0)],
            domain_length=16.0,
        )
        _, all_radii, active = potential_radii(mu, 1.0, 3.0, 0.5, 0.05)
        # at s = 1/2 the slab of rho is (1 - rho, 1): it holds the atom at
        # t = 0.9 exactly when rho > 0.1; the atom at t = 1.5 is in no slab
        np.testing.assert_array_equal(all_radii[active], all_radii[all_radii > 0.1])
        assert 0 < active.size < all_radii.size
        paths = self.zero_paths(mu, 1.0, 3.0, 0.05)
        prof = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, KernelSpec(s=0.5), 1.0, paths, 0.05)
        assert prof.value > 0.0

    def test_density_asks_every_radius(self):
        g = make_grid(2, 16, 8.0)
        track = DensityTrack(g, [0.0, 2.0], [np.ones(g.shape)] * 2)
        mu = MeasureData(density=track)
        _, all_radii, active = potential_radii(mu, 1.0, 1.0, 0.5, 0.1)
        np.testing.assert_array_equal(active, np.arange(all_radii.size))
        paths = [zero_path(r) for r in all_radii]
        prof = riesz_potential(mu, 1.0, (4.0, 4.0), 1.0, KernelSpec(s=0.5), 1.0, paths, 0.1)
        assert prof.value > 0.0

    @pytest.mark.parametrize("kind", ["atoms", "density"])
    def test_asks_for_the_potential_radii_at_every_centre(self, kind):
        # the slanted radii do not depend on x0, so one list of paths serves
        # every centre
        g = make_grid(2, 16, 8.0)
        if kind == "atoms":
            mu = MeasureData.from_atoms(
                [(0.7, (4.6, 4.0), 1.0), (0.9, (4.0, 4.3), 0.5), (1.5, (4.0, 4.0), 2.0)],
                domain_length=8.0,
            )
        else:
            mu = MeasureData(density=DensityTrack(g, [0.2, 0.6], [np.ones(g.shape)] * 2))
        _, all_radii, active = potential_radii(mu, 1.0, 0.8, 0.5)
        paths = self.zero_paths(mu, 1.0, 0.8)
        for x0 in ((4.0, 4.0), (1.3, 6.2)):
            slanted = riesz_potential(mu, 1.0, x0, 0.8, KernelSpec(s=0.5), 1.0, paths)
            np.testing.assert_array_equal(slanted.radii, potential_radii(mu, 1.0, 0.8, 0.5)[0])
        assert 0 < active.size < all_radii.size

    def test_rejects_paths_of_other_radii(self):
        mu = MeasureData.from_atoms([(0.7, (4.6, 4.0), 1.0)], domain_length=16.0)
        kern = KernelSpec(s=0.5)
        paths = self.zero_paths(mu, 1.0, 1.0)
        assert riesz_potential(mu, 1.0, (4.0, 4.0), 1.0, kern, 1.0, paths).value > 0.0
        nudged = [zero_path(np.nextafter(p.r, 1.0)) for p in paths]
        for wrong in (paths[:-1], paths + paths[-1:], nudged, []):
            with pytest.raises(ValueError, match=f"{len(paths)} of them, but got {len(wrong)} paths"):
                riesz_potential(mu, 1.0, (4.0, 4.0), 1.0, kern, 1.0, wrong)

    def test_straight_grid_holds_the_atom_breakpoints(self):
        mu = MeasureData.from_atoms([(0.75, (4.0, 4.0), 1.0)], domain_length=16.0)
        prof = riesz_potential(mu, 1.0, (4.0, 4.0), 3.0, KernelSpec(s=0.5), 1.0, rho_min=0.05)
        entry = 0.25  # max((t0 - t)^(1/2s), |x - x0|)
        radii, _, _ = potential_radii(mu, 1.0, 3.0, 0.5, 0.05, breaks=np.array([entry]))
        np.testing.assert_array_equal(prof.radii, radii)
        assert entry in radii and entry not in potential_radii(mu, 1.0, 3.0, 0.5, 0.05)[0]
