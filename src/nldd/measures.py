"""Finite space-time measures and the parabolic cylinders that slice them.

A measure is a finite list of atoms (t_i, x_i, m_i) plus an optional
time-indexed density.  All geometry is periodic: ball membership uses the
minimum-image torus distance, and the time interval of the backward cylinder
Q_r(t0, x0) = (t0 - r^(2s), t0) x B_r(x0) is open at both ends.

The ball of a cylinder may ride along a slant path: at time t its centre is
x0 + r z_r((t - t0)/r).  ``_path_centers`` is the one place that computes
it, for any number of radii, each riding its own path; ``Cylinder.centers`` is
its one-radius call, and with no path the centre is x0, so a straight
cylinder is the slanted one with the zero path.  A slant path is plain data
(``SlantPath``): samples and slopes computed once by ``potentials.slant_ode``,
read between samples by cubic Hermite interpolation and handed to every
cylinder that rides it.
Masks and interpolation corners are built once per centre of a window
(``Cylinder.distinct_centers``): a straight window has the one centre x0, and
along a path each time has its own.

``cylinder_masses`` is the one computation of |mu|(Q_rho(t0, x0)), for many
radii, straight or each along its own path; ``cylinder_mass`` is its
one-radius call, and ``slab_holds_mass`` tells which slabs can hold mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .fields import GridSpec, ball_mask, torus_distance

__all__ = [
    "MeasureData",
    "DensityTrack",
    "Cylinder",
    "UnresolvedCylinderError",
    "SlantPath",
    "cylinder_mass",
    "cylinder_masses",
    "slab_holds_mass",
    "slanted_cylinder_mass",
]


@dataclass
class DensityTrack:
    """|rho| sampled on a grid at increasing times; d mu = rho dx dt."""

    grid: GridSpec
    times: np.ndarray
    values: list[np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("density times must be strictly increasing")
        if len(self.values) != self.times.size:
            raise ValueError("one density slice per time is required")
        self.values = [np.asarray(v, dtype=float).reshape(self.grid.shape) for v in self.values]

    def sample(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation in time, zero outside the track."""
        ts = self.times
        if t < ts[0] or t > ts[-1]:
            return np.zeros(self.grid.shape)
        i = int(np.searchsorted(ts, t, side="right") - 1)
        if i >= ts.size - 1:
            return self.values[-1].copy()
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def mass(self, Q: Cylinder, path: SlantPath | None = None) -> float:
        """Integral of |rho| over Q, its ball riding ``path``: node sums over
        one mask per ball centre, trapezoid in time."""
        lo, hi = max(Q.t_start, self.times[0]), min(Q.t0, self.times[-1])
        if hi <= lo:
            return 0.0
        interior = self.times[(self.times > lo) & (self.times < hi)]
        ts = np.concatenate(([lo], interior, [hi]))
        centers, which = Q.distinct_centers(ts, path)
        masks = [ball_mask(self.grid, c, Q.r) for c in centers]
        vals = np.array(
            [
                (np.abs(self.sample(t)) * masks[k]).sum() * self.grid.cell_volume
                for t, k in zip(ts, which)
            ]
        )
        return float(np.trapezoid(vals, ts))


@dataclass
class MeasureData:
    """Atoms plus optional density; total variation is what the potentials use."""

    atom_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    atom_positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    atom_masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    density: DensityTrack | None = None
    domain_length: float | None = None

    def __post_init__(self):
        self.atom_times = np.asarray(self.atom_times, dtype=float).reshape(-1)
        self.atom_masses = np.asarray(self.atom_masses, dtype=float).reshape(-1)
        self.atom_positions = np.atleast_2d(np.asarray(self.atom_positions, dtype=float))
        if self.atom_times.size == 0:
            self.atom_positions = self.atom_positions.reshape(0, self.atom_positions.shape[-1])
        if not (self.atom_times.size == self.atom_masses.size == len(self.atom_positions)):
            raise ValueError("atom arrays must have matching lengths")
        length = self.domain_length
        if length is None and self.density is not None:
            length = self.density.grid.domain_length
            self.domain_length = length
        if length is not None and self.atom_times.size:
            self.atom_positions = np.mod(self.atom_positions, length)
        if not np.all(np.isfinite(self.atom_masses)):
            raise ValueError("atom masses must be finite")

    @classmethod
    def from_atoms(cls, atoms, domain_length: float | None = None) -> "MeasureData":
        """atoms: iterable of (t, x, mass) with x a point."""
        atoms = list(atoms)
        if not atoms:
            return cls(domain_length=domain_length)
        return cls(
            atom_times=np.array([a[0] for a in atoms]),
            atom_positions=np.array([np.atleast_1d(a[1]) for a in atoms]),
            atom_masses=np.array([a[2] for a in atoms]),
            domain_length=domain_length,
        )

    @property
    def num_atoms(self) -> int:
        return self.atom_times.size

    def scaled(self, factor: float) -> "MeasureData":
        density = self.density
        if density is not None and factor == 0:
            density = None  # zero everywhere: it would force nothing at every step
        elif density is not None:
            density = DensityTrack(
                density.grid, density.times.copy(), [abs(factor) * v for v in density.values]
            )
        return MeasureData(
            self.atom_times.copy(),
            self.atom_positions.copy(),
            factor * self.atom_masses,
            density,
            self.domain_length,
        )


class UnresolvedCylinderError(ValueError):
    """A cylinder's time slab holds fewer than two trajectory snapshots."""


@dataclass(frozen=True)
class Cylinder:
    """Backward parabolic cylinder Q_r(t0, x0) with time depth r^(2s)."""

    t0: float
    x0: tuple[float, ...]
    r: float
    s: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("cylinder radius must be positive")
        object.__setattr__(self, "x0", tuple(float(c) for c in np.atleast_1d(self.x0)))

    @property
    def time_depth(self) -> float:
        return self.r ** (2.0 * self.s)

    @property
    def t_start(self) -> float:
        return self.t0 - self.time_depth

    def centers(self, times, path: SlantPath | None = None) -> np.ndarray:
        """Ball centres x0 + r z_r((t - t0)/r) at each time, shape (len(times), d).

        With no path every centre is x0.  A path must reach rescaled time -1,
        the start of the cylinder's time slab.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        x0 = np.asarray(self.x0)
        if path is None:
            return np.repeat(x0[None], times.size, axis=0)
        return _path_centers(self.t0, x0, np.array([self.r]), [path], times)[0]

    def distinct_centers(
        self, times, path: SlantPath | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ball centres of a window at ``times`` and, for each time, the
        index of its centre: the one centre x0 with no path, and one centre
        per time along a path."""
        size = np.size(times)
        if path is None:
            return self.centers(times[:1]), np.zeros(size, dtype=np.intp)
        return self.centers(times, path), np.arange(size)

    def window(self, traj, path: SlantPath | None = None):
        """Snapshots of ``traj`` in the closed time slab [t0 - r^(2s), t0]:
        (indices, times, centres, index of each snapshot's centre)."""
        idx = traj.window(self.t_start, self.t0)
        if len(idx) < 2:
            raise UnresolvedCylinderError(
                f"the cylinder at t0 = {self.t0:g}, r = {self.r:g} holds {len(idx)} "
                "snapshot(s); at least two are needed"
            )
        times = np.array([traj.times[i] for i in idx])
        return (idx, times, *self.distinct_centers(times, path))

    def ball_values(self, traj, path: SlantPath | None = None):
        """Times of the window's snapshots and, for each distinct ball centre,
        the window rows that share it and their values in its ball, stacked
        (rows, nodes): one mask per centre."""
        idx, times, centers, which = self.window(traj, path)
        blocks = []
        for k, center in enumerate(centers):
            mask = ball_mask(traj.grid, center, self.r)
            rows = np.flatnonzero(which == k)
            blocks.append((rows, np.stack([traj.snapshots[idx[j]].values[mask] for j in rows])))
        return times, blocks


@dataclass
class SlantPath:
    """Sampled solution z_r of the drift-averaging ODE on [-1, 0], with its
    slope dz/dtau at every sample, read between samples as the cubic Hermite
    interpolant of both (dense output)."""

    r: float
    times: np.ndarray  # shape (nt,), increasing
    samples: np.ndarray  # shape (nt, d)
    slopes: np.ndarray  # shape (nt, d)
    c1_norm: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        self.slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        if self.samples.shape[0] != self.times.size:
            raise ValueError("one path sample per time node is required")
        if self.slopes.shape != self.samples.shape:
            raise ValueError(
                f"path slopes of shape {self.slopes.shape} do not match samples of shape "
                f"{self.samples.shape}"
            )
        if self.times.size < 2 or np.any(np.diff(self.times) <= 0):
            raise ValueError("a slant path needs two or more increasing time nodes")
        at_zero = self.samples[np.argmin(np.abs(self.times))]
        if np.abs(at_zero).max() > 1e-10:
            raise ValueError("slant path must vanish at t = 0")

    def at(self, t) -> np.ndarray:
        """z_r at rescaled times t, clamped to the sampled range; shape
        (*t.shape, d).

        Cubic Hermite interpolation on the bracketing interval from the
        samples and slopes at its ends: the samples themselves at the nodes,
        and fourth-order accurate between them, the order of the RK4 steps
        of ``potentials.slant_ode``.
        """
        return _hermite(self.times, self.samples, self.slopes, t)


def _hermite(ts: np.ndarray, z: np.ndarray, dz: np.ndarray, t, first=0) -> np.ndarray:
    """The cubic Hermite reading of ``SlantPath.at`` at rescaled times t, for
    paths sampled on one time grid ``ts`` whose samples ``z`` and slopes
    ``dz`` are stacked in rows: t reads the path whose rows start at row
    ``first`` (broadcast against t).  Each output element takes the same
    arithmetic as a one-path reading."""
    t = np.minimum(np.maximum(t, ts[0]), ts[-1])
    hi = np.minimum(np.searchsorted(ts, t, side="right"), ts.size - 1)
    lo = hi - 1
    h = ts[hi] - ts[lo]
    u = (t - ts[lo]) / h
    v = 1.0 - u
    # the cubic Hermite basis: weights s of the two samples, which sum to 1,
    # and d of the two slopes, times h
    s_lo = v * v * (1.0 + 2.0 * u)
    huv = h * u * v
    s_lo, d_lo, s_hi, d_hi = (w[..., None] for w in (s_lo, huv * v, 1.0 - s_lo, -huv * u))
    lo, hi = lo + first, hi + first
    return s_lo * z[lo] + d_lo * dz[lo] + s_hi * z[hi] + d_hi * dz[hi]


def _path_centers(t0: float, x0: np.ndarray, radii: np.ndarray, paths, times) -> np.ndarray:
    """Ball centres x0 + rho z_rho((t - t0)/rho) of the cylinders of radii
    ``radii`` at t0, each riding its own path, at each of ``times``: shape
    (len(radii), len(times), d).

    A path must reach rescaled time -1, the start of the cylinder's time slab.
    Consecutive paths that share one time-grid array, as the paths of one
    ``potentials.slant_ode`` call do, are read in one Hermite evaluation.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    for rho, path in zip(radii, paths, strict=True):
        if path.times.min() > -1.0 + 1e-12:
            raise ValueError(
                f"slant path starts at rescaled time {path.times.min():g}, after -1: "
                f"it does not cover the time slab of the cylinder at t0 = {t0:g}, "
                f"r = {rho:g}"
            )
    out = np.empty((len(paths), times.size, x0.size))
    start = 0
    for _, run in groupby(paths, key=lambda path: id(path.times)):
        run = list(run)
        ts = run[0].times
        rho = radii[start : start + len(run), None]
        first = ts.size * np.arange(len(run))[:, None]
        z = np.concatenate([path.samples for path in run])
        dz = np.concatenate([path.slopes for path in run])
        out[start : start + len(run)] = x0 + rho[..., None] * _hermite(
            ts, z, dz, (times - t0) / rho, first
        )
        start += len(run)
    return out


def _require_length(mu: MeasureData) -> float:
    if mu.domain_length is None:
        raise ValueError("measure has no domain length; set it to fix the torus period")
    return mu.domain_length


def _slab_starts(t0: float, radii, s: float) -> np.ndarray:
    """The slab start t0 - rho^(2s) of ``Cylinder.t_start`` for each radius,
    one scalar power per radius: ``np.power`` on an array rounds some of
    them differently."""
    return np.array([t0 - rho ** (2.0 * s) for rho in np.asarray(radii, dtype=float).tolist()])


def slab_holds_mass(mu: MeasureData, t0: float, t_start: np.ndarray) -> np.ndarray:
    """Whether |mu| has mass in each time slab (t_start, t0), for the slab
    starts ``_slab_starts(t0, radii, s)``.  Those are the starts of
    ``Cylinder.t_start`` and ``cylinder_masses``, so a radius judged empty
    gets mass 0 on any path."""
    held = np.zeros(t_start.size, dtype=bool)
    if mu.num_atoms:
        charged = (mu.atom_times < t0) & (mu.atom_masses != 0.0)
        held |= (mu.atom_times[charged] > t_start[:, None]).any(axis=1)
    if mu.density is not None:
        ts = mu.density.times
        held |= np.minimum(t0, ts[-1]) > np.maximum(t_start, ts[0])
    return held


def cylinder_masses(
    mu: MeasureData, t0: float, x0, radii, s: float, paths=None, t_start=None
) -> np.ndarray:
    """|mu|(Q_rho(t0, x0)) for each rho in radii: the atom masses in the open
    cylinder plus the density integral, the ball riding ``paths[i]`` for
    radius i, or centred on x0 without paths.  ``t_start`` is
    ``_slab_starts(t0, radii, s)`` when the caller has it.

    The atoms take one pass over every radius at once: a table of which atoms
    lie in which cylinder, from the slab starts of ``Cylinder.t_start`` and
    the atoms' distances to x0 (computed once) or to the path centres at
    their times (``_path_centers``).  A row changes only where an atom
    enters or leaves: straight, the rows are nested in rho, so a potential's
    radii (its grid, then its midpoints, each ascending) make at most two
    runs of each distinct row.  Each run's |masses| are summed once, as
    ``np.abs(masses[row]).sum()``, so a radius gets bitwise the sum of its
    own atoms for any number of atoms.  A Cylinder is built only for the
    density."""
    length = _require_length(mu)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if paths is not None and len(paths) != radii.size:
        raise ValueError(f"{len(paths)} slant paths for {radii.size} radii")
    masses = np.zeros(radii.size)
    if mu.num_atoms:
        if t_start is None:
            t_start = _slab_starts(t0, radii, s)
        centers = x0 if paths is None else _path_centers(t0, x0, radii, paths, mu.atom_times)
        inside = (
            (mu.atom_times > t_start[:, None])
            & (mu.atom_times < t0)
            & (torus_distance(mu.atom_positions, centers, length) < radii[:, None])
        )
        # a row is summed once for each run of radii that share it
        new = np.ones(radii.size, dtype=bool)
        new[1:] = (inside[1:] != inside[:-1]).any(axis=1)
        sums = np.array([np.abs(mu.atom_masses[inside[i]]).sum() for i in np.flatnonzero(new)])
        masses = sums[np.cumsum(new) - 1]
    if mu.density is not None:
        for i, (rho, path) in enumerate(zip(radii, paths or [None] * radii.size)):
            masses[i] += mu.density.mass(Cylinder(t0, x0, rho, s), path)
    return masses


def cylinder_mass(mu: MeasureData, Q: Cylinder, path: SlantPath | None = None) -> float:
    """|mu|(Q) with the ball riding ``path``: ``cylinder_masses`` of Q.r."""
    return float(cylinder_masses(mu, Q.t0, Q.x0, [Q.r], Q.s, None if path is None else [path])[0])


def slanted_cylinder_mass(mu: MeasureData, Q: Cylinder, path: SlantPath) -> float:
    """cylinder_mass along a slant path.  Kept as a function of its own because
    the benchmark's tracer resolves ``measures.slanted_cylinder_mass`` by name."""
    return cylinder_mass(mu, Q, path)
