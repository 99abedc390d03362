"""Finite space-time measures and the parabolic cylinders that slice them.

A measure is a finite list of atoms (t_i, x_i, m_i) plus an optional
time-indexed density.  All geometry is periodic: ball membership uses the
minimum-image torus distance, and the time interval of the backward cylinder
Q_r(t0, x0) = (t0 - r^(2s), t0) x B_r(x0) is open at both ends.

The ball of a cylinder may ride along a slant path: at time t its centre is
x0 + r z_r((t - t0)/r).  ``Cylinder.centers`` is the one place that computes
it; with no path the centre is x0, so a straight cylinder is the slanted one
with the zero path.  Masks and interpolation corners are built once per
distinct centre (``Cylinder.distinct_centers``): once for a straight window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import GridSpec, ball_mask, torus_distance

__all__ = [
    "MeasureData",
    "DensityTrack",
    "Cylinder",
    "SlantPath",
    "cylinder_mass",
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

    def total_mass(self) -> float:
        if self.times.size < 2:
            return 0.0
        slice_masses = np.array(
            [np.abs(v).sum() * self.grid.cell_volume for v in self.values]
        )
        return float(np.trapezoid(slice_masses, self.times))

    def windowed_spatial_mass(self, t0: float, t1: float, masks_at) -> float:
        """Integral of |rho| over (t0, t1) x {mask}, trapezoid in time.

        ``masks_at(ts)`` returns one boolean array selecting cells per time in ts.
        """
        lo, hi = max(t0, self.times[0]), min(t1, self.times[-1])
        if hi <= lo:
            return 0.0
        interior = self.times[(self.times > lo) & (self.times < hi)]
        ts = np.concatenate(([lo], interior, [hi]))
        vals = np.array(
            [
                (np.abs(self.sample(t)) * mask).sum() * self.grid.cell_volume
                for t, mask in zip(ts, masks_at(ts))
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

    @classmethod
    def empty(cls, domain_length: float | None = None) -> "MeasureData":
        return cls(domain_length=domain_length)

    @property
    def num_atoms(self) -> int:
        return self.atom_times.size

    @property
    def total_mass(self) -> float:
        total = float(np.abs(self.atom_masses).sum())
        if self.density is not None:
            total += self.density.total_mass()
        return total

    def scaled(self, factor: float) -> "MeasureData":
        density = self.density
        if density is not None:
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
        if path.times.min() > -1.0 + 1e-12:
            raise ValueError(
                f"slant path starts at rescaled time {path.times.min():g}, after -1: "
                f"it does not cover the time slab of the cylinder at t0 = {self.t0:g}, "
                f"r = {self.r:g}"
            )
        return x0 + self.r * path.at((times - self.t0) / self.r)

    def distinct_centers(
        self, times, path: SlantPath | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of ``centers(times, path)`` and, for each time,
        the index of its row.  A straight cylinder has one distinct centre.

        Rows are compared bitwise, one void scalar per row, which costs a
        third of ``np.unique(axis=0)``.
        """
        centers = self.centers(times, path)
        rows = centers.view(np.dtype((np.void, centers.itemsize * centers.shape[1])))
        _, first, which = np.unique(rows.ravel(), return_index=True, return_inverse=True)
        return centers[first], which

    def window(self, traj, path: SlantPath | None = None):
        """Snapshots of ``traj`` in the closed time slab [t0 - r^(2s), t0]:
        (indices, times, distinct centres, index of each snapshot's centre)."""
        idx = traj.window(self.t_start, self.t0)
        if len(idx) < 2:
            raise ValueError(
                f"the cylinder at t0 = {self.t0:g}, r = {self.r:g} holds {len(idx)} "
                "snapshot(s); at least two are needed"
            )
        times = np.array([traj.times[i] for i in idx])
        return (idx, times, *self.distinct_centers(times, path))

    def ball_values(self, traj, path: SlantPath | None = None):
        """Times of the window's snapshots and the values of each in its ball,
        with one mask per distinct centre."""
        idx, times, centers, which = self.window(traj, path)
        masks = [ball_mask(traj.grid, c, self.r) for c in centers]
        return times, [traj.snapshots[i].values[masks[k]] for i, k in zip(idx, which)]


@dataclass
class SlantPath:
    """Sampled solution z_r of the drift-averaging ODE on [-1, 0]."""

    r: float
    times: np.ndarray
    samples: np.ndarray  # shape (nt, d)
    c1_norm: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.shape[0] != self.times.size:
            raise ValueError("one path sample per time node is required")
        at_zero = self.samples[np.argmin(np.abs(self.times))]
        if np.abs(at_zero).max() > 1e-10:
            raise ValueError("slant path must vanish at t = 0")

    @classmethod
    def zero(cls, r: float, d: int = 2, num: int = 33) -> "SlantPath":
        ts = np.linspace(-1.0, 0.0, num)
        return cls(r, ts, np.zeros((num, d)), 0.0)

    def at(self, t) -> np.ndarray:
        """Linear interpolation of z_r at rescaled times t in [-1, 0], clamped
        to the sampled range; shape (*t.shape, d)."""
        t = np.clip(t, self.times.min(), self.times.max())
        return np.stack(
            [np.interp(t, self.times, self.samples[:, j]) for j in range(self.samples.shape[1])],
            axis=-1,
        )


def _require_length(mu: MeasureData) -> float:
    if mu.domain_length is None:
        raise ValueError("measure has no domain length; set it to fix the torus period")
    return mu.domain_length


def cylinder_mass(mu: MeasureData, Q: Cylinder, path: SlantPath | None = None) -> float:
    """|mu|(Q): atom masses in the open cylinder plus the density integral,
    with the ball centred on Q.centers(t, path) at each time t."""
    length = _require_length(mu)
    total = 0.0
    if mu.num_atoms:
        in_time = (mu.atom_times > Q.t_start) & (mu.atom_times < Q.t0)
        dist = torus_distance(mu.atom_positions, Q.centers(mu.atom_times, path), length)
        total += float(np.abs(mu.atom_masses[in_time & (dist < Q.r)]).sum())
    if mu.density is not None:
        grid = mu.density.grid

        def masks_at(ts):
            centers, which = Q.distinct_centers(ts, path)
            masks = [ball_mask(grid, c, Q.r) for c in centers]
            return [masks[k] for k in which]

        total += mu.density.windowed_spatial_mass(Q.t_start, Q.t0, masks_at)
    return total


def slanted_cylinder_mass(mu: MeasureData, Q: Cylinder, path: SlantPath) -> float:
    """cylinder_mass along a slant path.  Kept as a function of its own because
    the benchmark's tracer resolves ``measures.slanted_cylinder_mass`` by name."""
    return cylinder_mass(mu, Q, path)
