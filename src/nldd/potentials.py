"""Nonlocal functionals: tails, parabolic Riesz potentials, excess, slant ODE,
and drift oscillation seminorms.

Tail integrals over the complement of a ball are truncated at R_max <= L/2 on
the torus and evaluated in polar coordinates: composite Gauss-Legendre panels
in radius, uniform (trapezoid) angles, with the field sampled by periodic
bilinear interpolation.  The rule is a fixed weighted sum of |v| over sample
offsets from the center, built once per time window and shared by every
snapshot and every q.  Radial grids for the parabolic potentials insert the
exact entry radii of atoms so that the piecewise-constant atom masses are
integrated in closed form between breakpoints.

Bilinear interpolation is a fixed linear map: each point reads the 2^d grid
nodes at the corners of its cell.  Their flat indices and weights are built
once per point set (``_corners``) and applied to any number of fields on that
grid (``_gather``): every snapshot of a straight tail window, and every drift
component of a slant-ODE stage, reuse one set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fields import GridSpec, ScalarField, VectorField, ball_mask, torus_distance
from .measures import (
    Cylinder,
    MeasureData,
    SlantPath,
    SlantedCylinder,
    cylinder_mass,
    slanted_cylinder_mass,
)
from .operators import KernelSpec

__all__ = [
    "TailOptions",
    "ExcessReport",
    "PotentialProfile",
    "tail",
    "tail_time_lq",
    "riesz_potential",
    "slant_ode",
    "excess",
    "bmo_seminorm",
    "interpolate_periodic",
]


@dataclass(frozen=True)
class TailOptions:
    truncation_radius: float
    quadrature_order: int = 12


@dataclass
class ExcessReport:
    interior: float
    tail_part: float
    q: float
    cylinder: Cylinder

    @property
    def total(self) -> float:
        return self.interior + self.tail_part


@dataclass
class PotentialProfile:
    radii: np.ndarray
    masses: np.ndarray
    value: float
    order: float
    divergent: bool = False


def interpolate_periodic(f: ScalarField | np.ndarray, grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """Bilinear periodic interpolation at points of shape (..., d).

    ``f`` is a ScalarField or an array of shape (*batch, *grid.shape); the
    result has shape (*batch, ...).  The corners of the points are built once
    and gathered from every field in the batch.
    """
    values = f.values if isinstance(f, ScalarField) else f
    return _gather(values, _corners(grid, points))


def _corners(grid: GridSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat grid indices and bilinear weights of the 2^d cell corners of each
    point, each of shape (2^d, ...) for points of shape (..., d).

    Corner c takes the upper node along axis j when bit j of c is set.  The
    grid coordinate of x is x / h % n; for a tiny negative x it rounds up to
    exactly n, which is node 0.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        bad = points[~np.isfinite(points).all(axis=-1)][0]
        raise ValueError(f"interpolation point {bad} is not finite")
    n, shape = grid.n, points.shape[:-1]
    idx = points / grid.spacing % n
    base = np.floor(idx)
    frac = idx - base
    lo = base.astype(np.intp)
    lo[lo == n] = 0
    hi = lo + 1
    hi[hi == n] = 0
    flat = np.zeros((1, *shape), dtype=np.intp)
    weights = np.ones((1, *shape))
    for j in range(grid.d):
        ends = np.stack([lo[..., j], hi[..., j]])[:, None]
        shares = np.stack([1.0 - frac[..., j], frac[..., j]])[:, None]
        flat = (flat * n + ends).reshape(-1, *shape)
        weights = (weights * shares).reshape(-1, *shape)
    return flat, weights


def _gather(values: np.ndarray, corners: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply precomputed corners to values of shape (*batch, *grid.shape)."""
    flat, weights = corners
    d = flat.shape[0].bit_length() - 1  # 2^d corners
    nodes = values.reshape(*values.shape[: values.ndim - d], -1)
    out = np.take(nodes, flat[0], axis=-1) * weights[0]
    for c in range(1, flat.shape[0]):
        out += np.take(nodes, flat[c], axis=-1) * weights[c]
    return out


@lru_cache(maxsize=8)
def _panel_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(order)


def _radial_grid(r: float, R: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes/weights on [r, R], panels split per octave."""
    xg, wg = _panel_nodes(order)
    edges = [r]
    while edges[-1] * 2.0 < R:
        edges.append(edges[-1] * 2.0)
    edges.append(R)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes.append(mid + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _tail_nodes(
    grid: GridSpec, r: float, R_max: float, order: int, s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets o_i and weights w_i with tail(v; x0, r) = sum_i w_i |v(x0 + o_i)|.

    Composite GL panels in radius; on the sphere of radius rho, m uniform
    angles in d = 2, or m uniform azimuths times the 12-node cos(theta) Gauss
    rule in d = 3.  The weight of a node is r^(2s) area rho^(-1-2s) w_rad / m,
    times wg_j / 2 in d = 3.
    """
    if r >= R_max:
        raise ValueError(f"tail radius r = {r} must be below R_max = {R_max}")
    if R_max > grid.domain_length / 2.0 + 1e-12:
        raise ValueError("tail truncation radius exceeds L/2")
    d = grid.d
    radii, w_rad = _radial_grid(r, R_max, order)
    per_circle = np.ceil(2.0 * np.pi * radii / grid.spacing).astype(int)
    m = np.maximum(32, per_circle * 2) if d == 2 else np.maximum(16, per_circle)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    angle = 2.0 * np.pi * k / np.repeat(m, m)
    rho = np.repeat(radii, m)
    weights = np.repeat(
        r ** (2.0 * s) * _sphere_area(d) * radii ** (-1.0 - 2.0 * s) * w_rad / m, m
    )
    if d == 2:
        return rho[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1), weights
    ct, wct = _panel_nodes(12)
    st = np.sqrt(1.0 - ct**2)
    unit = np.stack(
        [
            np.outer(st, np.cos(angle)),
            np.outer(st, np.sin(angle)),
            np.outer(ct, np.ones(rho.size)),
        ],
        axis=-1,
    )
    return (rho[None, :, None] * unit).reshape(-1, 3), np.outer(wct / 2.0, weights).ravel()


def _sphere_area(d: int) -> float:
    return 2.0 * np.pi if d == 2 else 4.0 * np.pi


def tail(v: ScalarField, x0, r: float, kernel: KernelSpec, opts: TailOptions) -> float:
    """tail(v; x0, r) = r^(2s) * integral over {r < |y-x0| < R_max} of
    |v(y)| |x0-y|^(-d-2s) dy, truncated at opts.truncation_radius."""
    offsets, weights = _tail_nodes(
        v.grid, r, opts.truncation_radius, opts.quadrature_order, kernel.s
    )
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return float(weights @ np.abs(interpolate_periodic(v, v.grid, x0 + offsets)))


def tail_time_lq(
    traj,
    x0,
    r: float,
    qs,
    interval: tuple[float, float],
    kernel: KernelSpec,
    opts: TailOptions,
    offset: float = 0.0,
    slant: SlantPath | None = None,
    t0: float | None = None,
) -> np.ndarray:
    """(time-average of tail^q over the interval)^(1/q) for each q in qs,
    trapezoid in time.

    The tail of each snapshot in the window is evaluated once, with one set
    of sample nodes, and shared by every q.  ``offset`` is subtracted from
    each snapshot first.  A straight window indexes and weights its nodes'
    grid corners once and gathers every snapshot from them.  With a slant
    path, the tail of each slice is taken around the translated center
    x0 + r * z_r((t - t0)/r), with corners built per snapshot.
    """
    qs = np.asarray(qs, dtype=float).reshape(-1)
    bad = ~(qs > 1.0)
    if bad.any():
        raise ValueError(f"the Lq-in-time tail requires q > 1, got {qs[bad][0]}")
    t_lo, t_hi = interval
    idx = traj.window(t_lo, t_hi)
    if len(idx) < 2:
        raise ValueError("tail time average needs at least two snapshots in the interval")
    grid = traj.grid
    offsets, weights = _tail_nodes(
        grid, r, opts.truncation_radius, opts.quadrature_order, kernel.s
    )
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    ref = t_hi if t0 is None else t0
    times = np.array([traj.times[i] for i in idx])
    straight = _corners(grid, x0 + offsets) if slant is None else None
    vals = np.empty(times.size)
    for j, i in enumerate(idx):
        u = traj.snapshots[i].values
        if offset:
            u = u - offset
        if slant is None:
            sampled = _gather(u, straight)
        else:
            center = x0 + r * slant.at((times[j] - ref) / r)
            sampled = interpolate_periodic(u, grid, center + offsets)
        vals[j] = weights @ np.abs(sampled)
    span = times[-1] - times[0]
    return np.array([(np.trapezoid(vals**q, times) / span) ** (1.0 / q) for q in qs])


def riesz_potential(
    mu: MeasureData,
    t0: float,
    x0,
    R: float,
    kernel: KernelSpec,
    a: float,
    slant: Callable[[np.ndarray], list[SlantPath]] | None = None,
    rho_min: float | None = None,
    points_per_octave: int = 24,
) -> PotentialProfile:
    """Parabolic Riesz potential of order a via a breakpoint-aware radial sum.

    The value approximates the integral over (rho_min, R] of
    |mu|(Q_rho) * rho^(-(d+2s-a)) drho/rho.  Atom entry radii are inserted as
    exact breakpoints so purely atomic measures integrate in closed form; a
    positive mass already present at rho_min marks the profile divergent and
    the value is reported as +inf.

    With ``slant``, Q_rho is the slanted cylinder along the path that
    ``slant(radii)`` returns for each radius.  It is asked, in one call, only
    for the radii whose time slab (t0 - rho^(2s), t0) holds mass of |mu|;
    every other cylinder has mass 0 whatever its path.
    """
    d = mu.atom_positions.shape[-1] if mu.num_atoms else (
        mu.density.grid.d if mu.density is not None else 2
    )
    s = kernel.s
    beta = d + 2.0 * s - a
    if not 0.0 < a < d + 2.0 * s:
        raise ValueError(f"potential order must lie in (0, d+2s), got {a}")
    if rho_min is None:
        rho_min = 1e-4 * R
    length = mu.domain_length
    if length is None:
        raise ValueError("measure needs a domain length for torus geometry")

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    # Atom entry radii max((t0 - t_i)^(1/2s), |x_i - x0|); +inf for atoms at
    # or after t0, which no backward cylinder holds.
    entry = np.zeros(0)
    if mu.num_atoms:
        dt_atoms = t0 - mu.atom_times
        dist = torus_distance(mu.atom_positions, x0, length)
        entry = np.maximum(
            np.where(dt_atoms > 0, dt_atoms, np.inf) ** (1.0 / (2.0 * s)), dist
        )

    # Radial grid: log-spaced plus exact atom breakpoints (straight case only),
    # and the geometric midpoints of its intervals.
    n_log = max(8, int(np.ceil(points_per_octave * np.log2(R / rho_min))))
    radii = np.geomspace(rho_min, R, n_log)
    if slant is None:
        breaks = entry[(entry > rho_min) & (entry < R)]
        radii = np.unique(np.concatenate([radii, breaks]))
    lo, hi = radii[:-1], radii[1:]
    mids = np.sqrt(lo * hi)

    all_radii = np.concatenate([radii, mids])
    all_masses = np.zeros(all_radii.size)
    active = np.flatnonzero(_slab_holds_mass(mu, t0, all_radii, s))
    paths = slant(all_radii[active]) if slant is not None and active.size else None
    for k, i in enumerate(active):
        Q = Cylinder(t0, tuple(x0), all_radii[i], s)
        all_masses[i] = (
            cylinder_mass(mu, Q) if paths is None
            else slanted_cylinder_mass(mu, SlantedCylinder(Q, paths[k]))
        )
    masses, mid_mass = all_masses[: radii.size], all_masses[radii.size:]

    # atoms already inside the smallest cylinder make the integral diverge;
    # a density contributes mass ~ rho^(d+2s) there and stays integrable
    if np.any(entry <= rho_min):
        return PotentialProfile(radii, masses, np.inf, a, divergent=True)

    # Per-interval closed-form weight times the geometric-midpoint mass.
    weights = (lo ** (-beta) - hi ** (-beta)) / beta
    value = float((mid_mass * weights).sum())
    # head below rho_min under the density scaling law mass ~ rho^(d+2s)
    head_mass = float(masses[0])
    if head_mass > 0.0:
        value += head_mass * rho_min ** (-beta) / a
    return PotentialProfile(radii, masses, value, a)


def _slab_holds_mass(mu: MeasureData, t0: float, radii: np.ndarray, s: float) -> np.ndarray:
    """Whether |mu| has mass in each time slab (t0 - rho^(2s), t0).

    The slab starts are scalar powers, as Cylinder.t_start computes them, so
    that a radius judged empty gets mass 0 from cylinder_mass and
    slanted_cylinder_mass too.
    """
    t_start = np.array([t0 - rho ** (2.0 * s) for rho in radii])
    held = np.zeros(radii.size, dtype=bool)
    if mu.num_atoms:
        charged = (mu.atom_times < t0) & (mu.atom_masses != 0.0)
        held |= (mu.atom_times[charged] > t_start[:, None]).any(axis=1)
    if mu.density is not None:
        ts = mu.density.times
        held |= np.minimum(t0, ts[-1]) > np.maximum(t_start, ts[0])
    return held


@lru_cache(maxsize=4)
def _disk_quadrature(d: int, n_rad: int = 8, n_ang: int = 16):
    """Points/weights averaging a function over the unit ball."""
    xg, wg = leggauss(n_rad)
    u = 0.5 * (xg + 1.0)  # radius^d variable on [0, 1]
    w_rad = 0.5 * wg
    if d == 2:
        rho = np.sqrt(u)
        theta = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
        pts = np.stack(
            [
                np.outer(rho, np.cos(theta)).ravel(),
                np.outer(rho, np.sin(theta)).ravel(),
            ],
            axis=-1,
        )
        wts = np.repeat(w_rad / n_ang, n_ang)
        return pts, wts
    rho = u ** (1.0 / 3.0)
    ct, wct = leggauss(n_rad)
    phi = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    st = np.sqrt(1.0 - ct**2)
    # point order (radius, polar node, azimuth), azimuth fastest
    r_st = np.outer(rho, st)[:, :, None]
    r_ct = np.broadcast_to(np.outer(rho, ct)[:, :, None], (n_rad, n_rad, n_ang))
    pts = np.stack([r_st * np.cos(phi), r_st * np.sin(phi), r_ct], axis=-1)
    wts = np.repeat(np.outer(w_rad, wct / 2.0).ravel() / n_ang, n_ang)
    return pts.reshape(-1, 3), wts


def slant_ode(
    b: VectorField,
    scales,
    t0: float = 0.0,
    x0=None,
    num_steps: int = 64,
) -> list[SlantPath]:
    """Backward RK4 integration of the ball-averaged drift ODE on [-1, 0],
    one path per scale r in ``scales``.

    ``b`` is an autonomous VectorField.  For scale r, the right-hand side is
    the average of b over the ball of radius r centered at x0 + r z_r(t).
    All scales advance together in one RK4 loop with state shape
    (len(scales), d); each path is computed with the same arithmetic as a
    solve of its scale alone.
    """
    r = np.asarray(scales, dtype=float).reshape(-1)
    bad = ~((r > 0.0) & (r <= 1.0))
    if bad.any():
        raise ValueError(f"slant scale must lie in (0, 1], got {r[bad][0]}")
    grid = b.grid
    d = grid.d
    if x0 is None:
        x0 = np.zeros(d)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    pts_unit, wts = _disk_quadrature(d)
    components = np.stack(b.arrays())

    def rhs(z: np.ndarray) -> np.ndarray:
        centers = x0 + r[:, None] * z
        pts = centers[:, None, :] + r[:, None, None] * pts_unit
        # one set of corners per stage, gathered from all d components
        means = (interpolate_periodic(components, grid, pts) * wts).sum(axis=-1)
        return np.moveaxis(means, 0, -1)

    h = -1.0 / num_steps
    times = [0.0]
    zs = [np.zeros((r.size, d))]
    derivs = [rhs(zs[0])]
    t, z = 0.0, zs[0]
    for _ in range(num_steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2.0 * k1)
        k3 = rhs(z + h / 2.0 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        times.append(t)
        zs.append(z)
        derivs.append(rhs(z))
    times = np.array(times[::-1])
    samples = np.array(zs[::-1])
    derivs = np.array(derivs[::-1])
    sup_z = np.linalg.norm(samples, axis=-1).max(axis=0)
    sup_dz = np.linalg.norm(derivs, axis=-1).max(axis=0)
    return [
        SlantPath(float(ri), times, samples[:, i], float(sup_z[i] + sup_dz[i]))
        for i, ri in enumerate(r)
    ]


def excess(
    traj,
    t0: float,
    x0,
    r: float,
    q: float,
    kernel: KernelSpec,
    opts: TailOptions,
    slant: SlantPath | None = None,
) -> ExcessReport:
    """Interior oscillation plus weighted tail of the recentered solution."""
    s = kernel.s
    Q = Cylinder(t0, tuple(np.atleast_1d(x0)), r, s)
    idx = traj.window(Q.t_start, Q.t0)
    if len(idx) < 2:
        raise ValueError("cylinder not resolved by the trajectory snapshots")
    grid = traj.grid
    times = np.array([traj.times[i] for i in idx])
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    ball_means = np.empty(times.size)
    if slant is None:
        masks = [ball_mask(grid, x0, r)] * times.size
    else:
        masks = [ball_mask(grid, x0 + r * slant.at((t - t0) / r), r) for t in times]
    for j, i in enumerate(idx):
        ball_means[j] = traj.snapshots[i].values[masks[j]].mean()
    span = times[-1] - times[0]
    mean_Q = float(np.trapezoid(ball_means, times) / span)

    osc = np.empty(times.size)
    for j, i in enumerate(idx):
        osc[j] = np.abs(traj.snapshots[i].values[masks[j]] - mean_Q).mean()
    interior = float((np.trapezoid(osc**q, times) / span) ** (1.0 / q))

    (tail_part,) = tail_time_lq(
        traj, x0, r, (q,), (Q.t_start, Q.t0), kernel, opts,
        offset=mean_Q, slant=slant, t0=t0,
    )
    return ExcessReport(interior, float(tail_part), q, Q)


def bmo_seminorm(
    b: VectorField, scales: list[float], center_stride: int = 4
) -> tuple[float, float]:
    """(C1, C2) estimates: sup of unit-ball means of |b| and sup over balls of
    the mean oscillation of b."""
    grid = b.grid
    for r in scales:
        if not grid.spacing < r <= grid.domain_length / 2.0:
            raise ValueError(f"scale {r} outside (spacing, L/2]")
    speed = np.sqrt(sum(c.values**2 for c in b.components))
    comp_vals = [c.values for c in b.components]
    centers = [
        tuple(i * center_stride * grid.spacing for i in idx)
        for idx in np.ndindex(*([grid.n // center_stride] * grid.d))
    ]

    c1 = 0.0
    if grid.domain_length > 2.0:
        for ct in centers:
            m = ball_mask(grid, ct, 1.0)
            c1 = max(c1, float(speed[m].mean()))
    else:
        c1 = float(speed.mean())

    c2 = 0.0
    for r in scales:
        for ct in centers:
            m = ball_mask(grid, ct, r)
            means = [v[m].mean() for v in comp_vals]
            osc = np.sqrt(
                sum((v[m] - mu) ** 2 for v, mu in zip(comp_vals, means))
            ).mean()
            c2 = max(c2, float(osc))
    return c1, c2
