"""Nonlocal functionals: tails, parabolic Riesz potentials, excess, slant ODE,
and drift oscillation seminorms.

Tail integrals over the complement of a ball are truncated at R_max <= L/2 on
the torus and evaluated in polar coordinates: composite Gauss-Legendre panels
in radius, uniform (trapezoid) angles, with the field sampled by periodic
bilinear interpolation.  The rule is a fixed weighted sum of |v| over sample
offsets from the center, shared by every snapshot of a window and every q,
and built once per radius: ``_tail_nodes`` keeps the last rule it built, so a
check that asks for one radius again reuses it.  A weighted sum is a product
of arrays and numpy's pairwise sum, which runs on the calling thread and
never calls BLAS: BLAS splits a dot product of more than 10,000 terms across
its threads, so with ``@`` a tail's last bits would depend on the BLAS thread
count.  Radial grids for the straight parabolic potentials
insert the exact entry radii of atoms so that the piecewise-constant atom
masses are integrated in closed form between breakpoints.  Straight or
slanted, a potential's masses come from one ``measures.cylinder_masses`` call.

A time window is a cylinder's window (``Cylinder.window``): its snapshots and
the ball centre of each, straight or along a slant path.  Bilinear
interpolation is a fixed linear map: each point reads the 2^d grid nodes at
the corners of its cell.  Their flat indices and weights are built once per
point set (``_corners``) and applied to any number of fields on that grid
(``_gather``): once per centre of a tail window, so once for a straight
window, and once per slant-ODE stage for every drift component.
Both write into preallocated buffers (``_corner_buffers``) when given them:
a tail window makes one set and refills it per centre, and a
``slant_ode`` call makes one set and refills it at every RK stage, so the
stages allocate no point-sized arrays.  ``interpolate_periodic`` uses a
fresh set.

Point sets are stored axis-first, as (d, ...) arrays: a tail rule's offsets
and a stage's disk offsets, so a centre is added to them one axis at a time
in contiguous passes.  ``_corners`` builds each axis's corner parts (its
lower and upper nodes and their shares, ``_axis_parts``), then combines the
axes into flat indices and weights (``_combine``); a caller that refills a
buffer set rebuilds only the parts of the axes whose coordinates changed.
Along a drift component that is zero everywhere the ball means are exactly
+0, so a slant path stays at +0 there and its stage points never move: a
stage rebuilds, and gathers, only the components that are not zero
everywhere.  A slanted tail window rebuilds only the axes along which its
centres move.  The remainder that takes a grid coordinate onto [0, n) runs
only when the coordinates' extremes lie outside it.  Each RK4 step starts
from the slope its previous step ended with, so a path costs
1 + 4 * SLANT_STEPS = 129 stages; those slopes stay with the samples for the
path's cubic Hermite dense output (``SlantPath.at``).

Most of a stage's cost is fixed, not per path, so a slanted check makes one
``slant_ode`` call: each path takes its own start point.  A slanted
``riesz_potential`` takes its paths as data, one per active radius of
``potential_radii``; those radii do not depend on the centre, so a check
integrates them in the same call as every other path it needs.

The balls of ``bmo_seminorm`` are centred on grid nodes, so each is the ball
around node 0 translated by whole nodes: its node offsets are found once per
radius, for C1 and C2 alike, and gathered for one slab of centres at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fields import GridSpec, ScalarField, VectorField, ball_mask, read_only, torus_distance
from .measures import (
    Cylinder,
    MeasureData,
    SlantPath,
    _require_length,
    _slab_starts,
    cylinder_masses,
    slab_holds_mass,
)
from .operators import KernelSpec, _sphere_area

__all__ = [
    "TailOptions",
    "ExcessReport",
    "PotentialProfile",
    "tail",
    "tail_time_lq",
    "riesz_potential",
    "slant_ode",
    "potential_radii",
    "excess",
    "bmo_seminorm",
    "interpolate_periodic",
]

TAIL_QUADRATURE_ORDER = 12  # Gauss-Legendre nodes per radial panel of a tail
POINTS_PER_OCTAVE = 24  # log-spaced radii per octave of a Riesz potential
# RK4 steps of a slant path over [-1, 0]: with Hermite reading, 32 steps are
# within a quarter of the error of 64 steps read linearly on a bending
# (cellular) drift at amplitudes 1 to 8, where 16 steps are not
SLANT_STEPS = 32
BMO_CENTER_STRIDE = 4  # ball centres of bmo_seminorm on every 4th grid point
# the unit-ball rule that averages the drift in slant_ode: Gauss-Legendre nodes
# in radius^d (and in the polar cosine in 3-d), midpoint nodes in the azimuth
DISK_RADIAL_NODES = 8
DISK_ANGULAR_NODES = 16


@dataclass(frozen=True)
class TailOptions:
    truncation_radius: float


@dataclass
class ExcessReport:
    interior: float
    tail_part: float

    @property
    def total(self) -> float:
        return self.interior + self.tail_part


@dataclass
class PotentialProfile:
    radii: np.ndarray
    masses: np.ndarray
    value: float
    divergent: bool = False


def interpolate_periodic(f: ScalarField | np.ndarray, grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """Bilinear periodic interpolation at points of shape (..., d).

    ``f`` is a ScalarField or an array of shape (*batch, *grid.shape); the
    result has shape (*batch, ...).  The corners of the points are built once,
    into a fresh set of buffers, and gathered from every field in the batch.
    """
    values = f.values if isinstance(f, ScalarField) else f
    return _gather(values, _corners(grid, points))


def _corner_buffers(d: int, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Empty outputs of ``_corners`` for points of shape (*shape, d): flat
    indices and weights, (2^d, *shape), then the corner parts of the axes,
    (2, d, *shape) each: node shares and node ends as lower/upper pairs, and
    scratch flags for the wraps."""
    return (
        np.empty((2**d, *shape), dtype=np.intp),
        np.empty((2**d, *shape)),
        np.empty((2, d, *shape)),
        np.empty((2, d, *shape), dtype=np.intp),
        np.empty((2, d, *shape), dtype=bool),
    )


def _corners(
    grid: GridSpec, points: np.ndarray, out: tuple[np.ndarray, ...] | None = None, axes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Flat grid indices and bilinear weights of the 2^d cell corners of each
    point, each of shape (2^d, ...) for points of shape (..., d).

    The points are read one axis at a time, so they are best stored
    axis-first, as the transpose of a (d, ...) array.  ``out`` is a buffer
    set from ``_corner_buffers`` for this point shape, refilled in place;
    without it a fresh set is made.  The corner parts of the axes listed in
    ``axes`` (default all) are built, by ``_axis_parts``; every other axis
    keeps the parts ``out`` holds from an earlier call, which must have read
    the same coordinates along it.  Then ``_combine`` forms the corners.
    """
    points = np.asarray(points, dtype=float)
    d = grid.d
    flat, weights, shares, ends, scratch = (
        _corner_buffers(d, points.shape[:-1]) if out is None else out
    )
    coords = points.transpose(-1, *range(points.ndim - 1))
    # all axes in one pass of ufuncs, or each listed axis on its own
    runs = [slice(None)] if axes is None or len(axes) == d else [slice(j, j + 1) for j in axes]
    for run in runs:
        _axis_parts(grid, coords[run], shares[:, run], ends[:, run], scratch[:, run], points)
    _combine(grid.n, shares, ends, flat, weights)
    return flat, weights


def _axis_parts(grid: GridSpec, coords, shares, ends, scratch, points) -> None:
    """The corner parts of the axes of ``coords``, of shape (k, ...): the
    lower and upper node along each into ``ends``, and their shares into
    ``shares``, each of shape (2, k, ...) as lower/upper pairs.

    The grid coordinate of x is x / h % n; for a tiny negative x it rounds up
    to exactly n, which is node 0.  The remainder is the identity on [0, n),
    so it is skipped when the coordinates' extremes lie there.  A non-finite
    coordinate fails that test, so only then are the points scanned, and a
    non-finite one of ``points`` raises ValueError.  Within one period of
    [0, n), as is a tail rule around a centre on the torus, np.remainder
    adds or subtracts n and nothing else, so the same float additions are
    made in one unmasked pass; farther out it is taken.
    """
    n = grid.n
    # shares[1] holds the grid coordinates, then their fractions above the
    # lower nodes; shares[0] the lower nodes, then 1 - fraction
    coord = np.divide(coords, grid.spacing, out=shares[1])
    # 0 lies in [0, n - 1), so an empty set is on the torus and needs no wrap
    low, top = coord.min(initial=0.0), coord.max(initial=0.0)
    if not (low >= 0.0 and top < n):
        if not np.isfinite(coords).all():
            bad = points[~np.isfinite(points).all(axis=-1)][0]
            raise ValueError(f"interpolation point {bad} is not finite")
        if low >= -n and top < 2 * n:
            # n, -n or 0.0 added to each, which turns -0.0 to +0.0: the
            # same node and shares
            below = np.less(coord, 0.0, out=scratch[0]).view(np.int8)
            above = np.greater_equal(coord, n, out=scratch[1]).view(np.int8)
            coord += np.multiply(np.subtract(below, above, out=below), float(n), out=shares[0])
        else:
            np.remainder(coord, n, out=coord)
        top = coord.max()
    np.floor(coord, out=shares[0])
    np.subtract(coord, shares[0], out=shares[1])
    np.copyto(ends[0], shares[0], casting="unsafe")
    np.add(ends[0], 1, out=ends[1])
    # node n is node 0: an upper node reaches it where a coordinate is at
    # least n - 1, and a lower one where a coordinate rounded up to n
    if top >= n - 1:
        np.subtract(ends, n, out=ends, where=np.greater_equal(ends, n, out=scratch))
    np.subtract(1.0, shares[1], out=shares[0])


def _combine(
    n: int, shares: np.ndarray, ends: np.ndarray, flat: np.ndarray, weights: np.ndarray
) -> None:
    """The flat indices and weights of the 2^d corners from the corner parts
    of the d axes: corners 0 and 1 take the lower and upper node along axis
    0, and corners 2^j .. 2^(j+1) - 1 are corners 0 .. 2^j - 1 moved to the
    upper node along axis j."""
    lower_flat, lower_weights = ends[:, 0], shares[:, 0]
    for j in range(1, shares.shape[1]):
        lower, upper = slice(0, 2**j), slice(2**j, 2 ** (j + 1))
        np.multiply(lower_flat, n, out=flat[lower])
        np.add(flat[lower], ends[1, j], out=flat[upper])
        np.add(flat[lower], ends[0, j], out=flat[lower])
        np.multiply(lower_weights, shares[1, j], out=weights[upper])
        np.multiply(lower_weights, shares[0, j], out=weights[lower])
        lower_flat, lower_weights = flat[: 2 ** (j + 1)], weights[: 2 ** (j + 1)]


def _gather(
    values: np.ndarray, corners: tuple[np.ndarray, np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Apply precomputed corners to values of shape (*batch, *grid.shape).

    All corners of all fields in the batch are read at once, into ``out`` of
    shape (*batch, 2^d, ...) if given; the result is a view of it.
    """
    flat, weights = corners
    d = flat.shape[0].bit_length() - 1  # 2^d corners
    # the node count is spelled out, since -1 cannot be inferred for an empty batch
    nodes = values.reshape(*values.shape[: values.ndim - d], math.prod(values.shape[values.ndim - d :]))
    taken = np.take(nodes, flat, axis=-1, out=out, mode="clip")  # every index is in range
    taken *= weights
    corner = (slice(None),) * (nodes.ndim - 1)
    total = taken[(*corner, 0)]
    for c in range(1, flat.shape[0]):
        total += taken[(*corner, c)]
    return total


@lru_cache(maxsize=8)
def _panel_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return read_only(leggauss(order))


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


@lru_cache(maxsize=1)
def _tail_nodes(grid: GridSpec, r: float, R_max: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets o_i and weights w_i with tail(v; x0, r) = sum_i w_i |v(x0 + o_i)|.

    Composite GL panels of TAIL_QUADRATURE_ORDER nodes in radius; on the
    sphere of radius rho, m uniform angles in d = 2, or m uniform azimuths
    times the 12-node cos(theta) Gauss rule in d = 3.  The weight of a node is r^(2s) area rho^(-1-2s) w_rad / m,
    times wg_j / 2 in d = 3.  The last rule built is kept (read-only), so
    the placements of a check that share a radius build it once.
    """
    if r >= R_max:
        raise ValueError(f"tail radius r = {r} must be below R_max = {R_max}")
    if R_max > grid.domain_length / 2.0 + 1e-12:
        raise ValueError("tail truncation radius exceeds L/2")
    d = grid.d
    radii, w_rad = _radial_grid(r, R_max, TAIL_QUADRATURE_ORDER)
    per_circle = np.ceil(2.0 * np.pi * radii / grid.spacing).astype(int)
    m = np.maximum(32, per_circle * 2) if d == 2 else np.maximum(16, per_circle)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    angle = 2.0 * np.pi * k / np.repeat(m, m)
    rho = np.repeat(radii, m)
    weights = np.repeat(
        r ** (2.0 * s) * _sphere_area(d) * radii ** (-1.0 - 2.0 * s) * w_rad / m, m
    )
    # the offsets are stored axis-first and returned as their (nodes, d) transpose
    if d == 2:
        return read_only((np.stack([rho * np.cos(angle), rho * np.sin(angle)]).T, weights))
    ct, wct = _panel_nodes(12)
    st = np.sqrt(1.0 - ct**2)
    unit = np.stack(
        [
            np.outer(st, np.cos(angle)),
            np.outer(st, np.sin(angle)),
            np.outer(ct, np.ones(rho.size)),
        ]
    )
    return read_only(((rho * unit).reshape(3, -1).T, np.outer(wct / 2.0, weights).ravel()))


def tail(v: ScalarField, x0, r: float, kernel: KernelSpec, opts: TailOptions) -> float:
    """tail(v; x0, r) = r^(2s) * integral over {r < |y-x0| < R_max} of
    |v(y)| |x0-y|^(-d-2s) dy, truncated at opts.truncation_radius."""
    offsets, weights = _tail_nodes(v.grid, r, opts.truncation_radius, kernel.s)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    # x0 + offsets is stored axis-first, as the offsets are
    return float((weights * np.abs(interpolate_periodic(v, v.grid, x0 + offsets))).sum())


def tail_time_lq(
    traj,
    Q: Cylinder,
    qs,
    kernel: KernelSpec,
    opts: TailOptions,
    offset: float = 0.0,
    slant: SlantPath | None = None,
) -> np.ndarray:
    """(time-average of tail^q over the cylinder's time slab)^(1/q) for each q
    in qs, trapezoid in time.

    The tail of each snapshot in the window is taken around its ball centre
    (``Q.centers``, along ``slant`` if given) and shared by every q.
    ``offset`` is subtracted from the sampled values of each snapshot.  The
    grid corners of the sample nodes are indexed and weighted once per
    centre of the window (``Q.window``), so once for a straight window, and
    gathered from every snapshot there.  One set of corner and gather
    buffers serves the whole window.
    """
    qs = np.asarray(qs, dtype=float).reshape(-1)
    bad = ~(qs > 1.0)
    if bad.any():
        raise ValueError(f"the Lq-in-time tail requires q > 1, got {qs[bad][0]}")
    idx, times, centers, which = Q.window(traj, slant)
    grid = traj.grid
    offsets, weights = _tail_nodes(grid, Q.r, opts.truncation_radius, kernel.s)
    offsets = offsets.T  # axis-first, as stored
    vals = np.empty(times.size)
    points = np.empty_like(offsets)
    buffers = _corner_buffers(grid.d, weights.shape)
    taken = np.empty_like(buffers[1])
    # the first centre builds the corner parts of every axis, and each later
    # one those of the axes along which the centres move
    axes = range(grid.d)
    moving = [j for j in axes if (centers[:, j] != centers[0, j]).any()]
    for k, center in enumerate(centers):
        for j in axes:
            np.add(center[j], offsets[j], out=points[j])
        corners = _corners(grid, points.T, out=buffers, axes=axes)
        axes = moving
        for j in np.flatnonzero(which == k):
            sampled = _gather(traj.snapshots[idx[j]].values, corners, out=taken)
            if offset:  # bilinear weights sum to 1, so the offset comes off the samples
                sampled -= offset
            vals[j] = np.multiply(weights, np.abs(sampled, out=sampled), out=sampled).sum()
    span = times[-1] - times[0]
    return np.array([(np.trapezoid(vals**q, times) / span) ** (1.0 / q) for q in qs])


def riesz_potential(
    mu: MeasureData,
    t0: float,
    x0,
    R: float,
    kernel: KernelSpec,
    a: float,
    slant: list[SlantPath] | None = None,
    rho_min: float | None = None,
) -> PotentialProfile:
    """Parabolic Riesz potential of order a via a breakpoint-aware radial sum.

    The value approximates the integral over (rho_min, R] of
    |mu|(Q_rho) * rho^(-(d+2s-a)) drho/rho.  Atom entry radii are inserted as
    exact breakpoints so purely atomic measures integrate in closed form; a
    positive mass already present at rho_min marks the profile divergent and
    the value is reported as +inf.

    With ``slant``, Q_rho is the slanted cylinder along the path of radius
    rho.  ``slant`` lists one path for each radius whose time slab
    (t0 - rho^(2s), t0) holds mass of |mu|, in order; every other cylinder
    has mass 0 whatever its path.  Those radii are ``all_radii[active]`` of
    ``potential_radii(mu, t0, R, s, rho_min)``, the same floats at every x0,
    and a path whose ``r`` is not its radius raises ValueError.
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
    length = _require_length(mu)

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

    # exact atom breakpoints in the straight case only
    breaks = None if slant is not None else entry[(entry > rho_min) & (entry < R)]
    radii, all_radii, active, t_start = _potential_grid(mu, t0, R, s, rho_min, breaks)
    if slant is not None and [path.r for path in slant] != all_radii[active].tolist():
        raise ValueError(
            f"the slanted potential takes one path per active radius of "
            f"potential_radii, {active.size} of them, but got {len(slant)} paths "
            "of other radii"
        )
    all_masses = np.zeros(all_radii.size)
    all_masses[active] = cylinder_masses(mu, t0, x0, all_radii[active], s, slant, t_start)
    masses, mid_mass = all_masses[: radii.size], all_masses[radii.size:]
    lo, hi = radii[:-1], radii[1:]

    # atoms already inside the smallest cylinder make the integral diverge;
    # a density contributes mass ~ rho^(d+2s) there and stays integrable
    if np.any(entry <= rho_min):
        return PotentialProfile(radii, masses, np.inf, divergent=True)

    # Per-interval closed-form weight times the geometric-midpoint mass.
    weights = (lo ** (-beta) - hi ** (-beta)) / beta
    value = float((mid_mass * weights).sum())
    # head below rho_min under the density scaling law mass ~ rho^(d+2s)
    head_mass = float(masses[0])
    if head_mass > 0.0:
        value += head_mass * rho_min ** (-beta) / a
    return PotentialProfile(radii, masses, value)


def potential_radii(
    mu: MeasureData,
    t0: float,
    R: float,
    s: float,
    rho_min: float | None = None,
    breaks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radial grid of ``riesz_potential`` on [rho_min, R], rho_min = 1e-4 R
    by default: (radii, all_radii, active).

    ``radii`` are log-spaced, POINTS_PER_OCTAVE per octave, plus ``breaks`` if
    given; ``all_radii`` are those followed by the geometric midpoints of their
    intervals; ``active`` indexes the entries of ``all_radii`` whose time slab
    holds mass of |mu|.  With no breaks (the slanted case) none of it depends
    on x0, so ``all_radii[active]`` are the radii of the paths a slanted
    ``riesz_potential`` takes at any x0.
    """
    return _potential_grid(mu, t0, R, s, rho_min, breaks)[:3]


def _potential_grid(
    mu: MeasureData,
    t0: float,
    R: float,
    s: float,
    rho_min: float | None = None,
    breaks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``potential_radii`` and the slab starts of its active radii, which
    ``cylinder_masses`` takes as they are."""
    if rho_min is None:
        rho_min = 1e-4 * R
    n_log = max(8, int(np.ceil(POINTS_PER_OCTAVE * np.log2(R / rho_min))))
    radii = np.geomspace(rho_min, R, n_log)
    if breaks is not None:
        radii = np.unique(np.concatenate([radii, breaks]))
    all_radii = np.concatenate([radii, np.sqrt(radii[:-1] * radii[1:])])
    t_start = _slab_starts(t0, all_radii, s)
    active = np.flatnonzero(slab_holds_mass(mu, t0, t_start))
    return radii, all_radii, active, t_start[active]


@lru_cache(maxsize=2)
def _disk_quadrature(d: int):
    """Points/weights averaging a function over the unit ball."""
    n_rad, n_ang = DISK_RADIAL_NODES, DISK_ANGULAR_NODES
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
        return read_only((pts, wts))
    rho = u ** (1.0 / 3.0)
    ct, wct = leggauss(n_rad)
    phi = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    st = np.sqrt(1.0 - ct**2)
    # point order (radius, polar node, azimuth), azimuth fastest
    r_st = np.outer(rho, st)[:, :, None]
    r_ct = np.broadcast_to(np.outer(rho, ct)[:, :, None], (n_rad, n_rad, n_ang))
    pts = np.stack([r_st * np.cos(phi), r_st * np.sin(phi), r_ct], axis=-1)
    wts = np.repeat(np.outer(w_rad, wct / 2.0).ravel() / n_ang, n_ang)
    return read_only((pts.reshape(-1, 3), wts))


def slant_ode(b: VectorField, scales, x0=None) -> list[SlantPath]:
    """Backward RK4 integration of the ball-averaged drift ODE on [-1, 0],
    one path per scale r in ``scales``.

    ``b`` is an autonomous VectorField.  ``x0`` is one start point of shape
    (d,) shared by every path, or one per path, of shape (len(scales), d); it
    defaults to the origin.  For the path of scale r from x0, the right-hand
    side is the average of b over the ball of radius r centred at
    x0 + r z_r(t).  All paths advance together in one RK4 loop with state
    shape (len(scales), d); each is computed with the same arithmetic as a
    solve of its (scale, x0) alone, so a check integrates every path it needs
    in one call.  Each path keeps the right-hand side at its samples as its
    slopes, the start slope of the next step, for its Hermite dense output.
    """
    r = np.asarray(scales, dtype=float).reshape(-1)
    bad = ~((r > 0.0) & (r <= 1.0))
    if bad.any():
        raise ValueError(f"slant scale must lie in (0, 1], got {r[bad][0]}")
    grid = b.grid
    d = grid.d
    x0 = np.zeros(d) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape not in ((d,), (r.size, d)):
        raise ValueError(
            f"slant start points must have shape ({d},) or ({r.size}, {d}), got {x0.shape}"
        )
    pts_unit, wts = _disk_quadrature(d)
    # a component that is zero everywhere has ball means +0, the zeros each
    # slope starts from, so a path stays at +0 along its axis and the stage
    # points never move along it
    comps = [j for j, a in enumerate(b.arrays()) if a.any()]
    components = np.stack(b.arrays())[comps]
    # every stage refills one set of buffers: its points, axis-first, their
    # corners and the gather of those components at all corners
    offsets = pts_unit.T[:, None, :] * r[:, None]
    pts = np.empty_like(offsets)
    points = np.moveaxis(pts, 0, -1)  # the (scale, node, axis) view _corners reads
    buffers = _corner_buffers(d, offsets.shape[1:])
    taken = np.empty((len(comps), *buffers[1].shape))

    def rhs(z: np.ndarray, axes=comps) -> np.ndarray:
        """The slopes at z, with the stage points and corner parts built
        along ``axes``; the other axes keep those of the first stage."""
        centers = x0 + r[:, None] * z
        for j in axes:
            np.add(centers[:, j, None], offsets[j], out=pts[j])
        means = _gather(components, _corners(grid, points, out=buffers, axes=axes), out=taken)
        means *= wts
        slope = np.zeros((r.size, d))
        slope[:, comps] = means.sum(axis=-1).T
        return slope

    h = -1.0 / SLANT_STEPS
    times = [0.0]
    zs = [np.zeros((r.size, d))]
    derivs = [rhs(zs[0], axes=range(d))]
    t, z = 0.0, zs[0]
    for _ in range(SLANT_STEPS):
        k1 = derivs[-1]  # the slope at the end of the last step
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
    slopes = np.array(derivs[::-1])
    sup_z = np.linalg.norm(samples, axis=-1).max(axis=0)
    sup_dz = np.linalg.norm(slopes, axis=-1).max(axis=0)
    return [
        SlantPath(float(ri), times, samples[:, i], slopes[:, i], float(sup_z[i] + sup_dz[i]))
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
    Q = Cylinder(t0, x0, r, kernel.s)
    times, blocks = Q.ball_values(traj, slant)
    span = times[-1] - times[0]
    means, osc = np.empty((2, times.size))  # per snapshot
    for rows, values in blocks:
        means[rows] = values.mean(axis=1)
    mean_Q = float(np.trapezoid(means, times) / span)
    for rows, values in blocks:
        osc[rows] = np.abs(values - mean_Q).mean(axis=1)
    interior = float((np.trapezoid(osc**q, times) / span) ** (1.0 / q))
    (tail_part,) = tail_time_lq(traj, Q, (q,), kernel, opts, offset=mean_Q, slant=slant)
    return ExcessReport(interior, float(tail_part))


def _ball_rows(grid: GridSpec, r: float):
    """Flat node indices of the balls of radius r around the bmo_seminorm
    centres, one (centres, nodes) array per slab of centres that share their
    first index.

    Centres lie on grid nodes, so every ball is the ball around node 0 moved
    by a whole number of nodes along each axis.  Each row is sorted, so a
    gather reads its nodes in the row-major order of ``v[ball_mask(...)]``.
    """
    n, d = grid.n, grid.d
    offsets = np.nonzero(ball_mask(grid, np.zeros(d), r))
    starts = np.arange(n // BMO_CENTER_STRIDE) * BMO_CENTER_STRIDE
    # the flat index along axes 1 .. d-1 of every centre of a slab
    rest = np.zeros((1, offsets[0].size), dtype=np.intp)
    for o in offsets[1:]:
        rest = (rest[:, None] * n + (starts[:, None] + o) % n).reshape(-1, o.size)
    for start in starts:
        yield np.sort((start + offsets[0]) % n * n ** (d - 1) + rest, axis=-1)


def bmo_seminorm(b: VectorField, scales: list[float]) -> tuple[float, float]:
    """(C1, C2) estimates: sup of unit-ball means of |b| and sup over balls of
    the mean oscillation of b.

    The balls are centred on every BMO_CENTER_STRIDE-th grid node, and their
    values are gathered one slab of centres at a time (``_ball_rows``), for
    each radius once: C1 reads the unit balls where C2 does at r = 1.  On a
    torus of side at most 2 the unit ball covers it, and C1 is the mean of
    |b| over the grid.
    """
    grid = b.grid
    for r in scales:
        if not grid.spacing < r <= grid.domain_length / 2.0:
            raise ValueError(f"scale {r} outside (spacing, L/2]")
    comp_vals = [c.values.ravel() for c in b.components]
    speed = np.sqrt(sum(v**2 for v in comp_vals))

    unit_balls = grid.domain_length > 2.0
    c1 = 0.0 if unit_balls else float(speed.mean())
    c2 = 0.0
    for r in dict.fromkeys([*scales, 1.0] if unit_balls else scales):
        for rows in _ball_rows(grid, r):
            if unit_balls and r == 1.0:
                c1 = max(c1, float(speed[rows].mean(axis=-1).max()))
            if r in scales:
                balls = [v[rows] for v in comp_vals]
                means = [ball.mean(axis=-1, keepdims=True) for ball in balls]
                osc = np.sqrt(sum((ball - mu) ** 2 for ball, mu in zip(balls, means))).mean(axis=-1)
                c2 = max(c2, float(osc.max()))
    return c1, c2
