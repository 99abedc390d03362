"""Time integration of the drift-diffusion equation on the torus.

The diffusion term is diagonal in Fourier space and is treated exactly with
an exponential integrator; advection and forcing are handled by an ETD-RK2
predictor-corrector with two-thirds dealiasing.  A stepper is built with
one of the equation's three drift laws (none, a fixed field checked once, or
the SQG drift R^perp u rebuilt at each stage); a step may instead be handed
the drift at its two ends, as the comparison solve hands it u's SQG drift.

The solver state is the rfftn half-spectrum of the real solution, and every
transform inside a step is real: ``fields.forward_half`` (an rfftn) and
``fields.inverse_half`` (an irfftn), which make numpy's 1-d transforms one
axis at a time, bitwise the n-d ones.  A dealiased gradient's coefficients
and the dealiased advection term are zero past the last-axis columns the
two-thirds mask keeps (n//3 + 1 of them), so their transforms are the band
ones, ``fields.inverse_band`` and ``fields.forward_band``, whose complex
passes touch only those columns, bitwise the full ones.  The SQG drift is
built from the state's coefficients by one stacked inverse transform, and
its divergence check reads a bound from the coefficients, with no
transform unless the bound fails.  The forcing is transformed once per
step.  The components of a fixed drift that are zero everywhere are found
once, and a stage transforms d_j u only for the other components j.  Per
step:

- an SQG step makes 2 forward and 8 inverse transforms: per stage 2
  inverse for the drift, in one stacked call, 2 band inverse for the
  gradient and 1 band forward for the advection;
- a fixed-drift step makes 2 band forward, and 2 band inverse per
  component that is not zero everywhere: 2 for the config's shear and
  lacunary drifts and a constant one along x1, which are (f(x2), 0);
- a step with no drift, or a zero one, makes none;

plus 1 forward on steps that carry forcing.  Around the transforms, a stage
multiplies the state once per advecting component, by that component's
dealiased ik_j, and folds the sign of -(b, grad u) into the dealiasing of
the advection term.

A step advances the state in place and refills work arrays its stepper keeps
per state shape.  A trajectory stores u only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import pairwise, repeat

import numpy as np

from .fields import (
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    ball_mask,
    dealias_mask,
    forward_band,
    forward_half,
    grid_distance,
    half_spectrum,
    inverse_band,
    inverse_half,
    require_divergence_free,
)
from .measures import Cylinder, MeasureData
from .operators import (
    KernelSpec,
    _spectral_gradient,
    _sqg_drift,
    biot_savart_sqg,
    diffusion_multiplier,
)

__all__ = [
    "SolverConfig",
    "TrajectoryStore",
    "CFLError",
    "check_cfl",
    "check_solve",
    "solve",
    "solve_sqg",
    "comparison_solve",
    "measure_forcing",
]


class CFLError(ParameterError):
    """A step dt past the drift's advective CFL bound; carries the admissible dt."""

    def __init__(self, dt: float, bmax: float, admissible: float):
        super().__init__(
            "dt",
            f"dt = {dt} violates the advective CFL of the drift, max|b| = {bmax:.6g}; "
            f"admissible dt <= {admissible:.3e}",
        )
        self.admissible = admissible


def check_cfl(grid: GridSpec, dt: float, bmax: float) -> None:
    """Raise CFLError unless dt is within the advective CFL bound
    0.5 * spacing / max|b| of a drift with max norm bmax."""
    admissible = 0.5 * grid.spacing / max(bmax, 1e-12)
    if dt > admissible * (1.0 + 1e-12):
        raise CFLError(dt, bmax, admissible)


@dataclass(frozen=True)
class SolverConfig:
    kernel: KernelSpec
    dt: float
    t_end: float
    drift_mode: str = "none"  # none | given | sqg
    h_moll: float = 0.0
    snapshot_stride: int = 1

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_end", self.t_end)):
            if not value > 0:
                raise ParameterError(name, f"{name} must be positive, got {value}")
        if self.drift_mode not in ("none", "given", "sqg"):
            raise ValueError(f"unknown drift mode {self.drift_mode!r}")
        if self.snapshot_stride < 1:
            raise ParameterError(
                "snapshot_stride", f"snapshot stride must be >= 1, got {self.snapshot_stride}"
            )

    def steps_to(self, span: float) -> int | None:
        """Steps of dt that make up span, or None when span is not a whole
        number of them (to 1e-9 relative)."""
        steps = int(round(span / self.dt))
        return steps if abs(steps * self.dt - span) <= 1e-9 * span else None

    @property
    def num_steps(self) -> int | None:
        """Steps of dt to t_end (``steps_to``)."""
        return self.steps_to(self.t_end)


@dataclass
class TrajectoryStore:
    """Time-indexed snapshots of one solve."""

    grid: GridSpec
    times: list[float] = field(default_factory=list)
    snapshots: list[ScalarField] = field(default_factory=list)

    def append(self, u: ScalarField):
        if u.grid != self.grid:
            raise ValueError("snapshot grid mismatch")
        if self.times and u.time <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(float(u.time))
        self.snapshots.append(u)

    @property
    def t_start(self) -> float:
        return self.times[0]

    @property
    def t_end(self) -> float:
        return self.times[-1]

    def index_at(self, t: float) -> int:
        """Index of the stored time nearest to t."""
        ts = np.asarray(self.times)
        return int(np.abs(ts - t).argmin())

    def at(self, t: float) -> ScalarField:
        return self.snapshots[self.index_at(t)]

    def window(self, t_lo: float, t_hi: float) -> list[int]:
        """Indices of the stored times in [t_lo, t_hi], ends included."""
        ts = np.asarray(self.times)
        eps = 1e-12 * max(1.0, abs(t_hi))
        return list(np.flatnonzero((ts >= t_lo - eps) & (ts <= t_hi + eps)))


def _phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-6
    zb = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, np.expm1(zb) / zb)


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-4
    zb = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6.0 + z**2 / 24.0, (np.expm1(zb) - zb) / zb**2)


class _Work:
    """The arrays one step fills, for one state shape: spectral arrays in the
    shape of the state, physical ones in the shape of its samples, and the
    SQG drift b when the stepper is SQG.  tmp and n1 are the two members of
    one stack, pair, which holds the SQG drift's coefficients while a drift
    is built, with grad and adv as its other scratch: each is free then."""

    def __init__(
        self, spectral: tuple[int, ...], physical: tuple[int, ...], drift: tuple[int, ...] | None
    ):
        self.pair = np.empty((2, *spectral), dtype=complex)
        self.tmp, self.n1 = self.pair
        self.n0, self.fhat = (np.empty(spectral, dtype=complex) for _ in range(2))
        self.finite = np.empty(spectral, dtype=bool)
        self.grad, self.adv = np.empty(physical), np.empty(physical)
        self.b = None if drift is None else np.empty(drift)


class _Stepper:
    """Precomputed exponential factors for one (grid, kernel, dt) triple, and
    the drift law it steps with: none (b is None, or ``config.drift_mode ==
    "none"``, which drops any b it is handed); a fixed drift b, checked
    here once, divergence-free unless flagged and within the CFL bound at
    dt, with its components that are zero everywhere found here too; or the
    SQG drift R^perp u (``config.drift_mode == "sqg"``), rebuilt at each
    stage and CFL-checked at each step.  ``step(drifts=(b_t, b_t+dt))``
    replaces the law for one step, with every component advecting.

    Every array is in the rfftn layout of the state (fields.half_spectrum).
    A state may carry one leading batch axis: a step advances each member of
    the stack as it advances that member alone, with a fixed drift broadcast
    across the stack.  The arrays a step fills are made at the first step of
    each state shape and reused by every later one, so a step allocates no
    state-sized temporaries.
    """

    def __init__(self, grid: GridSpec, config: SolverConfig, b: VectorField | None = None):
        self.grid = grid
        self.config = config
        self.sqg = config.drift_mode == "sqg"
        if config.drift_mode == "none":
            b = None
        self.b = b
        self.comps = tuple(range(grid.d)) if self.sqg else ()
        if b is not None:
            bmax = b.max_norm()
            if not b.divergence_free:
                require_divergence_free(b.spectral_divergence_max(), bmax)
            check_cfl(grid, config.dt, bmax)
            self.comps = tuple(j for j, a in enumerate(b.arrays()) if a.any())
        z = -config.dt * half_spectrum(diffusion_multiplier(grid, config.kernel))
        self.exp_full = np.exp(z)
        self.dt_phi1 = config.dt * _phi1(z)
        self.dt_phi2 = config.dt * _phi2(z)
        mask = half_spectrum(dealias_mask(grid))
        self.masked_iks = tuple(ik * mask for ik in _spectral_gradient(grid))
        self.neg_mask = -mask.astype(float)
        self._work: dict[tuple[int, ...], _Work] = {}

    def _work_for(self, shape: tuple[int, ...]) -> _Work:
        w = self._work.get(shape)
        if w is None:
            drift = (self.grid.d, *self.grid.shape) if self.sqg else None
            w = self._work[shape] = _Work(shape, shape[: -self.grid.d] + self.grid.shape, drift)
        return w

    def nonlinear(
        self,
        uhat: np.ndarray,
        b: np.ndarray | tuple[np.ndarray, ...] | None,
        comps: tuple[int, ...],
        fhat: np.ndarray | None,
        w: _Work,
        out: np.ndarray,
    ) -> np.ndarray:
        """N(u) = -(b, grad u) + forcing, in spectral space, with b_j d_j u
        summed over the components j in comps, b_j being b[j] (arrays in the
        shape of the samples); written to out unless it is the
        forcing alone.  out holds each gradient component's coefficients
        (the dealiased ik_j times uhat) until the advection term is
        transformed into it.  Both are zero past the mask's columns, so their
        transforms are the band ones."""
        if not comps:
            if fhat is not None:
                return fhat
            out.fill(0.0)
            return out
        for i, j in enumerate(comps):
            grad = inverse_band(
                np.multiply(self.masked_iks[j], uhat, out=out), self.grid, out=w.grad
            )
            if i:
                w.adv += np.multiply(b[j], grad, out=grad)
            else:
                np.multiply(b[j], grad, out=w.adv)
        np.multiply(forward_band(w.adv, self.grid, out=out), self.neg_mask, out=out)
        return out if fhat is None else np.add(out, fhat, out=out)

    def step(
        self,
        uhat: np.ndarray,
        t: float,
        forcing: np.ndarray | None = None,
        drifts: tuple[VectorField, VectorField] | None = None,
    ) -> np.ndarray:
        """Advance the rfftn coefficients uhat by one step of dt after t, in
        place, and return them.  The forcing has the shape of the samples;
        drifts, when given, is the drift at t and at t + dt."""
        dt = self.config.dt
        w = self._work_for(uhat.shape)
        sqg = self.sqg and drifts is None
        comps = self.comps
        if drifts is not None:
            (b0, b1), comps = (b.arrays() for b in drifts), tuple(range(self.grid.d))
            check_cfl(self.grid, dt, drifts[0].max_norm())
        elif sqg:  # the drift at t, and at t + dt once the predictor is made
            b0 = b1 = w.b
            check_cfl(self.grid, dt, _sqg_drift(uhat, self.grid, w.b, w.pair, w.grad, w.adv))
        else:
            b0 = b1 = None if self.b is None else self.b.arrays()
        fhat = None if forcing is None else forward_half(forcing, self.grid, out=w.fhat)
        n0 = self.nonlinear(uhat, b0, comps, fhat, w, out=w.n0)
        # the predictor exp_full * uhat + dt_phi1 * n0, in place in uhat
        np.multiply(self.exp_full, uhat, out=uhat)
        uhat += np.multiply(self.dt_phi1, n0, out=w.tmp)
        if sqg:  # the drift lagged by one predictor stage
            _sqg_drift(uhat, self.grid, w.b, w.pair, w.grad, w.adv)
        n1 = self.nonlinear(uhat, b1, comps, fhat, w, out=w.n1)
        delta = np.subtract(n1, n0, out=w.n1)
        uhat += np.multiply(self.dt_phi2, delta, out=delta)
        if not np.isfinite(uhat, out=w.finite).all():
            raise FloatingPointError(f"solution lost finiteness at t = {t + dt:.6g}")
        return uhat


def measure_forcing(
    mu: MeasureData, t: float, dt: float, grid: GridSpec, h_moll: float
) -> ScalarField:
    """Forcing field whose space-time integral over [t, t+dt) matches mu there.

    Atoms landing in the slab become periodic Gaussian bumps of width h_moll
    (at least one grid spacing, which check_solve holds every solve to),
    normalized so the discrete mass is exact; a density adds its profile
    when the slab midpoint lies in its time interval.
    """
    out = np.zeros(grid.shape)
    if mu.num_atoms:
        in_slab = (mu.atom_times >= t) & (mu.atom_times < t + dt)
        for i in np.flatnonzero(in_slab):
            dist = grid_distance(grid, mu.atom_positions[i])
            bump = np.exp(-0.5 * (dist / h_moll) ** 2)
            bump /= bump.sum() * grid.cell_volume
            out += (mu.atom_masses[i] / dt) * bump
    density = mu.density
    if density is not None and density.t_start <= t + 0.5 * dt <= density.t_end:
        out += density.profile
    return ScalarField(grid, out, t)


def check_solve(grid: GridSpec, config: SolverConfig, mu: MeasureData | None = None) -> None:
    """Raise ParameterError, naming the SolverConfig field ('t_end', 'h_moll'
    or 'drift_mode'), when a solve on grid with measure mu cannot run: t_end
    not a whole number of steps, atoms with h_moll below the grid spacing, or
    the SQG drift off the critical case d = 2, s = 1/2."""
    if config.num_steps is None:
        raise ParameterError(
            "t_end",
            f"t_end = {config.t_end} must be an integer number of steps of dt = {config.dt}",
        )
    if mu is not None and mu.num_atoms and config.h_moll < grid.spacing:
        raise ParameterError(
            "h_moll",
            f"h_moll = {config.h_moll} is below the grid spacing {grid.spacing} "
            "of a measure with atoms",
        )
    s = config.kernel.s
    if config.drift_mode == "sqg" and (grid.d != 2 or abs(s - 0.5) > 1e-12):
        raise ParameterError(
            "drift_mode", f"the SQG drift needs d = 2 and s = 1/2, got d = {grid.d} and s = {s}"
        )


def _atom_in_slab(mu: MeasureData, t: float, dt: float) -> bool:
    return bool(np.any((mu.atom_times >= t) & (mu.atom_times < t + dt)))


def _run(
    u0: ScalarField,
    b: VectorField | None,
    mu: MeasureData | None,
    config: SolverConfig,
) -> TrajectoryStore:
    grid = u0.grid
    check_solve(grid, config, mu)
    n_steps = config.num_steps
    stepper = _Stepper(grid, config, b)
    store = TrajectoryStore(grid)
    uhat = forward_half(u0.values, grid)
    t = u0.time
    store.append(ScalarField(grid, inverse_half(uhat, grid), t))
    for step_idx in range(n_steps):
        forcing = None
        if mu is not None and (mu.density is not None or _atom_in_slab(mu, t, config.dt)):
            f = measure_forcing(mu, t, config.dt, grid, config.h_moll)
            if np.any(f.values):
                forcing = f.values
        stepper.step(uhat, t, forcing)
        t = u0.time + (step_idx + 1) * config.dt
        if (step_idx + 1) % config.snapshot_stride == 0 or step_idx == n_steps - 1:
            store.append(ScalarField(grid, inverse_half(uhat, grid), t))
    return store


def solve(
    u0: ScalarField,
    b: VectorField | None,
    mu: MeasureData | None,
    config: SolverConfig,
) -> TrajectoryStore:
    """Evolve from u0 to t_end with a given (or absent) divergence-free drift."""
    if config.drift_mode == "sqg":
        raise ValueError("use solve_sqg for the self-coupled mode")
    if b is not None and not isinstance(b, VectorField):
        raise TypeError(f"the drift must be a VectorField or None, got {type(b).__name__}")
    return _run(u0, b, mu, config)


def solve_sqg(u0: ScalarField, mu: MeasureData | None, config: SolverConfig) -> TrajectoryStore:
    """Dissipative SQG evolution: drift recomputed from u every stage."""
    if config.drift_mode != "sqg":
        raise ValueError("config.drift_mode must be 'sqg'")
    return _run(u0, None, mu, config)


def comparison_solve(
    u_traj: TrajectoryStore,
    b: VectorField | None,
    cylinder: Cylinder,
    config: SolverConfig,
) -> TrajectoryStore:
    """Constrained homogeneous companion solve of the comparison lemma: the
    trajectory of v on the cylinder's time window.

    v starts from u at the initial slice t0 - r^(2s), evolves without the
    measure, and is reset to u outside B_r(x0) after every step.  u_traj must
    store every step inside the cylinder's time window (stride 1).  With
    ``config.drift_mode == "sqg"`` the drift at each stored time is the SQG
    drift of that u snapshot, built once and passed to the steps on either
    side of it; under drift mode "none" there is none, and otherwise it is
    ``b``.
    """
    grid = u_traj.grid
    Q = cylinder
    if Q.r > grid.domain_length / 8.0:
        raise ValueError("cylinder radius must satisfy r <= L/8")
    if Q.t_start < u_traj.t_start - 1e-9 or Q.t0 > u_traj.t_end + 1e-9:
        raise ValueError("cylinder time range not covered by the trajectory")
    idx, times, _, _ = Q.window(u_traj)
    dts = np.diff(times)
    if np.abs(dts - dts[0]).max() > 1e-9:
        raise ValueError("comparison solve needs uniformly spaced snapshots")
    dt = float(dts[0])
    outside = ~ball_mask(grid, Q.x0, Q.r)

    # the companion follows u's drift, so its stepper is never SQG: it steps
    # with b (none under drift mode "none"), or is handed the SQG drifts of
    # u's snapshots at each step's ends, each built once
    mode = "given" if config.drift_mode == "sqg" else config.drift_mode
    stepper = _Stepper(grid, replace(config, dt=dt, drift_mode=mode), b)
    sqg_drifts = (biot_savart_sqg(u_traj.snapshots[i]) for i in idx)
    ends = pairwise(sqg_drifts) if config.drift_mode == "sqg" else repeat(None)

    v_store = TrajectoryStore(grid)
    v_store.append(u_traj.snapshots[idx[0]])
    v = u_traj.snapshots[idx[0]].values.copy()
    vhat = np.empty(grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    for j, drifts in zip(range(len(idx) - 1), ends):
        stepper.step(forward_half(v, grid, out=vhat), times[j], drifts=drifts)
        inverse_half(vhat, grid, out=v)
        np.copyto(v, u_traj.snapshots[idx[j + 1]].values, where=outside)
        v_store.append(ScalarField(grid, v.copy(), times[j + 1]))
    return v_store
