"""Time integration of the drift-diffusion equation on the torus.

The diffusion term is diagonal in Fourier space and is treated exactly with
an exponential integrator; advection and forcing are handled by an ETD-RK2
predictor-corrector with two-thirds dealiasing.  The SQG mode recomputes the
Biot-Savart drift from the predictor stage inside each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    ball_mask,
    dealias_mask,
    forward,
    grid_distance,
    wavevectors,
)
from .measures import Cylinder, MeasureData
from .operators import KernelSpec, biot_savart_sqg, diffusion_multiplier, leray_project

__all__ = [
    "SolverConfig",
    "TrajectoryStore",
    "ComparisonPair",
    "CFLError",
    "solve",
    "solve_sqg",
    "comparison_solve",
    "measure_forcing",
    "DriftProvider",
]


class CFLError(RuntimeError):
    """Advective CFL violation; carries the admissible step size."""

    def __init__(self, dt: float, admissible: float):
        super().__init__(
            f"time step {dt:.3e} violates the advective CFL; admissible dt <= {admissible:.3e}"
        )
        self.admissible = admissible


@dataclass(frozen=True)
class SolverConfig:
    kernel: KernelSpec
    dt: float
    t_end: float
    drift_mode: str = "none"  # none | given | sqg
    dealias: bool = True
    h_moll: float = 0.0
    snapshot_stride: int = 1
    store_drift: bool = False
    diffusion_off: bool = False  # test mode: pure advection

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.drift_mode not in ("none", "given", "sqg"):
            raise ValueError(f"unknown drift mode {self.drift_mode!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be >= 1")


@dataclass
class TrajectoryStore:
    """Time-indexed snapshots of one solve."""

    grid: GridSpec
    times: list[float] = field(default_factory=list)
    snapshots: list[ScalarField] = field(default_factory=list)
    drift_snapshots: list[VectorField] | None = None

    def append(self, u: ScalarField, b: VectorField | None = None):
        if u.grid != self.grid:
            raise ValueError("snapshot grid mismatch")
        if self.times and u.time <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(float(u.time))
        self.snapshots.append(u)
        if b is not None:
            if self.drift_snapshots is None:
                self.drift_snapshots = []
            self.drift_snapshots.append(b)

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

    def window(self, t_lo: float, t_hi: float, closed: bool = True) -> list[int]:
        ts = np.asarray(self.times)
        eps = 1e-12 * max(1.0, abs(t_hi))
        if closed:
            sel = (ts >= t_lo - eps) & (ts <= t_hi + eps)
        else:
            sel = (ts > t_lo + eps) & (ts < t_hi - eps)
        return list(np.flatnonzero(sel))


@dataclass
class ComparisonPair:
    """A solve u with data mu next to its homogeneous companion v on a cylinder."""

    u_traj: TrajectoryStore
    v_traj: TrajectoryStore
    cylinder: Cylinder


DriftLike = VectorField | Callable[[float], VectorField] | None


class DriftProvider:
    """Uniform access to autonomous, callable, or absent drifts.

    A fixed field is validated (or Leray-projected) once, here; a callable
    drift is validated at every call.
    """

    def __init__(self, drift: DriftLike, project: bool = False):
        self._project = project
        self._drift = self._checked(drift) if isinstance(drift, VectorField) else drift

    def _checked(self, b: VectorField) -> VectorField:
        if self._project:
            return leray_project(b)
        if not b.divergence_free:
            err = b.spectral_divergence_max()
            if err > 1e-10 * max(b.max_norm(), 1e-300):
                raise ValueError(
                    "drift fails the divergence-free assertion; request Leray projection"
                )
        return b

    def __call__(self, t: float) -> VectorField | None:
        if callable(self._drift):
            return self._checked(self._drift(t))
        return self._drift


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    small = np.abs(z) < 1e-6
    zb = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, np.expm1(zb) / zb)
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-4
    zb = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6.0 + z**2 / 24.0, (np.expm1(zb) - zb) / zb**2)


class _Stepper:
    """Precomputed exponential factors for one (grid, kernel, dt) triple."""

    def __init__(self, grid: GridSpec, config: SolverConfig):
        self.grid = grid
        self.config = config
        if config.diffusion_off:
            mult = np.zeros(grid.shape)
        else:
            mult = diffusion_multiplier(grid, config.kernel)
        z = -config.dt * mult
        self.exp_full = np.exp(z)
        self.phi1 = _phi1(z)
        self.phi2 = _phi2(z)
        self.mask = dealias_mask(grid) if config.dealias else None
        self.ks = wavevectors(grid)

    def _dealias(self, coeff: np.ndarray) -> np.ndarray:
        return coeff * self.mask if self.mask is not None else coeff

    def nonlinear(self, uhat: np.ndarray, b: VectorField | None, forcing: np.ndarray | None):
        """N(u) = -(b, grad u) + forcing, in spectral space."""
        acc = None
        if b is not None:
            ud = self._dealias(uhat)
            adv = np.zeros(self.grid.shape)
            for k, barr in zip(self.ks, b.arrays()):
                du = np.fft.ifftn(1j * k * ud).real
                adv += barr * du
            acc = -self._dealias(np.fft.fftn(adv))
        if forcing is not None:
            fhat = np.fft.fftn(forcing)
            acc = fhat if acc is None else acc + fhat
        if acc is None:
            acc = np.zeros(self.grid.shape, dtype=complex)
        return acc

    def check_cfl(self, b: VectorField | None):
        if b is None:
            return
        bmax = max(b.max_norm(), 1e-12)
        admissible = 0.5 * self.grid.spacing / bmax
        if self.config.dt > admissible * (1.0 + 1e-12):
            raise CFLError(self.config.dt, admissible)

    def step(
        self,
        uhat: np.ndarray,
        t: float,
        drift: DriftProvider,
        forcing: np.ndarray | None,
        sqg: bool = False,
    ) -> tuple[np.ndarray, VectorField | None]:
        dt = self.config.dt
        if sqg:
            b0 = biot_savart_sqg(
                ScalarField(self.grid, np.fft.ifftn(uhat).real, t)
            )
        else:
            b0 = drift(t)
        self.check_cfl(b0)
        n0 = self.nonlinear(uhat, b0, forcing)
        pred = self.exp_full * uhat + dt * self.phi1 * n0
        if sqg:
            # drift lagged by one predictor stage
            b1 = biot_savart_sqg(
                ScalarField(self.grid, np.fft.ifftn(pred).real, t + dt)
            )
        else:
            b1 = drift(t + dt)
        n1 = self.nonlinear(pred, b1, forcing)
        unew = pred + dt * self.phi2 * (n1 - n0)
        if not np.all(np.isfinite(unew.real)):
            raise FloatingPointError(f"solution lost finiteness at t = {t + dt:.6g}")
        return unew, b0


def measure_forcing(
    mu: MeasureData, t: float, dt: float, grid: GridSpec, h_moll: float
) -> ScalarField:
    """Forcing field whose space-time integral over [t, t+dt) matches mu there.

    Atoms landing in the slab become periodic Gaussian bumps of width h_moll,
    normalized so the discrete mass is exact; a density component is sampled
    at the slab midpoint.
    """
    if mu.num_atoms and h_moll < grid.spacing:
        raise ValueError("mollification width must be at least one grid spacing")
    out = np.zeros(grid.shape)
    if mu.num_atoms:
        in_slab = (mu.atom_times >= t) & (mu.atom_times < t + dt)
        for i in np.flatnonzero(in_slab):
            dist = grid_distance(grid, mu.atom_positions[i])
            bump = np.exp(-0.5 * (dist / h_moll) ** 2)
            bump /= bump.sum() * grid.cell_volume
            out += (mu.atom_masses[i] / dt) * bump
    if mu.density is not None:
        out += mu.density.sample(t + 0.5 * dt)
    return ScalarField(grid, out, t)


def _run(
    u0: ScalarField,
    drift: DriftProvider,
    mu: MeasureData | None,
    config: SolverConfig,
    sqg: bool,
) -> TrajectoryStore:
    grid = u0.grid
    stepper = _Stepper(grid, config)
    store = TrajectoryStore(grid, drift_snapshots=[] if (config.store_drift or sqg) else None)
    uhat = forward(u0).coefficients
    t = u0.time
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise ValueError("t_end must be an integer number of steps")

    def record(uhat_now, t_now, b_now):
        u = ScalarField(grid, np.fft.ifftn(uhat_now).real, t_now)
        if store.drift_snapshots is not None:
            if sqg:
                b_now = biot_savart_sqg(u)
            elif b_now is None:
                b_now = drift(t_now)
            store.append(u, b_now)
        else:
            store.append(u)

    record(uhat, t, None)
    for step_idx in range(n_steps):
        forcing = None
        if mu is not None and (mu.num_atoms or mu.density is not None):
            f = measure_forcing(mu, t, config.dt, grid, config.h_moll)
            if np.any(f.values):
                forcing = f.values
        uhat, b_used = stepper.step(uhat, t, drift, forcing, sqg=sqg)
        t = u0.time + (step_idx + 1) * config.dt
        if (step_idx + 1) % config.snapshot_stride == 0 or step_idx == n_steps - 1:
            record(uhat, t, b_used)
    return store


def solve(
    u0: ScalarField,
    b: DriftLike,
    mu: MeasureData | None,
    config: SolverConfig,
    project_drift: bool = False,
) -> TrajectoryStore:
    """Evolve from u0 to t_end with a given (or absent) divergence-free drift."""
    if config.drift_mode == "sqg":
        raise ValueError("use solve_sqg for the self-coupled mode")
    if config.drift_mode == "none":
        b = None
    return _run(u0, DriftProvider(b, project=project_drift), mu, config, sqg=False)


def solve_sqg(u0: ScalarField, mu: MeasureData | None, config: SolverConfig) -> TrajectoryStore:
    """Dissipative SQG evolution: drift recomputed from u every stage."""
    if u0.grid.d != 2:
        raise ValueError("SQG mode requires d = 2")
    if abs(config.kernel.s - 0.5) > 1e-12:
        raise ValueError("SQG mode requires s = 1/2")
    if config.drift_mode != "sqg":
        raise ValueError("config.drift_mode must be 'sqg'")
    return _run(u0, DriftProvider(None), mu, config, sqg=True)


def comparison_solve(
    u_traj: TrajectoryStore,
    b: DriftLike,
    mu: MeasureData | None,
    cylinder: Cylinder,
    config: SolverConfig,
) -> ComparisonPair:
    """Constrained homogeneous companion solve of the comparison lemma.

    v starts from u at the initial slice t0 - r^(2s), evolves without the
    measure, and is reset to u outside B_r(x0) after every step.  u_traj must
    store every step inside the cylinder's time window (stride 1).
    """
    grid = u_traj.grid
    Q = cylinder
    if Q.r > grid.domain_length / 8.0:
        raise ValueError("cylinder radius must satisfy r <= L/8")
    if Q.t_start < u_traj.t_start - 1e-9 or Q.t0 > u_traj.t_end + 1e-9:
        raise ValueError("cylinder time range not covered by the trajectory")
    idx = u_traj.window(Q.t_start, Q.t0)
    if len(idx) < 2:
        raise ValueError("trajectory has too few snapshots inside the cylinder")
    times = [u_traj.times[i] for i in idx]
    dts = np.diff(times)
    if np.abs(dts - dts[0]).max() > 1e-9:
        raise ValueError("comparison solve needs uniformly spaced snapshots")
    dt = float(dts[0])

    inside = ball_mask(grid, Q.x0, Q.r)

    cmp_config = replace(config, dt=dt, drift_mode="given" if b is not None else "none")
    stepper = _Stepper(grid, cmp_config)
    if b is None and u_traj.drift_snapshots:
        drift_fields = {u_traj.times[i]: u_traj.drift_snapshots[i] for i in idx}

        def b_of_t(t):
            key = min(drift_fields, key=lambda tt: abs(tt - t))
            return drift_fields[key]

        drift = DriftProvider(b_of_t)
    else:
        drift = DriftProvider(b)

    v_store = TrajectoryStore(grid)
    v = u_traj.snapshots[idx[0]].values.copy()
    v_store.append(ScalarField(grid, v, times[0]))
    for j, i in enumerate(idx[:-1]):
        uhat = np.fft.fftn(v)
        vhat, _ = stepper.step(uhat, times[j], drift, None, sqg=False)
        v = np.fft.ifftn(vhat).real
        u_next = u_traj.snapshots[idx[j + 1]].values
        v = np.where(inside, v, u_next)
        v_store.append(ScalarField(grid, v.copy(), times[j + 1]))

    u_store = TrajectoryStore(grid)
    for i in idx:
        u_store.append(u_traj.snapshots[i])
    return ComparisonPair(u_store, v_store, cylinder)
