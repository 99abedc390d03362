"""Heat kernel estimation and the bound checks that go with it.

Dirac initial data is realized as a periodic Gaussian of width h, solved
forward, repeated at width h/2, and Richardson-extrapolated in the width
(the leading bias is quadratic in h).  The free kernel (no drift) has a
closed form at s = 1/2 and is otherwise recovered by radial Fourier
inversion; both serve as oracles for the estimated kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate, special

from .evolution import DriftProvider, SolverConfig, _Stepper
from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    grid_distance,
    wavevectors,
)
from .operators import KernelSpec, QuadratureError
from .reports import VerificationReport

__all__ = [
    "HeatKernelEstimate",
    "estimate_kernel",
    "exact_free_kernel",
    "periodized_free_kernel",
    "kernel_sanity",
    "upper_bound_check",
    "gluing_check",
]


@dataclass
class HeatKernelEstimate:
    grid: GridSpec
    eta: float
    y: tuple[float, ...]
    times: np.ndarray
    fields: list[ScalarField]  # Richardson-extrapolated
    raw_fields: dict[float, list[ScalarField]] = field(default_factory=dict)
    mollification_widths: tuple[float, ...] = ()
    kernel: KernelSpec | None = None
    drift: VectorField | None = None
    stepper: _Stepper | None = None

    def mass(self, i: int) -> float:
        g = self.grid
        return float(self.fields[i].values.mean() * g.domain_length**g.d)

    def distance_to_source(self) -> np.ndarray:
        return grid_distance(self.grid, self.y)


def _gaussian_spectral(grid: GridSpec, y: np.ndarray, width: float) -> np.ndarray:
    """fftn coefficients of a unit-mass periodic Gaussian at y."""
    ks = wavevectors(grid)
    kmag2 = sum(k**2 for k in ks)
    phase = sum(k * yc for k, yc in zip(ks, y))
    vol = grid.domain_length**grid.d
    return (grid.num_points / vol) * np.exp(-0.5 * width**2 * kmag2 - 1j * phase)


def _solve_recording(
    stepper: _Stepper,
    uhat0: np.ndarray,
    drift: DriftProvider,
    t_start: float,
    record_times: np.ndarray,
) -> list[ScalarField]:
    """Solve from t_start and return the fields at the sorted record times,
    each of which must lie a whole number of steps after t_start."""
    dt = stepper.config.dt
    targets = np.sort(np.asarray(record_times, dtype=float))
    steps = np.rint((targets - t_start) / dt).astype(int)
    for tt, k in zip(targets, steps):
        if not tt > t_start:
            raise ValueError(f"record time {tt} must lie after t_start = {t_start} (dt = {dt})")
        if abs(k * dt - (tt - t_start)) > 1e-9 * (tt - t_start):
            raise ValueError(
                f"record time {tt} is not a whole number of steps of dt = {dt} "
                f"after t_start = {t_start}"
            )
    uhat = uhat0.copy()
    out = {}
    for step in range(1, steps[-1] + 1):
        uhat, _ = stepper.step(uhat, t_start + (step - 1) * dt, drift, None, sqg=False)
        if step in steps:
            out[step] = ScalarField(stepper.grid, np.fft.ifftn(uhat).real, t_start + step * dt)
    return [out[k] for k in steps]


def estimate_kernel(
    b,
    kernel: KernelSpec,
    eta: float,
    y,
    times,
    config: SolverConfig,
    grid: GridSpec,
) -> HeatKernelEstimate:
    """Two-width mollified Dirac solve with Richardson extrapolation."""
    times = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    config = replace(config, kernel=kernel)
    h = config.h_moll
    if h < grid.spacing:
        raise ValueError("mollification width must be at least one grid spacing")
    min_gap = 4.0 * h ** (2.0 * kernel.s)
    if times[0] - eta < min_gap:
        raise ValueError(
            f"first evaluation time too close to eta; need t - eta >= {min_gap:.4g}"
        )
    drift = DriftProvider(b)
    stepper = _Stepper(grid, config)
    widths = (h, h / 2.0)
    raw = {}
    for w in widths:
        uhat0 = _gaussian_spectral(grid, y, w)
        raw[w] = _solve_recording(stepper, uhat0, drift, eta, times)
    fields = []
    for i, t in enumerate(times):
        extrap = (4.0 * raw[widths[1]][i].values - raw[widths[0]][i].values) / 3.0
        fields.append(ScalarField(grid, extrap, t))
    return HeatKernelEstimate(
        grid=grid,
        eta=eta,
        y=tuple(y),
        times=times,
        fields=fields,
        raw_fields=raw,
        mollification_widths=widths,
        kernel=kernel,
        drift=b,
        stepper=stepper,
    )


def exact_free_kernel(kernel: KernelSpec, d: int, t: float, r) -> np.ndarray | float:
    """Free (b = 0) kernel on R^d at time t and radius r.

    Closed form at s = 1/2; radial Fourier inversion of exp(-t |k|^(2s))
    otherwise, with target relative error 1e-6.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    s = kernel.s
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if abs(s - 0.5) < 1e-14:
        if d == 2:
            vals = (1.0 / (2.0 * np.pi)) * t / (t**2 + r**2) ** 1.5
        elif d == 3:
            vals = (1.0 / np.pi**2) * t / (t**2 + r**2) ** 2
        else:
            raise ValueError("unsupported dimension")
        return float(vals[0]) if scalar else vals
    kmax = (45.0 / t) ** (1.0 / (2.0 * s))
    vals = np.empty(r.size)
    for i, ri in enumerate(r):
        if d == 2:
            f = lambda k: np.exp(-t * k ** (2.0 * s)) * special.j0(k * ri) * k
            pref = 1.0 / (2.0 * np.pi)
        elif d == 3:
            if ri == 0:
                f = lambda k: np.exp(-t * k ** (2.0 * s)) * k**2
            else:
                f = lambda k: np.exp(-t * k ** (2.0 * s)) * np.sin(k * ri) / (k * ri) * k**2
            pref = 1.0 / (2.0 * np.pi**2)
        else:
            raise ValueError("unsupported dimension")
        val, err = integrate.quad(f, 0.0, kmax, limit=800)
        # accept absolute errors far below the on-diagonal scale
        scale = t ** (-d / (2.0 * s))
        if err > max(1e-6 * abs(val), 1e-7 * scale):
            raise QuadratureError(
                f"free kernel inversion did not converge at r = {ri}: err {err:.2e}"
            )
        vals[i] = pref * val
    return float(vals[0]) if scalar else vals


def _tail_amplitude(kernel: KernelSpec, d: int) -> float:
    """A in the far-field asymptote p(t, r) ~ A t r^(-d-2s), fitted at t = 1."""
    r_ref = 30.0
    val = float(exact_free_kernel(kernel, d, 1.0, r_ref))
    return val * r_ref ** (d + 2.0 * kernel.s)


def periodized_free_kernel(
    kernel: KernelSpec, grid: GridSpec, t: float, displacement: np.ndarray, images: int = 4
) -> np.ndarray:
    """Free kernel summed over periodic images; oracle for torus solves.

    The lattice sum converges only algebraically, so the images outside the
    covered block are replaced by the integral of the power-law far-field
    asymptote over the complement (an equal-volume disk/ball approximation).
    """
    disp = np.asarray(displacement, dtype=float)
    L = grid.domain_length
    disp = disp - L * np.round(disp / L)
    d = grid.d
    s = kernel.s
    total = np.zeros(disp.shape[:-1])
    shifts = np.arange(-images, images + 1)
    for off in np.stack(np.meshgrid(*([shifts] * d), indexing="ij"), axis=-1).reshape(-1, d):
        rr = np.sqrt(((disp + off * L) ** 2).sum(axis=-1))
        total += exact_free_kernel(kernel, d, t, rr.ravel()).reshape(rr.shape)
    side = (2 * images + 1) * L
    if d == 2:
        r_cut = side / np.sqrt(np.pi)
        surface = 2.0 * np.pi
    else:
        r_cut = side * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
        surface = 4.0 * np.pi
    amp = _tail_amplitude(kernel, d)
    total += amp * t / L**d * surface * r_cut ** (-2.0 * s) / (2.0 * s)
    return total


def kernel_sanity(
    est: HeatKernelEstimate,
    z_stride: int = 2,
    mass_tol: float = 1e-4,
    semigroup_tol: float = 0.02,
) -> VerificationReport:
    """Mass, on-diagonal decay, and Chapman-Kolmogorov composition checks."""
    if est.times.size < 3:
        raise ValueError("sanity checks need at least three evaluation times")
    grid = est.grid
    d, s = grid.d, est.kernel.s
    report = VerificationReport("heat-kernel-sanity")
    report.ceiling = np.inf

    masses = np.array([est.mass(i) for i in range(est.times.size)])
    report.extras["masses"] = masses.tolist()
    report.extras["mass_ok"] = bool(np.abs(masses - 1.0).max() <= mass_tol)

    on_diag = np.array(
        [
            est.fields[i].values.max() * (t - est.eta) ** (d / (2.0 * s))
            for i, t in enumerate(est.times)
        ]
    )
    report.extras["on_diag_fitted"] = float(on_diag.max())
    report.extras["on_diag_per_time"] = on_diag.tolist()

    # semigroup: compose through the midpoint time on a coarse source grid.
    # The solve is linear and the sources z sit on grid points, so the sum of
    # a(z) H^d S[g_z] over z is one solve from g_0 convolved with those weights.
    mid = est.times.size // 2
    tau, t_final = float(est.times[mid]), float(est.times[-1])
    width = min(est.mollification_widths)
    H = z_stride * grid.spacing
    coarse = (slice(None, None, z_stride),) * d
    weights = np.zeros(grid.shape)
    weights[coarse] = est.raw_fields[width][mid].values[coarse] * H**d
    weights[weights < 1e-10] = 0.0
    uhat0 = _gaussian_spectral(grid, np.zeros(d), width) * np.fft.fftn(weights)
    composed = _solve_recording(
        est.stepper, uhat0, DriftProvider(est.drift), tau, np.array([t_final])
    )[0].values
    direct = est.raw_fields[width][-1].values
    l1_err = np.abs(composed - direct).sum() / np.abs(direct).sum()
    report.extras["semigroup_l1_error"] = float(l1_err)
    report.extras["semigroup_ok"] = bool(l1_err <= semigroup_tol)
    report.extras["z_grid_spacing"] = H

    lhs = float(np.abs(masses - 1.0).max())
    report.add(
        q=0.0,
        t0=est.eta,
        x0=est.y,
        radius=0.0,
        lhs=lhs + l1_err,
        rhs_terms=(mass_tol + semigroup_tol, 0.0, 0.0),
        ceiling=1.0,
    )
    return report


def upper_bound_check(
    est: HeatKernelEstimate, T: float, ceiling: float = np.inf
) -> VerificationReport:
    """Ratio p * (|x-y| + (t-eta)^(1/(2s)))^(d+2s) / (t-eta), maximized over
    the grid (restricted to |x-y| <= L/4) and over times <= T."""
    grid = est.grid
    d, s = grid.d, est.kernel.s
    dist = est.distance_to_source()
    window = dist <= grid.domain_length / 4.0
    report = VerificationReport("heat-kernel-upper-bound")
    report.ceiling = ceiling
    per_time = []
    for i, t in enumerate(est.times):
        if t > T + 1e-12:
            continue
        gap = t - est.eta
        ratio = (
            est.fields[i].values * (dist + gap ** (1.0 / (2.0 * s))) ** (d + 2.0 * s) / gap
        )
        cmax = float(ratio[window].max())
        per_time.append(cmax)
        report.add(
            q=0.0, t0=t, x0=est.y, radius=grid.domain_length / 4.0,
            lhs=cmax, rhs_terms=(1.0, 0.0, 0.0), ceiling=ceiling,
        )
    report.extras["fitted_per_time"] = per_time
    return report


def gluing_check(
    b,
    kernel: KernelSpec,
    rho_list,
    eta: float,
    y,
    t: float,
    config: SolverConfig,
    grid: GridSpec,
    slack: float = 1e-8,
) -> VerificationReport:
    """Fit the smallest constants in both truncated-vs-full kernel bounds.

    First bound: p <= p_rho + c (t-eta) rho^(-d-2s).  Second bound:
    p_rho <= exp(C (t-eta) rho^(-2s)) p.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d, s = grid.d, kernel.s
    gap = t - eta
    times = np.array([t])
    full = estimate_kernel(b, kernel.untruncated(), eta, y, times, config, grid)
    p = full.fields[0].values
    report = VerificationReport("gluing-lemma")
    report.ceiling = np.inf
    fits_c, fits_C = [], []
    agreement = {}
    for rho in rho_list:
        if rho > grid.domain_length / 4.0 + 1e-12:
            raise ValueError("truncation radius must be at most L/4")
        trunc = estimate_kernel(b, kernel.truncated(rho), eta, y, times, config, grid)
        p_rho = trunc.fields[0].values
        diff = p - p_rho - slack
        c_fit = float(max(diff.max(), 0.0) * rho ** (d + 2.0 * s) / gap)
        mask = p > 1e-6 * p.max()
        log_ratio = np.log(np.maximum(p_rho[mask], 1e-300) / p[mask])
        C_fit = float(max(log_ratio.max(), 0.0) * rho ** (2.0 * s) / gap)
        fits_c.append(c_fit)
        fits_C.append(C_fit)
        agreement[rho] = float(np.abs(p - p_rho).max() / p.max())
        report.add(
            q=0.0, t0=t, x0=tuple(y), radius=rho,
            lhs=float(p.max()),
            rhs_terms=(float(p_rho.max()), c_fit * gap * rho ** (-d - 2.0 * s), 0.0),
            ceiling=np.inf,
        )
    report.extras["fitted_c"] = fits_c
    report.extras["fitted_C"] = fits_C
    report.extras["max_rel_difference"] = agreement
    return report
