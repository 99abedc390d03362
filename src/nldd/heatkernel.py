"""Heat kernel estimation and the bound checks that go with it.

Dirac initial data is realized as (4 g_{h/2} - g_h) / 3, the Richardson
extrapolation in the width of two periodic Gaussians, whose leading bias is
quadratic in h; the solve is linear, so one solve from that state is the
extrapolation of the two widths' solves.  With three or more times the
semigroup check's terms ride in the same step loop: g_{h/2} as a second
member of the stack, and from the middle time the composition through it as
a third, so ``kernel_sanity`` takes no solver step.  ``check_estimate`` is
the one home of the rules for an estimate's inputs.  ``upper_bound_check``
fits the constant of the pointwise upper bound over an estimate's times.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .evolution import SolverConfig, _Stepper
from .fields import (
    GridSpec,
    ParameterError,
    ScalarField,
    forward_half,
    gradient_wavevectors,
    grid_distance,
    half_spectrum,
    inverse_half,
    wavevectors,
)
from .operators import KernelSpec
from .reports import VerificationReport

__all__ = [
    "HeatKernelEstimate",
    "check_estimate",
    "estimate_kernel",
    "kernel_sanity",
    "upper_bound_check",
]

SANITY_MASS_TOL = 1e-4  # |mass - 1| allowed at every evaluation time
SANITY_SEMIGROUP_TOL = 0.02  # relative L1 error of the Chapman-Kolmogorov composition
SEMIGROUP_Z_STRIDE = 2  # intermediate sources on every 2nd grid point per axis


@dataclass
class HeatKernelEstimate:
    grid: GridSpec
    eta: float
    y: tuple[float, ...]
    times: np.ndarray
    fields: list[ScalarField]  # Richardson-extrapolated
    kernel: KernelSpec | None = None
    # (composed, direct) at times[-1], from estimate_kernel: the h/2 kernel
    # composed through times[mid], and the h/2 kernel itself
    semigroup: tuple[ScalarField, ScalarField] | None = None

    def mass(self, i: int) -> float:
        g = self.grid
        return float(self.fields[i].values.mean() * g.domain_length**g.d)


def _gaussian_spectral(grid: GridSpec, y: np.ndarray, width: float) -> np.ndarray:
    """rfftn coefficients of a unit-mass periodic Gaussian at y.  The real
    field keeps only the cosine of a Nyquist index's share of the phase."""
    ks = [half_spectrum(k) for k in wavevectors(grid)]
    paired = gradient_wavevectors(grid)  # ks with each Nyquist index zeroed
    phase = sum(k * yc for k, yc in zip(paired, y))
    nyquist = np.cos(sum((k - kp) * yc for k, kp, yc in zip(ks, paired, y)))
    gauss = np.exp(-0.5 * width**2 * sum(k**2 for k in ks) - 1j * phase)
    return (grid.num_points / grid.domain_length**grid.d) * gauss * nyquist


def _solve_recording(
    stepper: _Stepper,
    uhat0: np.ndarray,
    t_start: float,
    record_times: np.ndarray,
    join: tuple[int, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> list[list[ScalarField]]:
    """Advance a stack of initial coefficient arrays (one leading batch axis)
    from t_start in one loop, and give per member its fields at the sorted
    record times, each a whole number of steps after t_start.

    With ``join = (i, source)``, ``source`` maps the stack's samples at the
    i-th record time to the coefficients of one more member, which joins the
    stack there; its list, last, holds the record times after that one."""
    dt = stepper.config.dt
    grid = stepper.grid
    steps = np.rint((np.sort(record_times) - t_start) / dt).astype(int)
    join_step, source = (None, None) if join is None else (steps[join[0]], join[1])
    uhat = uhat0.copy()
    out = {}
    for step in range(1, steps[-1] + 1):
        stepper.step(uhat, t_start + (step - 1) * dt)
        if step in steps:
            out[step] = inverse_half(uhat, grid)
        if step == join_step:
            uhat = np.concatenate([uhat, source(out[step])[None]])
    return [
        [ScalarField(grid, out[k][m], t_start + k * dt) for k in steps if m < len(out[k])]
        for m in range(uhat.shape[0])
    ]


def _composed_source(grid: GridSpec, width: float, values: np.ndarray) -> np.ndarray:
    """rfftn coefficients of the Chapman-Kolmogorov sum over the coarse
    sources z of values(z) H^d g_z, the width-``width`` Gaussian at z.  The
    sources sit on every SEMIGROUP_Z_STRIDE-th grid point per axis, H apart,
    so the sum is the Gaussian at 0 convolved with those weights."""
    H = SEMIGROUP_Z_STRIDE * grid.spacing
    coarse = (slice(None, None, SEMIGROUP_Z_STRIDE),) * grid.d
    weights = np.zeros(grid.shape)
    weights[coarse] = values[coarse] * H**grid.d
    weights[weights < 1e-10] = 0.0
    return _gaussian_spectral(grid, np.zeros(grid.d), width) * forward_half(weights, grid)


def check_estimate(grid: GridSpec, config: SolverConfig, eta: float, times: np.ndarray) -> None:
    """Raise ParameterError, naming 'drift_mode', 'h_moll' or 'times', unless
    a heat kernel from eta can be estimated at the sorted times with these
    solver settings: the drift is not SQG, h_moll is at least one grid
    spacing, and every time lies a whole number of steps of dt after eta, the
    first at least 4 h_moll^(2s) after it."""
    if config.drift_mode == "sqg":
        raise ParameterError(
            "drift_mode",
            "the SQG drift depends on the solution, so the equation has no heat kernel; "
            "use none, constant, shear or lacunary",
        )
    h = config.h_moll
    if h < grid.spacing:
        raise ParameterError("h_moll", f"h_moll = {h} is below the grid spacing {grid.spacing}")
    if not times[0] > eta:
        raise ParameterError("times", f"every time must lie after eta = {eta}, got {times[0]:g}")
    min_gap = 4.0 * h ** (2.0 * config.kernel.s)
    if times[0] - eta < min_gap:
        raise ParameterError(
            "times",
            f"the first time {times[0]:g} lies {times[0] - eta:g} after eta; "
            f"h_moll = {h:.4g} needs a gap of at least 4 h_moll^(2s) = {min_gap:.4g}",
        )
    for t in times:
        if config.steps_to(float(t - eta)) is None:
            raise ParameterError(
                "times",
                f"time {t:g} is not a whole number of steps of dt = {config.dt} after eta = {eta}",
            )


def estimate_kernel(
    b, eta: float, y, times, config: SolverConfig, grid: GridSpec
) -> HeatKernelEstimate:
    """The heat kernel of config.kernel from y at eta, at each of the times:
    one solve from the Richardson-extrapolated Dirac (4 g_{h/2} - g_h) / 3,
    h = config.h_moll, whose fields are the estimate's as they come out of
    the loop.  With three or more times, g_{h/2} advances beside it and the
    composition through the middle time joins the stack there
    (``HeatKernelEstimate.semigroup``, read by kernel_sanity).
    check_estimate runs before any step."""
    times = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    check_estimate(grid, config, eta, times)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = config.h_moll
    fine = _gaussian_spectral(grid, y, h / 2.0)
    members = [(4.0 * fine - _gaussian_spectral(grid, y, h)) / 3.0]
    join = None
    if times.size >= 3:
        members.append(fine)
        join = (times.size // 2, lambda samples: _composed_source(grid, h / 2.0, samples[1]))
    solved = _solve_recording(_Stepper(grid, config, b), np.stack(members), eta, times, join)
    return HeatKernelEstimate(
        grid=grid,
        eta=eta,
        y=tuple(y),
        times=times,
        fields=solved[0],
        kernel=config.kernel,
        semigroup=(solved[2][-1], solved[1][-1]) if join else None,
    )


def kernel_sanity(est: HeatKernelEstimate) -> VerificationReport:
    """Mass, on-diagonal decay, and Chapman-Kolmogorov composition checks."""
    if est.semigroup is None:
        raise ValueError(
            "kernel_sanity needs an estimate from estimate_kernel with at least "
            "three evaluation times: the semigroup check reads the composition "
            "solved alongside the kernel, which a loaded estimate, or one with "
            "fewer times, does not carry"
        )
    grid = est.grid
    d, s = grid.d, est.kernel.s
    report = VerificationReport("heat-kernel-sanity", ceiling=1.0)

    masses = np.array([est.mass(i) for i in range(est.times.size)])
    report.extras["masses"] = masses.tolist()
    report.extras["mass_ok"] = bool(np.abs(masses - 1.0).max() <= SANITY_MASS_TOL)

    on_diag = np.array(
        [
            est.fields[i].values.max() * (t - est.eta) ** (d / (2.0 * s))
            for i, t in enumerate(est.times)
        ]
    )
    report.extras["on_diag_fitted"] = float(on_diag.max())
    report.extras["on_diag_per_time"] = on_diag.tolist()

    # semigroup: the h/2 kernel composed through the middle time on a coarse
    # source grid (solved by estimate_kernel) against the direct h/2 kernel
    composed, direct = (f.values for f in est.semigroup)
    l1_err = np.abs(composed - direct).sum() / np.abs(direct).sum()
    report.extras["semigroup_l1_error"] = float(l1_err)
    report.extras["semigroup_ok"] = bool(l1_err <= SANITY_SEMIGROUP_TOL)
    report.extras["z_grid_spacing"] = SEMIGROUP_Z_STRIDE * grid.spacing

    lhs = float(np.abs(masses - 1.0).max())
    report.add(
        q=0.0,
        t0=est.eta,
        x0=est.y,
        radius=0.0,
        lhs=lhs + l1_err,
        rhs_terms=(SANITY_MASS_TOL + SANITY_SEMIGROUP_TOL, 0.0, 0.0),
    )
    return report


def upper_bound_check(est: HeatKernelEstimate, T: float) -> VerificationReport:
    """Ratio p * (|x-y| + (t-eta)^(1/(2s)))^(d+2s) / (t-eta), maximized over
    the grid (restricted to |x-y| <= L/4) and over times <= T."""
    grid = est.grid
    d, s = grid.d, est.kernel.s
    dist = grid_distance(grid, est.y)
    window = dist <= grid.domain_length / 4.0
    report = VerificationReport("heat-kernel-upper-bound")
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
            lhs=cmax, rhs_terms=(1.0, 0.0, 0.0),
        )
    report.extras["fitted_per_time"] = per_time
    return report
