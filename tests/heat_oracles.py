"""Oracles for the estimated heat kernel: the free (b = 0) kernel on R^d, its
periodisation over the torus's images, and the gluing check of truncated
against full kernels.

The free kernel has a closed form at s = 1/2 and is otherwise recovered by
radial Fourier inversion of exp(-t |k|^(2s)): ``free_kernel_by_panels``
inverts with one composite Gauss-Legendre rule shared by every radius, and
``free_kernel_by_quad`` keeps the adaptive per-radius inversion as the
reference it is checked against.  scipy is imported only when an inversion
runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from nldd.evolution import SolverConfig
from nldd.fields import GridSpec
from nldd.heatkernel import estimate_kernel
from nldd.operators import KernelSpec, QuadratureError
from nldd.reports import VerificationReport

PERIODIC_IMAGES = 4  # periodized_free_kernel sums the images within 4 periods
GLUING_SLACK = 1e-8  # p - p_rho below this is roundoff, not a gluing constant
PANEL_NODES = 24  # Gauss-Legendre nodes per panel of the inversion rule
PANEL_PHASE = 8.0 * np.pi  # the most k r a panel spans: four periods of the radial factor
GRADED_PANELS = 10  # the first panel, halved this often toward the k^(2s) cusp at k = 0
TABLE_ENTRIES = 2**22  # the most (radius, node) pairs evaluated at once


def _check_free_kernel_args(d: int, t: float) -> None:
    if t <= 0:
        raise ValueError("time must be positive")
    if d not in (2, 3):
        raise ValueError("unsupported dimension")


def _inversion_cutoff(s: float, t: float) -> float:
    """The wavenumber past which exp(-t k^(2s)) is below exp(-45)."""
    return (45.0 / t) ** (1.0 / (2.0 * s))


def exact_free_kernel(kernel: KernelSpec, d: int, t: float, r) -> np.ndarray | float:
    """Free (b = 0) kernel on R^d at time t and radius r: the closed form at
    s = 1/2, ``free_kernel_by_panels`` otherwise."""
    _check_free_kernel_args(d, t)
    s = kernel.s
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if abs(s - 0.5) < 1e-14:
        if d == 2:
            vals = (1.0 / (2.0 * np.pi)) * t / (t**2 + r**2) ** 1.5
        else:
            vals = (1.0 / np.pi**2) * t / (t**2 + r**2) ** 2
    else:
        vals = free_kernel_by_panels(kernel, d, t, r)
    return float(vals[0]) if scalar else vals


def free_kernel_by_panels(kernel: KernelSpec, d: int, t: float, r) -> np.ndarray:
    """The radial Fourier inversion of exp(-t |k|^(2s)) at every radius r.

    The self-similarity p(t, r) = t^(-d/2s) p(1, r t^(-1/2s)) reduces every
    radius to t = 1, where one composite Gauss-Legendre rule in k, shared by
    all radii, inverts exp(-k^(2s)) on [0, 45^(1/2s)].  Its panels span at
    most PANEL_PHASE of k r at the largest rescaled radius, and the first is
    graded geometrically toward k = 0, where k^(2s) has its cusp.
    """
    _check_free_kernel_args(d, t)
    s = kernel.s
    rho = np.atleast_1d(np.asarray(r, dtype=float)) * t ** (-1.0 / (2.0 * s))
    kmax = _inversion_cutoff(s, 1.0)
    panels = int(np.ceil(kmax * max(rho.max(), 1.0) / PANEL_PHASE))
    h = kmax / panels
    edges = np.concatenate(
        [[0.0], h * 0.5 ** np.arange(GRADED_PANELS, 0, -1), h * np.arange(1, panels + 1)]
    )
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    k = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w).ravel() * np.exp(-(k ** (2.0 * s))) * k ** (d - 1)
    if d == 2:
        from scipy.special import j0 as radial

        pref = 1.0 / (2.0 * np.pi)
    else:
        radial = lambda kr: np.sinc(kr / np.pi)  # sin(kr) / (kr)
        pref = 1.0 / (2.0 * np.pi**2)
    rows = max(1, TABLE_ENTRIES // k.size)
    vals = np.concatenate(
        [radial(rho[i : i + rows, None] * k) @ weights for i in range(0, rho.size, rows)]
    )
    return pref * t ** (-d / (2.0 * s)) * vals


def free_kernel_by_quad(kernel: KernelSpec, d: int, t: float, r) -> np.ndarray:
    """The radial Fourier inversion of exp(-t |k|^(2s)) on [0, (45/t)^(1/2s)]
    by adaptive quadrature, one radius at a time, with target relative error
    1e-6: the reference for ``free_kernel_by_panels``."""
    _check_free_kernel_args(d, t)
    from scipy import integrate, special

    s = kernel.s
    r = np.atleast_1d(np.asarray(r, dtype=float))
    kmax = _inversion_cutoff(s, t)
    vals = np.empty(r.size)
    for i, ri in enumerate(r):
        if d == 2:
            f = lambda k: np.exp(-t * k ** (2.0 * s)) * special.j0(k * ri) * k
            pref = 1.0 / (2.0 * np.pi)
        elif ri == 0:
            f = lambda k: np.exp(-t * k ** (2.0 * s)) * k**2
            pref = 1.0 / (2.0 * np.pi**2)
        else:
            f = lambda k: np.exp(-t * k ** (2.0 * s)) * np.sin(k * ri) / (k * ri) * k**2
            pref = 1.0 / (2.0 * np.pi**2)
        val, err = integrate.quad(f, 0.0, kmax, limit=800)
        # accept absolute errors far below the on-diagonal scale
        scale = t ** (-d / (2.0 * s))
        if err > max(1e-6 * abs(val), 1e-7 * scale):
            raise QuadratureError(
                f"free kernel inversion did not converge at r = {ri}: err {err:.2e}"
            )
        vals[i] = pref * val
    return vals


def _tail_amplitude(kernel: KernelSpec, d: int) -> float:
    """A in the far-field asymptote p(t, r) ~ A t r^(-d-2s), fitted at t = 1."""
    r_ref = 30.0
    val = float(exact_free_kernel(kernel, d, 1.0, r_ref))
    return val * r_ref ** (d + 2.0 * kernel.s)


def periodized_free_kernel(
    kernel: KernelSpec, grid: GridSpec, t: float, displacement: np.ndarray
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
    shifts = np.arange(-PERIODIC_IMAGES, PERIODIC_IMAGES + 1)
    for off in np.stack(np.meshgrid(*([shifts] * d), indexing="ij"), axis=-1).reshape(-1, d):
        rr = np.sqrt(((disp + off * L) ** 2).sum(axis=-1))
        total += exact_free_kernel(kernel, d, t, rr.ravel()).reshape(rr.shape)
    side = (2 * PERIODIC_IMAGES + 1) * L
    if d == 2:
        r_cut = side / np.sqrt(np.pi)
        surface = 2.0 * np.pi
    else:
        r_cut = side * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
        surface = 4.0 * np.pi
    amp = _tail_amplitude(kernel, d)
    total += amp * t / L**d * surface * r_cut ** (-2.0 * s) / (2.0 * s)
    return total


def gluing_check(
    b, rho_list, eta: float, y, t: float, config: SolverConfig, grid: GridSpec
) -> VerificationReport:
    """Fit the smallest constants in both truncated-vs-full kernel bounds of
    order s = config.kernel.s.

    First bound: p <= p_rho + c (t-eta) rho^(-d-2s).  Second bound:
    p_rho <= exp(C (t-eta) rho^(-2s)) p.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d, s = grid.d, config.kernel.s
    gap = t - eta
    times = np.array([t])
    full = estimate_kernel(b, eta, y, times, replace(config, kernel=KernelSpec(s)), grid)
    p = full.fields[0].values
    report = VerificationReport("gluing-lemma")
    fits_c, fits_C = [], []
    agreement = {}
    for rho in rho_list:
        if rho > grid.domain_length / 4.0 + 1e-12:
            raise ValueError("truncation radius must be at most L/4")
        truncated = replace(config, kernel=KernelSpec(s, rho))
        p_rho = estimate_kernel(b, eta, y, times, truncated, grid).fields[0].values
        diff = p - p_rho - GLUING_SLACK
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
        )
    report.extras["fitted_c"] = fits_c
    report.extras["fitted_C"] = fits_C
    report.extras["max_rel_difference"] = agreement
    return report
