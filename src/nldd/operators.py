"""Fourier-side operators: fractional Laplacian, truncated variant, SQG drift.

The full operator acts as the multiplier |k|^(2s).  The truncated operator
restricts the jump kernel |z|^(-d-2s) to the ball |z| < rho; its multiplier

    m_rho(k) = integral_{|z|<rho} (1 - cos(k.z)) |z|^(-d-2s) dz

is evaluated by radial quadrature after integrating out the angles, and is
divided by the kernel normalization C(d, s) so that rho -> infinity recovers
|k|^(2s).  C(d, s) itself is computed by quadrature of the same integral over
all of R^d at |k| = 1, which keeps the two operators mutually consistent by
construction.  scipy is imported by the functions that need it (C(d, s) and
the d = 2 angular factor J0), so the operators of a kernel that is not
truncated never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fields import (
    DIVERGENCE_FREE_TOL,
    NON_FINITE_SAMPLES,
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    forward_half,
    gradient_wavevectors,
    half_spectrum,
    inverse_half,
    inverse_half_bound,
    read_only,
    require_divergence_free,
    wavenumber_magnitude,
)

__all__ = [
    "KernelSpec",
    "normalization_constant",
    "truncated_multiplier_table",
    "biot_savart_sqg",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Raised when a singular-kernel quadrature fails its error target."""


@dataclass(frozen=True)
class KernelSpec:
    """Model jump kernel |z|^(-d-2s) and its truncation."""

    s: float
    truncation_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ParameterError("s", f"order s must lie in (0, 1), got {self.s}")
        if self.truncation_radius is not None and not self.truncation_radius > 0:
            raise ValueError("truncation radius must be positive when present")


def _angular_factor(d: int, x: np.ndarray) -> np.ndarray:
    # Mean of cos(k.z) over the sphere |z| = r as a function of x = |k| r.
    if d == 2:
        from scipy.special import j0

        return j0(x)
    if d == 3:
        out = np.ones_like(x)
        nz = x != 0
        out[nz] = np.sin(x[nz]) / x[nz]
        return out
    raise ValueError(f"unsupported dimension {d}")


def _one_minus_angular(d: int, x: np.ndarray) -> np.ndarray:
    """1 - (angular factor), series-protected against cancellation at small x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    if d == 2:
        out[small] = xs**2 / 4.0 - xs**4 / 64.0 + xs**6 / 2304.0
    elif d == 3:
        out[small] = xs**2 / 6.0 - xs**4 / 120.0 + xs**6 / 5040.0
    else:
        raise ValueError(f"unsupported dimension {d}")
    out[~small] = 1.0 - _angular_factor(d, x[~small])
    return out


def _sphere_area(d: int) -> float:
    return 2.0 * np.pi if d == 2 else 4.0 * np.pi


@lru_cache(maxsize=32)
def normalization_constant(d: int, s: float) -> float:
    """C(d, s) with integral_{R^d} (1 - cos(z_1)) |z|^(-d-2s) dz = C(d, s).

    The integral has the closed form pi^(d/2) |Gamma(-s)| / (4^s Gamma(d/2+s)),
    used as the value; a direct quadrature of the defining integral serves as a
    cross-check at 1e-6 relative.
    """
    from scipy import integrate, special

    value = float(
        np.pi ** (d / 2.0)
        * abs(special.gamma(-s))
        / (4.0**s * special.gamma(d / 2.0 + s))
    )
    area = _sphere_area(d)

    def integrand(r):
        return float(area * r ** (-1.0 - 2.0 * s) * _one_minus_angular(d, np.atleast_1d(r))[0])

    head, ehead = integrate.quad(integrand, 0.0, 1.0, limit=200)
    # split the tail: the pure power integrates in closed form; the oscillatory
    # remainder goes to the Fourier-sine rule (QAWF) in d = 3, and in d = 2 to
    # panels between zeros of J0, averaging the last two partial sums of that
    # alternating series
    tail_power = area / (2.0 * s)
    if d == 3:
        tail_osc, eosc = integrate.quad(
            lambda r: area * r ** (-2.0 - 2.0 * s), 1.0, np.inf, weight="sin", wvar=1.0
        )
    else:
        edges = np.concatenate(([1.0], special.jn_zeros(0, 100)))
        panels = [
            integrate.quad(lambda r: area * r ** (-1.0 - 2.0 * s) * special.j0(r), lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        partial = np.cumsum([v for v, _ in panels])
        tail_osc = 0.5 * (partial[-2] + partial[-1])
        eosc = sum(e for _, e in panels)
    check = head + tail_power - tail_osc
    if abs(check - value) > 1e-6 * abs(value) + ehead + eosc:
        raise QuadratureError(
            f"normalization constant cross-check failed: quadrature {check} "
            f"vs closed form {value}"
        )
    return value


def _truncated_profile(
    d: int, s: float, x: np.ndarray, order: int, osc_per_panel: float
) -> np.ndarray:
    """F(x) = m_rho(k) rho^(2s) at x = |k| rho, un-normalized, for an array x.

    Composite Gauss-Legendre rule on (2^-60, 1]: 60 dyadic octaves toward
    zero, each split so no piece spans more than osc_per_panel oscillations
    of the integrand; the nodes of each piece count are broadcast against x.
    """
    xg, wg = leggauss(order)
    out = np.zeros(x.size)
    hi = 1.0
    for _ in range(60):
        lo = hi / 2.0
        pieces = np.maximum(1, np.ceil(x * (hi - lo) / (2.0 * np.pi * osc_per_panel)))
        for p in np.unique(pieces):
            sel = pieces == p
            edges = np.linspace(lo, hi, int(p) + 1)
            mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
            r = (mid[:, None] + half[:, None] * xg).ravel()
            w = (half[:, None] * wg).ravel()
            weight = r ** (-1.0 - 2.0 * s) * w
            out[sel] += (_one_minus_angular(d, x[sel, None] * r) * weight).sum(axis=1)
        hi = lo
    return _sphere_area(d) * out


def truncated_multiplier_table(grid: GridSpec, kernel: KernelSpec) -> np.ndarray:
    """Normalized truncated multiplier m_rho(k)/C(d,s) on the full k-grid.

    The truncated kernel scales exactly, m_rho(k) = rho^(-2s) F(|k| rho), so F
    is evaluated once on the distinct values of |k| rho.  An order-16 rule is
    checked against an order-24 rule with finer panels; disagreement beyond
    1e-8 relative raises :class:`QuadratureError`.
    """
    rho = kernel.truncation_radius
    if rho is None:
        raise ValueError("kernel has no truncation radius")
    d, s = grid.d, kernel.s
    uniq, inv = np.unique(wavenumber_magnitude(grid).ravel(), return_inverse=True)
    x = uniq * rho
    vals = _truncated_profile(d, s, x, order=16, osc_per_panel=2.0)
    ref = _truncated_profile(d, s, x, order=24, osc_per_panel=1.0)
    bad = np.abs(vals - ref) > np.maximum(1e-8 * np.abs(ref), 1e-14 * rho ** (2.0 * s))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"truncated multiplier quadrature did not converge at |k| = {uniq[i]}: "
            f"{vals[i]} vs {ref[i]}"
        )
    table = rho ** (-2.0 * s) * ref / normalization_constant(d, s)
    return table[inv].reshape(grid.shape)


def diffusion_multiplier(grid: GridSpec, kernel: KernelSpec) -> np.ndarray:
    """Multiplier of the dissipative operator for this kernel on this grid."""
    if kernel.truncation_radius is None:
        return wavenumber_magnitude(grid) ** (2.0 * kernel.s)
    return truncated_multiplier_table(grid, kernel)


@lru_cache(maxsize=16)
def _sqg_multipliers(grid: GridSpec) -> np.ndarray:
    # rfftn-layout factors uhat -> bhat, 1j*(-k2, k1)/|k| off the Nyquist
    # planes, stacked on a leading axis: the unpaired Nyquist mode breaks
    # Hermitian symmetry under odd spectral multipliers, so it is dropped
    k1, k2 = gradient_wavevectors(grid)
    kmag = half_spectrum(wavenumber_magnitude(grid))
    inv = np.divide(1.0, kmag, out=np.zeros_like(kmag), where=kmag > 0)
    for axis in range(grid.d):
        inv[(slice(None),) * axis + (grid.n // 2,)] = 0.0
    return read_only(np.stack((1j * (-k2) * inv, 1j * k1 * inv)))


@lru_cache(maxsize=16)
def _spectral_gradient(grid: GridSpec) -> np.ndarray:
    """rfftn-layout multipliers 1j*k_j of the partial derivatives, stacked
    on a leading axis."""
    return read_only(np.stack([1j * k for k in gradient_wavevectors(grid)]))


def _sqg_drift(
    uhat: np.ndarray, grid: GridSpec, b: np.ndarray,
    hat: np.ndarray, re0: np.ndarray, re1: np.ndarray,
) -> float:
    """SQG drift from the rfftn coefficients of u, into ``b`` of shape
    (d, *grid.shape), checked finite and divergence-free; returns its max
    norm.  ``hat``, of shape (d, *uhat.shape), and the real fields ``re0``
    and ``re1``, in the shape of the samples, are scratch.  A NaN or
    infinite sample makes the norm non-finite, so the norm is the
    finiteness check.

    b is the real inverse transform of the stack m_j * uhat, made by one
    multiply and one stacked transform in place in ``hat``.  The check reads
    the divergence of the very coefficients b is transformed from, D = sum
    over j of ik_j * (m_j * uhat), so no sample of b is transformed back.
    It first reads fields.inverse_half_bound(D), an upper bound on
    max|div b| on the grid that costs no transform; only a bound above the
    tolerance runs the inverse transform of D, so a drift passes or fails on
    the exact value, which a failure reports.  That exact value equals
    VectorField.spectral_divergence_max up to roundoff on coefficients
    whose Nyquist planes are zero, as here by construction; on a Nyquist
    mode it would read 0, so other drifts keep the fftn check.
    """
    m = _sqg_multipliers(grid)
    inverse_half(np.multiply(m, uhat, out=hat), grid, out=b, work=hat)
    mag2 = np.add(np.square(b[0], out=re0), np.square(b[1], out=re1), out=re0)
    norm = float(np.sqrt(mag2.max()))
    if not math.isfinite(norm):
        raise ValueError(NON_FINITE_SAMPLES)
    # the transform ran in place in hat: form b's coefficients again
    ik_hat = np.multiply(_spectral_gradient(grid), np.multiply(m, uhat, out=hat), out=hat)
    div = np.add(ik_hat[0], ik_hat[1], out=hat[0])
    err = inverse_half_bound(div, grid, scratch=hat[1])
    if err > DIVERGENCE_FREE_TOL * norm:
        err = float(np.abs(inverse_half(div, grid, out=re0), out=re0).max())
    require_divergence_free(err, norm)
    return norm


def biot_savart_sqg(u: ScalarField) -> VectorField:
    """SQG drift b = perp-gradient of (-Laplace)^(-1/2) u, divergence-free."""
    grid = u.grid
    if grid.d != 2:
        raise ValueError("the SQG Biot-Savart law is two-dimensional")
    uhat = forward_half(u.values, grid)
    hat = np.empty((grid.d, *uhat.shape), dtype=complex)
    b, real = np.empty((grid.d, *grid.shape)), np.empty((2, *grid.shape))
    _sqg_drift(uhat, grid, b, hat, *real)
    field = VectorField(tuple(ScalarField(grid, c, u.time) for c in b))
    field.divergence_free = True  # set after the check, so the fftn one does not run
    return field

