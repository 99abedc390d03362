"""Fourier-side operators: fractional Laplacian, truncated variant, SQG drift.

The full operator acts as the multiplier |k|^(2s).  The truncated operator
restricts the jump kernel |z|^(-d-2s) to the ball |z| < rho; its multiplier

    m_rho(k) = integral_{|z|<rho} (1 - cos(k.z)) |z|^(-d-2s) dz

is evaluated by radial quadrature after integrating out the angles, and is
divided by the kernel normalization C(d, s) so that rho -> infinity recovers
|k|^(2s).  C(d, s) itself is computed by quadrature of the same integral over
all of R^d at |k| = 1, which keeps the two operators mutually consistent by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    forward,
    wavenumber_magnitude,
    wavevectors,
)

__all__ = [
    "KernelSpec",
    "normalization_constant",
    "truncated_multiplier_table",
    "biot_savart_sqg",
    "leray_project",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Raised when a singular-kernel quadrature fails its error target."""


@dataclass(frozen=True)
class KernelSpec:
    """Model jump kernel |z|^(-d-2s) and its truncation.

    ``lam`` is the ellipticity constant of the admissible kernel class; the
    model kernel realizes it through the normalization constant C(d, s).
    """

    s: float
    lam: float = 1.0
    truncation_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"order s must lie in (0, 1), got {self.s}")
        if self.lam < 1.0:
            raise ValueError(f"ellipticity constant must be >= 1, got {self.lam}")
        if self.truncation_radius is not None and not self.truncation_radius > 0:
            raise ValueError("truncation radius must be positive when present")

    def truncated(self, rho: float) -> "KernelSpec":
        return KernelSpec(self.s, self.lam, rho)

    def untruncated(self) -> "KernelSpec":
        return KernelSpec(self.s, self.lam, None)


def _angular_factor(d: int, x: np.ndarray) -> np.ndarray:
    # Mean of cos(k.z) over the sphere |z| = r as a function of x = |k| r.
    if d == 2:
        return special.j0(x)
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


def _zero_nyquist(hat: np.ndarray, grid) -> np.ndarray:
    # the unpaired Nyquist mode breaks Hermitian symmetry under odd
    # spectral multipliers; drop it before projecting
    out = hat.copy()
    half = grid.n // 2
    for axis in range(grid.d):
        idx = [slice(None)] * grid.d
        idx[axis] = half
        out[tuple(idx)] = 0.0
    return out


def biot_savart_sqg(u: ScalarField) -> VectorField:
    """SQG drift b = perp-gradient of (-Laplace)^(-1/2) u, divergence-free."""
    if u.grid.d != 2:
        raise ValueError("the SQG Biot-Savart law is two-dimensional")
    uhat = _zero_nyquist(forward(u).coefficients, u.grid)
    k1, k2 = wavevectors(u.grid)
    kmag = wavenumber_magnitude(u.grid)
    inv = np.zeros_like(kmag)
    nz = kmag > 0
    inv[nz] = 1.0 / kmag[nz]
    b1 = np.fft.ifftn(1j * (-k2) * inv * uhat).real
    b2 = np.fft.ifftn(1j * k1 * inv * uhat).real
    return VectorField(
        (ScalarField(u.grid, b1, u.time), ScalarField(u.grid, b2, u.time)),
        divergence_free=True,
    )


def leray_project(b: VectorField) -> VectorField:
    """Projection onto divergence-free fields: bhat -> bhat - k (k.bhat)/|k|^2."""
    grid = b.grid
    ks = wavevectors(grid)
    hats = [_zero_nyquist(forward(c).coefficients, grid) for c in b.components]
    kmag2 = sum(k**2 for k in ks)
    inv = np.zeros_like(kmag2)
    nz = kmag2 > 0
    inv[nz] = 1.0 / kmag2[nz]
    kdotb = sum(k * h for k, h in zip(ks, hats))
    comps = tuple(
        ScalarField(grid, np.fft.ifftn(h - k * kdotb * inv).real, b.time)
        for k, h in zip(ks, hats)
    )
    return VectorField(comps, divergence_free=True)
