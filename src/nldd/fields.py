"""Gridded fields on the periodic torus and their Fourier-side representation.

All fields live on a uniform grid over [0, L)^d with periodic boundary
conditions.  The spectral convention is k = (2*pi/L) * m for integer
wavevectors m in [-n/2, n/2)^d, matching ``numpy.fft.fftfreq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "SpectralField",
    "VectorField",
    "make_grid",
    "forward",
    "inverse",
    "dealias_mask",
    "grid_coordinates",
    "wavevectors",
    "torus_distance",
    "grid_distance",
    "ball_mask",
    "l2_norm",
]

DIVERGENCE_FREE_TOL = 1e-10


class GridError(ValueError):
    """Invalid grid construction parameters."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L)^d."""

    d: int
    n: int
    domain_length: float

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @property
    def num_points(self) -> int:
        return self.n**self.d


def make_grid(d: int, n: int, domain_length: float) -> GridSpec:
    """Build a grid, rejecting dimensions and sizes the solver cannot handle."""
    if d not in (2, 3):
        raise GridError(f"spatial dimension must be 2 or 3, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise GridError(f"points per axis must be a power of two >= 8, got {n}")
    if not domain_length > 0:
        raise GridError(f"domain length must be positive, got {domain_length}")
    return GridSpec(d=d, n=n, domain_length=float(domain_length))


@lru_cache(maxsize=64)
def _axis(n: int, length: float) -> np.ndarray:
    return np.arange(n) * (length / n)


@lru_cache(maxsize=64)
def _coordinate_axes(d: int, n: int, length: float) -> tuple[np.ndarray, ...]:
    return tuple(np.meshgrid(*([_axis(n, length)] * d), indexing="ij"))


def grid_coordinates(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays (x_1, ..., x_d), shape grid.shape each."""
    return _coordinate_axes(grid.d, grid.n, grid.domain_length)


@lru_cache(maxsize=64)
def _wavevector_axes(d: int, n: int, length: float) -> tuple[np.ndarray, ...]:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    return tuple(np.meshgrid(*([k] * d), indexing="ij"))


def wavevectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Wavevector component arrays (k_1, ..., k_d)."""
    return _wavevector_axes(grid.d, grid.n, grid.domain_length)


@lru_cache(maxsize=64)
def _wavenumber_magnitude(d: int, n: int, length: float) -> np.ndarray:
    ks = _wavevector_axes(d, n, length)
    return np.sqrt(sum(k**2 for k in ks))


def wavenumber_magnitude(grid: GridSpec) -> np.ndarray:
    return _wavenumber_magnitude(grid.d, grid.n, grid.domain_length)


@dataclass
class ScalarField:
    """Real samples of a scalar quantity at one instant."""

    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.num_points:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"samples of shape {self.values.shape} do not fit grid {self.grid.shape}"
                )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite samples")

    @property
    def samples(self) -> np.ndarray:
        """Row-major flat view of the samples."""
        return self.values.reshape(-1)

    def mean(self) -> float:
        return float(self.values.mean())

    def with_values(self, values: np.ndarray, time: float | None = None) -> "ScalarField":
        return ScalarField(self.grid, values, self.time if time is None else time)


@dataclass
class SpectralField:
    """Fourier coefficients of a field, fftn layout."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != self.grid.shape:
            raise ValueError("coefficient array does not match grid shape")


@dataclass
class VectorField:
    """d scalar components sharing one grid and time tag."""

    components: tuple[ScalarField, ...]
    divergence_free: bool = False

    def __post_init__(self):
        self.components = tuple(self.components)
        grids = {c.grid for c in self.components}
        if len(grids) != 1:
            raise ValueError("vector field components must share one grid")
        if len(self.components) != self.grid.d:
            raise ValueError("number of components must equal the grid dimension")
        if self.divergence_free:
            err = self.spectral_divergence_max()
            scale = max(self.max_norm(), 1e-300)
            if err > DIVERGENCE_FREE_TOL * scale:
                raise ValueError(
                    f"divergence-free assertion failed: |div b| = {err:.3e} "
                    f"exceeds {DIVERGENCE_FREE_TOL:.0e} * max|b| = {DIVERGENCE_FREE_TOL * scale:.3e}"
                )

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    @property
    def time(self) -> float:
        return self.components[0].time

    def max_norm(self) -> float:
        mag2 = sum(c.values**2 for c in self.components)
        return float(np.sqrt(mag2.max()))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(c.values for c in self.components)

    def spectral_divergence_max(self) -> float:
        ks = wavevectors(self.grid)
        div = sum(1j * k * forward(c).coefficients for k, c in zip(ks, self.components))
        return float(np.abs(np.fft.ifftn(div)).max())


def forward(f: ScalarField) -> SpectralField:
    return SpectralField(f.grid, np.fft.fftn(f.values))


def inverse(fhat: SpectralField, time: float = 0.0) -> ScalarField:
    return ScalarField(fhat.grid, np.fft.ifftn(fhat.coefficients).real, time)


@lru_cache(maxsize=64)
def _dealias_mask(d: int, n: int) -> np.ndarray:
    m = np.fft.fftfreq(n) * n
    keep_1d = np.abs(m) <= n / 3.0
    mask = np.ones((n,) * d, dtype=bool)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        mask &= keep_1d.reshape(shape)
    return mask


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Two-thirds rule mask: True where all |m_i| <= n/3."""
    return _dealias_mask(grid.d, grid.n)


def torus_distance(points: np.ndarray, center: np.ndarray, length: float) -> np.ndarray:
    """Minimum-image distance on the torus; points has shape (..., d)."""
    delta = np.asarray(points) - np.asarray(center)
    delta = delta - length * np.round(delta / length)
    return np.sqrt((delta**2).sum(axis=-1))


def grid_distance(grid: GridSpec, center) -> np.ndarray:
    """Minimum-image distance from every grid point to center, shape grid.shape.

    Equal to torus_distance over the stacked grid coordinates, built from
    per-axis offsets broadcast together instead.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    length = grid.domain_length
    x = _axis(grid.n, length)
    dist2 = 0.0
    for j in range(grid.d):
        delta = x - center[j]
        delta = delta - length * np.round(delta / length)
        shape = [1] * grid.d
        shape[j] = grid.n
        dist2 = dist2 + (delta**2).reshape(shape)
    return np.sqrt(dist2)


def ball_mask(grid: GridSpec, center, radius: float) -> np.ndarray:
    """Grid points at torus distance below radius from center."""
    return grid_distance(grid, center) < radius


def l2_norm(f: ScalarField) -> float:
    """Physical-space L2 norm with the cell-volume quadrature weight."""
    return float(np.sqrt((f.values**2).sum() * f.grid.cell_volume))

