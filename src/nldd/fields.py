"""Gridded fields on the periodic torus and their Fourier-side representation.

All fields live on a uniform grid over [0, L)^d with periodic boundary
conditions.  The spectral convention is k = (2*pi/L) * m for integer
wavevectors m in [-n/2, n/2)^d, matching ``numpy.fft.fftfreq``, in the full
``fftn`` layout; the solver keeps its state in the ``rfftn`` half-spectrum,
the fftn arrays with the last axis cut to n//2 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "make_grid",
    "ParameterError",
    "dealias_mask",
    "grid_coordinates",
    "wavevectors",
    "half_spectrum",
    "read_only",
    "gradient_wavevectors",
    "forward_half",
    "inverse_half",
    "inverse_half_bound",
    "dealias_columns",
    "forward_band",
    "inverse_band",
    "require_divergence_free",
    "torus_distance",
    "grid_distance",
    "ball_mask",
    "l2_norm",
]

DIVERGENCE_FREE_TOL = 1e-10
# what a field with a NaN or infinite sample is refused with
NON_FINITE_SAMPLES = "scalar field contains non-finite samples"


class ParameterError(ValueError):
    """An input a grid, kernel, solver or solve cannot take, named by
    ``parameter``; the config layer maps that name onto its field path."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


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
        raise ParameterError("d", f"spatial dimension must be 2 or 3, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ParameterError("n", f"points per axis must be a power of two >= 8, got {n}")
    if not domain_length > 0:
        raise ParameterError("domain_length", f"domain length must be positive, got {domain_length}")
    return GridSpec(d=d, n=n, domain_length=float(domain_length))


def read_only(tables):
    """``tables``, an array or a tuple of arrays, with each array marked
    read-only: a cached table is shared by every caller."""
    for a in tables if isinstance(tables, tuple) else (tables,):
        a.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def _axis(grid: GridSpec) -> np.ndarray:
    """The grid's coordinates along one axis."""
    return read_only(np.arange(grid.n) * grid.spacing)


@lru_cache(maxsize=64)
def grid_coordinates(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays (x_1, ..., x_d), shape grid.shape each."""
    return read_only(tuple(np.meshgrid(*([_axis(grid)] * grid.d), indexing="ij")))


@lru_cache(maxsize=64)
def wavevectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Wavevector component arrays (k_1, ..., k_d)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return read_only(tuple(np.meshgrid(*([k] * grid.d), indexing="ij")))


def half_spectrum(a: np.ndarray) -> np.ndarray:
    """rfftn layout of an fftn-layout array: a contiguous copy of its first
    n//2 + 1 entries along the last axis."""
    return a[..., : a.shape[-1] // 2 + 1].copy()


@lru_cache(maxsize=64)
def gradient_wavevectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """rfftn-layout (k_1, ..., k_d) with k_j zero at its own Nyquist index.

    A real field's unpaired Nyquist mode has no real derivative on the grid;
    the fftn layout drops it by taking the real part of the inverse.
    """
    ks = [half_spectrum(k) for k in wavevectors(grid)]
    for j, k in enumerate(ks):
        k[(slice(None),) * j + (grid.n // 2,)] = 0.0
    return read_only(tuple(ks))


def forward_half(
    values: np.ndarray, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """rfftn-layout coefficients of real samples, transformed over the
    trailing d axes, so a stack of fields gives a stack of coefficient arrays.

    numpy's 1-d transforms in the order ``np.fft.rfftn`` makes them (rfft on
    the last axis, then fft over the others from the last to the first), each
    into out, so the result is rfftn's bitwise without its n-d call overhead.
    """
    out = np.fft.rfft(values, axis=-1, out=out)
    for axis in range(-2, -grid.d - 1, -1):
        np.fft.fft(out, axis=axis, out=out)
    return out


def inverse_half(
    coeff: np.ndarray,
    grid: GridSpec,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Real samples from rfftn-layout coefficients, transformed over the
    trailing d axes, so a stack of coefficient arrays gives a stack of fields.

    The mirror of forward_half, in the order ``np.fft.irfftn`` makes them:
    ifft over the leading d - 1 axes from the first, into ``work``, then
    irfft on the last axis into out.  ``work`` is a new complex array when
    it is None, so coeff is left as it is; pass coeff itself to transform in
    place and spare the allocation.
    """
    for axis in range(-grid.d, -1):
        coeff = np.fft.ifft(coeff, axis=axis, out=work if axis == -grid.d else coeff)
    return np.fft.irfft(coeff, n=grid.n, axis=-1, out=out)


def inverse_half_bound(coeff: np.ndarray, grid: GridSpec, scratch: np.ndarray) -> float:
    """An upper bound on max|inverse_half(coeff)|, with no transform, for any
    rfftn-layout coeff (contiguous along its last axis); ``scratch``, of
    coeff's shape and dtype, is overwritten.

    A coefficient c adds at most 2 |c| / N <= 2 (|Re c| + |Im c|) / N to any
    sample (N grid points): twice, with its conjugate partner, in the
    interior columns, and at most once, as a real part, in the
    self-conjugate columns 0 and n/2, whatever its imaginary part.
    """
    parts = np.abs(coeff.view(float), out=scratch.view(float))
    return 2.0 / grid.num_points * float(parts.sum())


def dealias_columns(grid: GridSpec) -> int:
    """Last-axis columns of the rfftn layout in which the two-thirds mask
    keeps any entry: column m is kept where m <= n/3, that is m <= n//3."""
    return grid.n // 3 + 1


def forward_band(values: np.ndarray, grid: GridSpec, out: np.ndarray) -> np.ndarray:
    """forward_half into out for a term that the two-thirds mask is about to
    cut: out's first dealias_columns(grid) columns hold the rfftn
    coefficients, the rest zero.

    The rfft fills every column; the complex passes over the other axes run
    on the first dealias_columns(grid) columns alone.  Each 1-d transform is
    independent of the others, so those columns are forward_half's bitwise.
    """
    np.fft.rfft(values, axis=-1, out=out)
    band = out[..., : dealias_columns(grid)]
    for axis in range(-2, -grid.d - 1, -1):
        np.fft.fft(band, axis=axis, out=band)
    out[..., band.shape[-1] :] = 0.0
    return out


def inverse_band(coeff: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """inverse_half of rfftn coefficients that are zero past
    dealias_columns(grid) columns, such as a dealiased derivative's.

    The complex passes run in place on the first dealias_columns(grid)
    columns, which are overwritten; the zero columns are left as they are
    for the irfft to read.  Each 1-d transform is independent of the
    others, so the samples are inverse_half's bitwise.
    """
    band = coeff[..., : dealias_columns(grid)]
    for axis in range(-grid.d, -1):
        np.fft.ifft(band, axis=axis, out=band)
    return np.fft.irfft(coeff, n=grid.n, axis=-1, out=out)


@lru_cache(maxsize=64)
def wavenumber_magnitude(grid: GridSpec) -> np.ndarray:
    """|k| on the fftn layout."""
    return read_only(np.sqrt(sum(k**2 for k in wavevectors(grid))))


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
            raise ValueError(NON_FINITE_SAMPLES)

    def mean(self) -> float:
        return float(self.values.mean())


def require_divergence_free(err: float, max_norm: float) -> None:
    """Raise unless max|div b| = err is within DIVERGENCE_FREE_TOL * max|b|."""
    scale = max(max_norm, 1e-300)
    if err > DIVERGENCE_FREE_TOL * scale:
        raise ValueError(
            f"divergence-free assertion failed: |div b| = {err:.3e} "
            f"exceeds {DIVERGENCE_FREE_TOL:.0e} * max|b| = {DIVERGENCE_FREE_TOL * scale:.3e}"
        )


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
            require_divergence_free(self.spectral_divergence_max(), self.max_norm())

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    def max_norm(self) -> float:
        mag2 = sum(c.values**2 for c in self.components)
        return float(np.sqrt(mag2.max()))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(c.values for c in self.components)

    def spectral_divergence_max(self) -> float:
        ks = wavevectors(self.grid)
        div = sum(1j * k * np.fft.fftn(c.values) for k, c in zip(ks, self.components))
        return float(np.abs(np.fft.ifftn(div)).max())


@lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Two-thirds rule mask: True where all |m_i| <= n/3."""
    d, n = grid.d, grid.n
    keep_1d = np.abs(np.fft.fftfreq(n) * n) <= n / 3.0
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        mask &= keep_1d.reshape(shape)
    return read_only(mask)


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
    x = _axis(grid)
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

