"""Experiment configuration: a YAML schema plus builders for every runtime
object (grid, kernel, drift, initial data, measure, solver settings).

Schema (all sections optional unless a check needs them):

    grid:     {d: 2, n: 64, domain_length: 6.283185307179586}
    kernel:   {s: 0.5, lam: 1.0}
    drift:
      family: none | constant | shear | sqg | lacunary
      vector: [1.0, 0.0]          # constant
      amplitude: 1.0              # shear: b = (A cos(k x_2), 0)
      wavenumber: 1
      coefficients: [0.5, 0.25]   # lacunary: b = (sum a_j cos(2^j x_2), 0)
    initial:
      kind: zero | eigenmode | random
      modes: [{axis: 0, wavenumber: 1, amplitude: 1.0, phase: sin}]
      amplitude: 1.0              # random: spectral envelope |k|^(-decay)
      decay: 2.0
    measure:
      atoms: [{t: 0.5, x: [3.1, 3.1], mass: 1.0}]
      density:
        kind: inverse_power       # mollified |x - x_c|^(-exponent)
        exponent: 1.2
        center: [3.1, 3.1]
        t_start: 0.0
        t_end: 1.0
        num_slices: 9
    solver:   {dt: 1e-3, t_end: 1.0, dealias: true, h_moll: 0.0,
               snapshot_stride: 1, store_drift: false}
    verification:
      selection: [potential, excess, holder, lorentz, comparison, bmo]
      ceilings: {potential-estimate: 50.0}
      params: {...}               # per-check knobs, see verify module
    seed: 42

Every run is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .evolution import SolverConfig
from .fields import GridSpec, ScalarField, VectorField, grid_coordinates, grid_distance, make_grid
from .measures import DensityTrack, MeasureData
from .operators import KernelSpec

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "lacunary_drift", "shear_drift"]

DRIFT_FAMILIES = ("none", "constant", "shear", "sqg", "lacunary")
INITIAL_KINDS = ("zero", "eigenmode", "random")


class ConfigError(ValueError):
    """Configuration parse or validation failure with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path


def _get(section: dict, path: str, key: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return section[key]


def shear_drift(grid: GridSpec, amplitude: float = 1.0, wavenumber: int = 1) -> VectorField:
    xs = grid_coordinates(grid)
    k = 2.0 * np.pi * wavenumber / grid.domain_length
    b1 = amplitude * np.cos(k * xs[1])
    comps = [ScalarField(grid, b1, 0.0)]
    for _ in range(grid.d - 1):
        comps.append(ScalarField(grid, np.zeros(grid.shape), 0.0))
    return VectorField(tuple(comps))


def lacunary_drift(grid: GridSpec, coefficients) -> VectorField:
    """b = (sum_j a_j cos(2^j x_2), 0, ...): divergence-free, lacunary in x_2."""
    xs = grid_coordinates(grid)
    base = 2.0 * np.pi / grid.domain_length
    b1 = np.zeros(grid.shape)
    for j, a in enumerate(coefficients, start=1):
        b1 += a * np.cos(base * 2**j * xs[1])
    comps = [ScalarField(grid, b1, 0.0)]
    for _ in range(grid.d - 1):
        comps.append(ScalarField(grid, np.zeros(grid.shape), 0.0))
    return VectorField(tuple(comps))


def _constant_drift(grid: GridSpec, vector) -> VectorField:
    vector = np.asarray(vector, dtype=float)
    if vector.size != grid.d:
        raise ConfigError("drift.vector", f"needs {grid.d} components")
    comps = tuple(
        ScalarField(grid, np.full(grid.shape, v), 0.0) for v in vector
    )
    return VectorField(comps)


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)

    # ---- builders ----

    def build_grid(self) -> GridSpec:
        sec = self.raw.get("grid", {})
        return make_grid(
            d=int(_get(sec, "grid", "d", 2)),
            n=int(_get(sec, "grid", "n", 64)),
            domain_length=float(_get(sec, "grid", "domain_length", 2.0 * np.pi)),
        )

    def build_kernel(self) -> KernelSpec:
        sec = self.raw.get("kernel", {})
        return KernelSpec(
            s=float(_get(sec, "kernel", "s", 0.5)),
            lam=float(_get(sec, "kernel", "lam", 1.0)),
        )

    @property
    def drift_family(self) -> str:
        fam = self.raw.get("drift", {}).get("family", "none")
        if fam not in DRIFT_FAMILIES:
            raise ConfigError("drift.family", f"unknown family {fam!r}")
        return fam

    def build_drift(self, grid: GridSpec) -> VectorField | None:
        sec = self.raw.get("drift", {})
        fam = self.drift_family
        if fam in ("none", "sqg"):
            return None
        if fam == "constant":
            return _constant_drift(grid, _get(sec, "drift", "vector", required=True))
        if fam == "shear":
            return shear_drift(
                grid,
                amplitude=float(_get(sec, "drift", "amplitude", 1.0)),
                wavenumber=int(_get(sec, "drift", "wavenumber", 1)),
            )
        coeffs = _get(sec, "drift", "coefficients", required=True)
        return lacunary_drift(grid, coeffs)

    def build_initial(self, grid: GridSpec) -> ScalarField:
        sec = self.raw.get("initial", {})
        kind = _get(sec, "initial", "kind", "zero")
        if kind not in INITIAL_KINDS:
            raise ConfigError("initial.kind", f"unknown kind {kind!r}")
        if kind == "zero":
            return ScalarField(grid, np.zeros(grid.shape), 0.0)
        if kind == "eigenmode":
            xs = grid_coordinates(grid)
            base = 2.0 * np.pi / grid.domain_length
            vals = np.zeros(grid.shape)
            for i, mode in enumerate(_get(sec, "initial", "modes", required=True)):
                axis = int(_get(mode, f"initial.modes[{i}]", "axis", 0))
                wn = int(_get(mode, f"initial.modes[{i}]", "wavenumber", required=True))
                amp = float(_get(mode, f"initial.modes[{i}]", "amplitude", 1.0))
                phase = _get(mode, f"initial.modes[{i}]", "phase", "sin")
                fn = np.sin if phase == "sin" else np.cos
                vals += amp * fn(base * wn * xs[axis])
            return ScalarField(grid, vals, 0.0)
        # random: seeded spectral noise with a power-law envelope
        amp = float(_get(sec, "initial", "amplitude", 1.0))
        decay = float(_get(sec, "initial", "decay", 2.0))
        rng = self.rng(salt=101)
        from .fields import wavenumber_magnitude

        kmag = wavenumber_magnitude(grid)
        envelope = np.where(kmag > 0, np.maximum(kmag, 1e-12) ** (-decay), 0.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, grid.shape)
        coeff = envelope * np.exp(1j * phases)
        vals = np.fft.ifftn(coeff).real
        peak = np.abs(vals).max()
        if peak > 0:
            vals *= amp / peak
        return ScalarField(grid, vals, 0.0)

    def build_measure(self, grid: GridSpec) -> MeasureData | None:
        sec = self.raw.get("measure")
        if not sec:
            return None
        atoms = []
        for i, a in enumerate(sec.get("atoms", []) or []):
            atoms.append(
                (
                    float(_get(a, f"measure.atoms[{i}]", "t", required=True)),
                    np.asarray(_get(a, f"measure.atoms[{i}]", "x", required=True), dtype=float),
                    float(_get(a, f"measure.atoms[{i}]", "mass", required=True)),
                )
            )
        density = None
        dsec = sec.get("density")
        if dsec:
            density = self._build_density(grid, dsec)
        if not atoms and density is None:
            return None
        mu = MeasureData.from_atoms(atoms, domain_length=grid.domain_length)
        mu.density = density
        return mu

    def _build_density(self, grid: GridSpec, dsec: dict) -> DensityTrack:
        kind = _get(dsec, "measure.density", "kind", required=True)
        t0 = float(_get(dsec, "measure.density", "t_start", 0.0))
        t1 = float(_get(dsec, "measure.density", "t_end", required=True))
        num = int(_get(dsec, "measure.density", "num_slices", 9))
        if t1 <= t0:
            raise ConfigError("measure.density.t_end", "must exceed t_start")
        times = np.linspace(t0, t1, num)
        if kind == "inverse_power":
            expo = float(_get(dsec, "measure.density", "exponent", required=True))
            center = np.asarray(
                _get(dsec, "measure.density", "center", [grid.domain_length / 2.0] * grid.d),
                dtype=float,
            )
            vals = np.maximum(grid_distance(grid, center), grid.spacing) ** (-expo)
            slices = [vals.copy() for _ in times]
        elif kind == "uniform":
            level = float(_get(dsec, "measure.density", "level", 1.0))
            slices = [np.full(grid.shape, level) for _ in times]
        else:
            raise ConfigError("measure.density.kind", f"unknown kind {kind!r}")
        return DensityTrack(grid, times, slices)

    def build_solver(self, kernel: KernelSpec, **overrides) -> SolverConfig:
        sec = self.raw.get("solver", {})
        kwargs = dict(
            kernel=kernel,
            dt=float(_get(sec, "solver", "dt", 1e-3)),
            t_end=float(_get(sec, "solver", "t_end", 1.0)),
            drift_mode="sqg" if self.drift_family == "sqg" else (
                "none" if self.drift_family == "none" else "given"
            ),
            dealias=bool(_get(sec, "solver", "dealias", True)),
            h_moll=float(_get(sec, "solver", "h_moll", 0.0)),
            snapshot_stride=int(_get(sec, "solver", "snapshot_stride", 1)),
            store_drift=bool(_get(sec, "solver", "store_drift", False)),
        )
        kwargs.update(overrides)
        return SolverConfig(**kwargs)

    @property
    def verification(self) -> dict:
        return self.raw.get("verification", {}) or {}

    @property
    def selection(self) -> list[str]:
        return list(self.verification.get("selection", []) or [])

    def ceiling(self, inequality_id: str, default: float = np.inf) -> float:
        return float(self.verification.get("ceilings", {}).get(inequality_id, default))

    def params(self, check: str) -> dict:
        return dict(self.verification.get("params", {}).get(check, {}) or {})


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("<document>", f"YAML parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be a mapping")
    return ExperimentConfig(raw)
