"""Experiment configuration: a YAML schema plus builders for every runtime
object (grid, kernel, drift, initial data, measure, solver settings).

Schema (all sections optional unless a check needs them):

    grid:     {d: 2, n: 64, domain_length: 6.283185307179586}
    kernel:   {s: 0.5}
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
    solver:   {dt: 1e-3, t_end: 1.0, h_moll: 0.0, snapshot_stride: 1}
                                  # nldd heatkernel ignores t_end: it solves
                                  # from eta to the last heatkernel time
    verification:
      selection: [potential, excess, holder, lorentz, comparison, bmo]
      ceilings: {potential-estimate: 50.0}
      params: {...}               # per-check knobs, see CHECK_PARAMS
    heatkernel:                   # nldd heatkernel; the drift may not be sqg
      eta: 0.0                    # source time
      y: [3.14, 3.14]             # source point, d coordinates
      times: [0.5, 1.0, 2.0]      # 3 or more, whole steps of solver.dt after
                                  # eta, the first >= 4 h_moll^(2s) after it
      h_moll: 0.2                 # Dirac width, at least one grid spacing
    seed: 42

An unknown field is an error in every section: in grid, kernel, drift,
initial (and each of its modes), measure (each atom and the density), solver,
heatkernel and verification (its ceilings, which take the inequality ids of
the checks, and the params of each check).  The retired kernel.lam,
solver.store_drift and solver.dealias: true are still accepted and change
nothing.  A number, whole number or flag that is not one is an error at its
field path.

Every run is deterministic given the seed.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import yaml

from .evolution import CFLError, SolverConfig, check_cfl, check_solve
from .fields import (
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    grid_coordinates,
    grid_distance,
    make_grid,
    wavenumber_magnitude,
)
from .heatkernel import check_estimate
from .measures import DensityTrack, MeasureData
from .operators import KernelSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "load_yaml",
    "lacunary_drift",
    "shear_drift",
    "check_drift_step",
    "check_solver",
    "grid_point",
]

DRIFT_FAMILIES = ("none", "constant", "shear", "sqg", "lacunary")
INITIAL_KINDS = ("zero", "eigenmode", "random")
GRID_FIELDS = ("d", "n", "domain_length")
KERNEL_FIELDS = ("s",)
SOLVER_DEFAULTS = {"dt": 1e-3, "t_end": 1.0, "h_moll": 0.0, "snapshot_stride": 1}
HEATKERNEL_FIELDS = ("eta", "y", "times", "h_moll")
DRIFT_FIELDS = ("family", "vector", "amplitude", "wavenumber", "coefficients")
INITIAL_FIELDS = ("kind", "modes", "amplitude", "decay")
MODE_FIELDS = ("axis", "wavenumber", "amplitude", "phase")
MEASURE_FIELDS = ("atoms", "density")
ATOM_FIELDS = ("t", "x", "mass")
DENSITY_FIELDS = ("kind", "exponent", "center", "t_start", "t_end", "num_slices", "level")
VERIFICATION_FIELDS = ("selection", "ceilings", "params")
# the knobs each check of verify reads under verification.params, with the
# type of each (None: read as given), and the inequality id of each check's
# report, which names its ceiling
CHECK_PARAMS = {
    "potential": {"t0": float, "x0": None, "R": float},
    "excess": {"m_max": int},
    "holder": {"slanted": bool},
    "lorentz": {"p": float, "sigma": float},
    "comparison": {},
    "bmo": {"c0": float},
}
INEQUALITY_IDS = (
    "potential-estimate",
    "excess-decay",
    "holder-exponent",
    "lorentz-exponent",
    "comparison-estimate",
    "bmo-slanted",
)


class ConfigError(ValueError):
    """Configuration parse or validation failure with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path


@contextmanager
def _fields(**paths: str):
    """Raise a ParameterError from the block as a ConfigError at the config
    field that sets the parameter it names."""
    try:
        yield
    except ParameterError as exc:
        if exc.parameter not in paths:
            raise
        raise ConfigError(paths[exc.parameter], str(exc)) from None


def _known(section: dict, path: str, fields, retired=()) -> dict:
    """``section`` if every key in it is one of ``fields`` or a ``retired``
    field that is still accepted; else a ConfigError naming the first other."""
    for key in section:
        if key not in fields and key not in retired:
            known = ", ".join(fields) or "no fields"
            raise ConfigError(f"{path}.{key}", f"unknown field; the section takes {known}")
    return section


def _get(section: dict, path: str, key: str, default=None, kind=None, required: bool = False):
    """``section[key]`` as a ``kind`` (float, int or bool) if one is given,
    else as written; ``default`` when the key is absent."""
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    return value if kind is None else _typed(value, kind, f"{path}.{key}")


def _typed(value, kind, path: str):
    """``value`` as a float, int or bool; a ConfigError naming ``path`` for a
    flag that is not a boolean, a number that is not one or an integer that
    is not whole.  A string is read by float(), since PyYAML reads 1e-3 as
    one."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(path, f"must be true or false, got {value!r}")
        return value
    if kind is int and type(value) is int:
        return value
    number = None
    if not isinstance(value, bool):  # YAML's true and yes are not numbers
        with suppress(TypeError, ValueError, OverflowError):
            number = float(value)
    if number is None:
        raise ConfigError(path, f"must be a number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(path, f"must be an integer, got {value!r}")
    return int(number)


def _mapping(value, path: str) -> dict:
    """``value`` if it is a mapping; a ConfigError naming ``path`` if it was
    written with no value or is a scalar or a list."""
    if value is None:
        raise ConfigError(path, "section has no value; give it fields or drop it")
    if not isinstance(value, dict):
        raise ConfigError(path, f"must be a mapping, got {value!r}")
    return value


def grid_point(value, grid: GridSpec, path: str) -> np.ndarray:
    """``value`` as a point of the d-torus; a ConfigError naming ``path``
    unless it has d coordinates."""
    x = np.atleast_1d(np.asarray(value, dtype=float))
    if x.shape != (grid.d,):
        raise ConfigError(path, f"needs {grid.d} coordinates, got {x.size}")
    return x


def _along_x1(grid: GridSpec, b1: np.ndarray) -> VectorField:
    """b = (b1, 0, ...), divergence-free when b1 does not depend on x_1."""
    zeros = (ScalarField(grid, np.zeros(grid.shape), 0.0) for _ in range(grid.d - 1))
    return VectorField((ScalarField(grid, b1, 0.0), *zeros))


def shear_drift(grid: GridSpec, amplitude: float = 1.0, wavenumber: int = 1) -> VectorField:
    xs = grid_coordinates(grid)
    k = 2.0 * np.pi * wavenumber / grid.domain_length
    return _along_x1(grid, amplitude * np.cos(k * xs[1]))


def lacunary_drift(grid: GridSpec, coefficients) -> VectorField:
    """b = (sum_j a_j cos(2^j x_2), 0, ...): divergence-free, lacunary in x_2."""
    xs = grid_coordinates(grid)
    base = 2.0 * np.pi / grid.domain_length
    b1 = np.zeros(grid.shape)
    for j, a in enumerate(coefficients, start=1):
        b1 += a * np.cos(base * 2**j * xs[1])
    return _along_x1(grid, b1)


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

    def section(self, name: str) -> dict:
        """The mapping under a top-level key; {} when the key is absent."""
        return _mapping(self.raw.get(name, {}), name)

    # ---- builders ----

    def build_grid(self) -> GridSpec:
        sec = _known(self.section("grid"), "grid", GRID_FIELDS)
        with _fields(d="grid.d", n="grid.n", domain_length="grid.domain_length"):
            return make_grid(
                d=_get(sec, "grid", "d", 2, int),
                n=_get(sec, "grid", "n", 64, int),
                domain_length=_get(sec, "grid", "domain_length", 2.0 * np.pi, float),
            )

    def build_kernel(self) -> KernelSpec:
        sec = _known(self.section("kernel"), "kernel", KERNEL_FIELDS, retired=("lam",))
        with _fields(s="kernel.s"):
            return KernelSpec(s=_get(sec, "kernel", "s", 0.5, float))

    @property
    def drift(self) -> dict:
        return _known(self.section("drift"), "drift", DRIFT_FIELDS)

    @property
    def drift_family(self) -> str:
        fam = self.drift.get("family", "none")
        if fam not in DRIFT_FAMILIES:
            raise ConfigError("drift.family", f"unknown family {fam!r}")
        return fam

    def build_drift(self, grid: GridSpec) -> VectorField | None:
        sec = self.drift
        fam = self.drift_family
        if fam in ("none", "sqg"):
            return None
        if fam == "constant":
            return _constant_drift(grid, _get(sec, "drift", "vector", required=True))
        if fam == "shear":
            return shear_drift(
                grid,
                amplitude=_get(sec, "drift", "amplitude", 1.0, float),
                wavenumber=_get(sec, "drift", "wavenumber", 1, int),
            )
        coeffs = _get(sec, "drift", "coefficients", required=True)
        return lacunary_drift(grid, coeffs)

    def build_initial(self, grid: GridSpec) -> ScalarField:
        sec = _known(self.section("initial"), "initial", INITIAL_FIELDS)
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
                path = f"initial.modes[{i}]"
                mode = _known(_mapping(mode, path), path, MODE_FIELDS)
                axis = _get(mode, path, "axis", 0, int)
                wn = _get(mode, path, "wavenumber", kind=int, required=True)
                amp = _get(mode, path, "amplitude", 1.0, float)
                phase = _get(mode, path, "phase", "sin")
                fn = np.sin if phase == "sin" else np.cos
                vals += amp * fn(base * wn * xs[axis])
            return ScalarField(grid, vals, 0.0)
        # random: seeded spectral noise with a power-law envelope
        amp = _get(sec, "initial", "amplitude", 1.0, float)
        decay = _get(sec, "initial", "decay", 2.0, float)
        rng = self.rng(salt=101)
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
        sec = _known(self.section("measure"), "measure", MEASURE_FIELDS)
        if not sec:
            return None
        atoms = []
        for i, a in enumerate(sec.get("atoms", []) or []):
            path = f"measure.atoms[{i}]"
            a = _known(_mapping(a, path), path, ATOM_FIELDS)
            t = _get(a, path, "t", kind=float, required=True)
            x = grid_point(_get(a, path, "x", required=True), grid, f"{path}.x")
            atoms.append((t, x, _get(a, path, "mass", kind=float, required=True)))
        density = None
        dsec = sec.get("density")
        if dsec:
            density = self._build_density(
                grid, _known(_mapping(dsec, "measure.density"), "measure.density", DENSITY_FIELDS)
            )
        if not atoms and density is None:
            return None
        mu = MeasureData.from_atoms(atoms, domain_length=grid.domain_length)
        mu.density = density
        return mu

    def _build_density(self, grid: GridSpec, dsec: dict) -> DensityTrack:
        kind = _get(dsec, "measure.density", "kind", required=True)
        t0 = _get(dsec, "measure.density", "t_start", 0.0, float)
        t1 = _get(dsec, "measure.density", "t_end", kind=float, required=True)
        num = _get(dsec, "measure.density", "num_slices", 9, int)
        if t1 <= t0:
            raise ConfigError("measure.density.t_end", "must exceed t_start")
        times = np.linspace(t0, t1, num)
        if kind == "inverse_power":
            expo = _get(dsec, "measure.density", "exponent", kind=float, required=True)
            center = np.asarray(
                _get(dsec, "measure.density", "center", [grid.domain_length / 2.0] * grid.d),
                dtype=float,
            )
            vals = np.maximum(grid_distance(grid, center), grid.spacing) ** (-expo)
            slices = [vals.copy() for _ in times]
        elif kind == "uniform":
            level = _get(dsec, "measure.density", "level", 1.0, float)
            slices = [np.full(grid.shape, level) for _ in times]
        else:
            raise ConfigError("measure.density.kind", f"unknown kind {kind!r}")
        return DensityTrack(grid, times, slices)

    def build_solver(self, kernel: KernelSpec, **overrides) -> SolverConfig:
        """The solver section's settings.  A field given in ``overrides`` is
        neither read from the section nor checked as a section field: a value
        SolverConfig refuses for it raises the ParameterError naming it."""
        sec = _known(
            self.section("solver"), "solver", tuple(SOLVER_DEFAULTS),
            retired=("dealias", "store_drift"),
        )
        if not _get(sec, "solver", "dealias", True, bool):
            raise ConfigError("solver.dealias", "the solver always dealiases; drop the field")
        kwargs = dict(
            kernel=kernel,
            drift_mode="sqg" if self.drift_family == "sqg" else (
                "none" if self.drift_family == "none" else "given"
            ),
        )
        read = [key for key in SOLVER_DEFAULTS if key not in overrides]
        for key in read:  # each as the type of its default
            default = SOLVER_DEFAULTS[key]
            kwargs[key] = _get(sec, "solver", key, default, type(default))
        kwargs.update(overrides)
        with _fields(**{key: f"solver.{key}" for key in read}):
            return SolverConfig(**kwargs)

    def build_heatkernel(
        self, grid: GridSpec, kernel: KernelSpec, b: VectorField | None
    ) -> tuple[float, np.ndarray, np.ndarray, SolverConfig]:
        """The heatkernel section's source time eta, source point y, sorted
        record times and solver settings, checked before any solve: the
        section's shape here, b (the config's drift) against the CFL bound at
        solver.dt, and the rules of an estimate's inputs by
        heatkernel.check_estimate.  The solve runs from eta to the last time,
        so solver.t_end is neither read nor checked."""
        sec = _known(self.section("heatkernel"), "heatkernel", HEATKERNEL_FIELDS)
        eta = _get(sec, "heatkernel", "eta", 0.0, float)
        y = grid_point(
            _get(sec, "heatkernel", "y", [grid.domain_length / 2.0] * grid.d), grid, "heatkernel.y"
        )
        times = _get(sec, "heatkernel", "times", [eta + 0.5, eta + 1.0, eta + 2.0])
        if not isinstance(times, list) or len(times) < 3:
            raise ConfigError(
                "heatkernel.times",
                f"needs a list of 3 or more times for the semigroup check, got {times!r}",
            )
        times = np.sort(np.asarray(times, dtype=float))
        h_moll = _get(sec, "heatkernel", "h_moll", 2.0 * grid.spacing, float)
        # the estimate never reads t_end, so the default stands in for it
        solver = self.build_solver(kernel, h_moll=h_moll, t_end=SOLVER_DEFAULTS["t_end"])
        check_drift_step(b, grid, solver)
        with _fields(
            times="heatkernel.times", h_moll="heatkernel.h_moll", drift_mode="drift.family"
        ):
            check_estimate(grid, solver, eta, times)
        return eta, y, times, solver

    @property
    def verification(self) -> dict:
        return _known(self.section("verification"), "verification", VERIFICATION_FIELDS)

    @property
    def selection(self) -> list[str]:
        names = self.verification.get("selection", []) or []
        if not isinstance(names, (list, tuple)):
            raise ConfigError(
                "verification.selection", f"must be a list of check names, got {names!r}"
            )
        return list(names)

    @property
    def ceilings(self) -> dict:
        """The ceiling of each inequality id that sets one, as a float."""
        path = "verification.ceilings"
        sec = _known(_mapping(self.verification.get("ceilings", {}), path), path, INEQUALITY_IDS)
        return {key: _get(sec, path, key, kind=float) for key in sec}

    def ceiling(self, inequality_id: str) -> float:
        return self.ceilings.get(inequality_id, np.inf)

    def params(self, check: str) -> dict:
        """The knobs of one check that verification.params sets, each as its
        type in CHECK_PARAMS."""
        per_check = _known(
            _mapping(self.verification.get("params", {}), "verification.params"),
            "verification.params", CHECK_PARAMS,
        )
        path, kinds = f"verification.params.{check}", CHECK_PARAMS[check]
        sec = _known(_mapping(per_check.get(check, {}), path), path, kinds)
        return {key: _get(sec, path, key, kind=kinds[key]) for key in sec}


def check_drift_step(b: VectorField | None, grid: GridSpec, solver: SolverConfig) -> None:
    """Raise ConfigError('solver.dt', ...) when solver.dt breaks the advective
    CFL bound of the fixed drift b, which is known before any step."""
    if b is None:
        return
    bmax = b.max_norm()
    try:
        check_cfl(grid, solver.dt, bmax)
    except CFLError as exc:
        raise ConfigError(
            "solver.dt",
            f"dt = {solver.dt} violates the advective CFL of the drift, max|b| = {bmax:.6g}; "
            f"admissible dt <= {exc.admissible:.3e}",
        ) from None


def check_solver(grid: GridSpec, solver: SolverConfig, mu: MeasureData | None = None) -> None:
    """evolution.check_solve, raised as a ConfigError at the config field
    that sets the offending value."""
    with _fields(t_end="solver.t_end", h_moll="solver.h_moll", drift_mode="drift.family"):
        check_solve(grid, solver, mu)


# libyaml's parser with the safe constructor when PyYAML was built with it:
# the same values as yaml.safe_load, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream):
    """yaml.safe_load, with libyaml's parser when it is available."""
    return yaml.load(stream, Loader=_YAML_LOADER)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = load_yaml(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("<document>", f"YAML parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be a mapping")
    if not isinstance(raw.get("seed", 0), int):
        raise ConfigError("seed", f"must be an integer, got {raw['seed']!r}")
    return ExperimentConfig(raw)
