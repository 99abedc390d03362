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
    solver:   {dt: 1e-3, t_end: 1.0, h_moll: 0.25, snapshot_stride: 1}
                                  # h_moll, the atoms' width: at least one grid
                                  # spacing, default two; nldd heatkernel
                                  # ignores t_end (it solves from eta to the
                                  # last heatkernel time) and refuses h_moll
                                  # (its Dirac width is heatkernel.h_moll)
    verification:
      selection: [potential, excess, holder, lorentz, comparison, bmo]
      ceilings: {potential-estimate: 50.0}
      params: {...}               # per-check knobs, see CHECK_SPECS
    heatkernel:                   # nldd heatkernel; the drift may not be sqg
      eta: 0.0                    # source time
      y: [3.14, 3.14]             # source point, d coordinates
      times: [0.5, 1.0, 2.0]      # 3 or more, whole steps of solver.dt after
                                  # eta, the first >= 4 h_moll^(2s) after it;
                                  # default eta + g (1, 2, 4), g the fewest
                                  # whole steps >= max(0.5, 4 h_moll^(2s))
      h_moll: 0.2                 # Dirac width, at least one grid spacing;
                                  # default two grid spacings
    seed: 42

SCHEMA declares every field and its kind, and one reader types a section
field by field, so bad input fails at its field path: an unknown top-level
section, or an unknown field in any section (down to each mode, atom,
ceiling and check's params); a number, whole number or flag that is not
one; a word not in its list (a phase is sin | cos); or a list field that is
not a list, typed item by item (a point may be one number, read as one
coordinate).  Each default lives in the one builder that reads it.

Every run is deterministic given the seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .evolution import SolverConfig
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
from .measures import DensityTrack, MeasureData
from .operators import KernelSpec
from .reports import VerificationReport

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "read_yaml_file",
    "lacunary_drift",
    "shear_drift",
    "config_fields",
    "SOLVE_FIELDS",
    "HEATKERNEL_FIELDS",
    "grid_point",
]

NUMBERS = "numbers"  # a list of numbers, or one number read as a list of one


class CheckSpec(NamedTuple):
    inequality_id: str  # of the check's report; names its ceiling
    params: dict  # the kind of each knob verification.params sets for it
    needs: tuple[str, ...] = ()  # config fields checked with the knobs, before any solve


# every check of verify, by its verification.selection word (the potential
# knobs place nldd potential's point, not the check's placements)
CHECK_SPECS = {
    "potential": CheckSpec("potential-estimate", {"t0": float, "x0": NUMBERS, "R": float}),
    "excess": CheckSpec("excess-decay", {"m_max": int}),
    "holder": CheckSpec("holder-exponent", {"slanted": bool}),
    "lorentz": CheckSpec("lorentz-exponent", {"p": float, "sigma": float}, ("measure.density",)),
    "comparison": CheckSpec("comparison-estimate", {}, ("measure.atoms",)),
    "bmo": CheckSpec("bmo-slanted", {"c0": float}, ("drift.family", "kernel.s")),
}
# every field of a config and its kind: float, int or bool; NUMBERS; a tuple
# of the words it may be; a mapping of sub-fields; or a list of one kind, [kind]
SCHEMA = {
    "grid": {"d": int, "n": int, "domain_length": float},
    "kernel": {"s": float},
    "drift": {
        "family": ("none", "constant", "shear", "sqg", "lacunary"),
        "vector": NUMBERS,
        "amplitude": float,
        "wavenumber": int,
        "coefficients": [float],
    },
    "initial": {
        "kind": ("zero", "eigenmode", "random"),
        "modes": [{"axis": int, "wavenumber": int, "amplitude": float, "phase": ("sin", "cos")}],
        "amplitude": float,
        "decay": float,
    },
    "measure": {
        "atoms": [{"t": float, "x": NUMBERS, "mass": float}],
        "density": {
            "kind": ("inverse_power", "uniform"),
            "exponent": float,
            "center": NUMBERS,
            "t_start": float,
            "t_end": float,
            "num_slices": int,
            "level": float,
        },
    },
    "solver": {"dt": float, "t_end": float, "h_moll": float, "snapshot_stride": int},
    "heatkernel": {"eta": float, "y": NUMBERS, "times": [float], "h_moll": float},
    "verification": {
        "selection": [tuple(CHECK_SPECS)],
        "ceilings": {spec.inequality_id: float for spec in CHECK_SPECS.values()},
        "params": {check: spec.params for check, spec in CHECK_SPECS.items()},
    },
    "seed": int,
}


class ConfigError(ValueError):
    """Configuration parse or validation failure with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path


@contextmanager
def config_fields(**paths: str):
    """Raise a ParameterError from the block as a ConfigError at the config
    field that sets the parameter it names."""
    try:
        yield
    except ParameterError as exc:
        if exc.parameter not in paths:
            raise
        raise ConfigError(paths[exc.parameter], str(exc)) from None


# the config field that sets each parameter a solve (evolution.solve and
# solve_sqg) or a heat-kernel estimate (heatkernel.estimate_kernel) names
SOLVE_FIELDS = dict(
    dt="solver.dt", t_end="solver.t_end", h_moll="solver.h_moll", drift_mode="drift.family"
)
HEATKERNEL_FIELDS = dict(
    dt="solver.dt", times="heatkernel.times", h_moll="heatkernel.h_moll", drift_mode="drift.family"
)


def _read(value, path: str, kind):
    """``value`` read as ``kind`` (see SCHEMA): a mapping keeps the fields it
    sets, each read as its own kind.  A ConfigError names the path of the
    first field that is not of its kind.  A number may be a string, since
    PyYAML reads 1e-3 as one."""
    if isinstance(kind, dict):
        if value is None:
            raise ConfigError(path, "section has no value; give it fields or drop it")
        if not isinstance(value, dict):
            raise ConfigError(path, f"must be a mapping, got {value!r}")
        for key in value:
            if key not in kind:
                known = ", ".join(kind) or "no fields"
                raise ConfigError(f"{path}.{key}", f"unknown field; the section takes {known}")
        return {key: _read(item, f"{path}.{key}", kind[key]) for key, item in value.items()}
    if kind is NUMBERS:
        if not isinstance(value, list):  # one number is a list of one
            return [_read(value, path, float)]
        kind = [float]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(path, f"must be a list, got {value!r}")
        return [_read(item, f"{path}[{i}]", kind[0]) for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, f"must be one of {', '.join(kind)}, got {value!r}")
        return value
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
    if kind is float and number is not None:
        return number
    if number is None or not number.is_integer():
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(path, f"must be {noun}, got {value!r}")
    return int(number)


def _required(section: dict, path: str, key: str):
    """``section[key]``; a ConfigError naming the field if it is absent."""
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return section[key]


def grid_point(value, grid: GridSpec, path: str) -> np.ndarray:
    """``value`` as a point of the d-torus; a ConfigError naming ``path``
    unless it has d coordinates."""
    x = np.asarray(value, dtype=float)
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


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=dict)
    # verify.run_experiment's solves of this config, one per distinct problem
    solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def seed(self) -> int:
        return _read(self.raw.get("seed", 0), "seed", SCHEMA["seed"])

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)

    def section(self, name: str) -> dict:
        """The fields that a top-level section sets, each read as its kind in
        SCHEMA; {} when the config has no such section."""
        return _read(self.raw.get(name, {}), name, SCHEMA[name])

    # ---- builders ----

    def build_grid(self) -> GridSpec:
        sec = self.section("grid")
        with config_fields(d="grid.d", n="grid.n", domain_length="grid.domain_length"):
            return make_grid(
                d=sec.get("d", 2), n=sec.get("n", 64),
                domain_length=sec.get("domain_length", 2.0 * np.pi),
            )

    def build_kernel(self) -> KernelSpec:
        with config_fields(s="kernel.s"):
            return KernelSpec(s=self.section("kernel").get("s", 0.5))

    @property
    def drift_family(self) -> str:
        return self.section("drift").get("family", "none")

    def build_drift(self, grid: GridSpec) -> VectorField | None:
        sec = self.section("drift")
        fam = self.drift_family
        if fam in ("none", "sqg"):
            return None
        if fam == "constant":
            vector = grid_point(_required(sec, "drift", "vector"), grid, "drift.vector")
            return VectorField(tuple(
                ScalarField(grid, np.full(grid.shape, v), 0.0) for v in vector
            ))
        if fam == "shear":
            return shear_drift(
                grid, amplitude=sec.get("amplitude", 1.0), wavenumber=sec.get("wavenumber", 1)
            )
        return lacunary_drift(grid, _required(sec, "drift", "coefficients"))

    def build_initial(self, grid: GridSpec) -> ScalarField:
        sec = self.section("initial")
        kind = sec.get("kind", "zero")
        if kind == "zero":
            return ScalarField(grid, np.zeros(grid.shape), 0.0)
        if kind == "eigenmode":
            xs = grid_coordinates(grid)
            base = 2.0 * np.pi / grid.domain_length
            vals = np.zeros(grid.shape)
            for i, mode in enumerate(_required(sec, "initial", "modes")):
                wn = _required(mode, f"initial.modes[{i}]", "wavenumber")
                axis = mode.get("axis", 0)
                if not 0 <= axis < grid.d:
                    raise ConfigError(
                        f"initial.modes[{i}].axis", f"must lie in [0, {grid.d}), got {axis}"
                    )
                fn = np.sin if mode.get("phase", "sin") == "sin" else np.cos
                vals += mode.get("amplitude", 1.0) * fn(base * wn * xs[axis])
            return ScalarField(grid, vals, 0.0)
        # random: seeded spectral noise with a power-law envelope
        amp = sec.get("amplitude", 1.0)
        decay = sec.get("decay", 2.0)
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
        sec = self.section("measure")
        if not sec:
            return None
        atoms = []
        for i, a in enumerate(sec.get("atoms", [])):
            path = f"measure.atoms[{i}]"
            t = _required(a, path, "t")
            x = grid_point(_required(a, path, "x"), grid, f"{path}.x")
            atoms.append((t, x, _required(a, path, "mass")))
        density = None
        if sec.get("density"):
            density = self._build_density(grid, sec["density"])
        if not atoms and density is None:
            return None
        mu = MeasureData.from_atoms(atoms, domain_length=grid.domain_length)
        mu.density = density
        return mu

    def _build_density(self, grid: GridSpec, dsec: dict) -> DensityTrack:
        path = "measure.density"
        kind = _required(dsec, path, "kind")
        t0 = dsec.get("t_start", 0.0)
        t1 = _required(dsec, path, "t_end")
        if t1 <= t0:
            raise ConfigError("measure.density.t_end", "must exceed t_start")
        num_slices = dsec.get("num_slices", 9)
        if num_slices < 2:
            raise ConfigError(
                "measure.density.num_slices",
                f"needs 2 or more slices to span [t_start, t_end], got {num_slices}",
            )
        times = np.linspace(t0, t1, num_slices)
        if kind == "inverse_power":
            expo = _required(dsec, path, "exponent")
            center = grid_point(
                dsec.get("center", [grid.domain_length / 2.0] * grid.d), grid, f"{path}.center"
            )
            vals = np.maximum(grid_distance(grid, center), grid.spacing) ** (-expo)
            slices = [vals.copy() for _ in times]
        else:  # uniform
            slices = [np.full(grid.shape, dsec.get("level", 1.0)) for _ in times]
        return DensityTrack(grid, times, slices)

    def build_solver(self, kernel: KernelSpec, **overrides) -> SolverConfig:
        """The solver section's settings.  A field given in ``overrides`` is
        typed in the section but not used: a value SolverConfig refuses for
        it raises the ParameterError naming it."""
        sec = self.section("solver")
        fam = self.drift_family
        mode = fam if fam in ("none", "sqg") else "given"
        read = {"dt": 1e-3, "t_end": 1.0, "h_moll": 2.0 * self.build_grid().spacing, **sec}
        read = {key: value for key, value in read.items() if key not in overrides}
        with config_fields(**{key: f"solver.{key}" for key in read}):
            return SolverConfig(kernel=kernel, drift_mode=mode, **read, **overrides)

    def build_heatkernel(
        self, grid: GridSpec, kernel: KernelSpec
    ) -> tuple[float, np.ndarray, np.ndarray, SolverConfig]:
        """The heatkernel section's source time eta, source point y, sorted
        record times and solver settings.  Only the section's own shape is
        checked here; estimate_kernel checks the rules of an estimate's
        inputs, mapped by HEATKERNEL_FIELDS.  The solve runs from eta to the
        last time, so solver.t_end is not read; the Dirac width is
        heatkernel.h_moll, so a solver.h_moll is refused."""
        if "h_moll" in self.section("solver"):
            raise ConfigError(
                "solver.h_moll",
                "nldd heatkernel does not read it; set the Dirac width with heatkernel.h_moll",
            )
        sec = self.section("heatkernel")
        eta = sec.get("eta", 0.0)
        y = grid_point(sec.get("y", [grid.domain_length / 2.0] * grid.d), grid, "heatkernel.y")
        h_moll = sec.get("h_moll", 2.0 * grid.spacing)
        # the estimate never reads t_end, so any positive time stands in for it
        solver = self.build_solver(kernel, h_moll=h_moll, t_end=1.0)
        times = sec["times"] if "times" in sec else _default_times(eta, solver)
        if len(times) < 3:
            raise ConfigError(
                "heatkernel.times",
                f"needs a list of 3 or more times for the semigroup check, got {times!r}",
            )
        return eta, y, np.sort(np.asarray(times, dtype=float)), solver

    @property
    def selection(self) -> list[str]:
        return self.section("verification").get("selection", [])

    def report(self, check: str) -> VerificationReport:
        """An empty report of ``check`` under the ceiling verification.ceilings
        sets for its inequality id (inf if none)."""
        inequality_id = CHECK_SPECS[check].inequality_id
        ceiling = self.section("verification").get("ceilings", {}).get(inequality_id, np.inf)
        return VerificationReport(inequality_id, ceiling=ceiling)

    def params(self, check: str) -> dict:
        """The knobs of one check that verification.params sets."""
        return self.section("verification").get("params", {}).get(check, {})

    def add_ceilings(self, ceilings, path: str) -> None:
        """Set the ceilings of the mapping ``ceilings``, read from ``path``,
        over the verification section's own, which are checked first; the
        new ones are kept as written."""
        _read(ceilings, path, SCHEMA["verification"]["ceilings"])
        own = self.section("verification").get("ceilings", {})
        self.raw["verification"] = {
            **self.raw.get("verification", {}), "ceilings": {**own, **ceilings}
        }


def _default_times(eta: float, solver: SolverConfig) -> list[float]:
    """eta + g (1, 2, 4), where g is the fewest whole steps of solver.dt that
    reach max(0.5, 4 h_moll^(2s)): 0.5 itself when it is whole steps and the
    mollified Dirac needs no wider first gap."""
    gap = max(0.5, 4.0 * solver.h_moll ** (2.0 * solver.kernel.s))
    if solver.steps_to(gap) is None:
        gap = math.ceil(gap / solver.dt) * solver.dt
    return [eta + gap, eta + 2.0 * gap, eta + 4.0 * gap]


# libyaml's parser with the safe constructor when PyYAML was built with it:
# the same values as yaml.safe_load, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml_file(path, flag: str):
    """The YAML document in the file at ``path``, given by the command-line
    option ``flag``; a ConfigError at the option, naming the file, when the
    file cannot be read or is not YAML."""
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(flag, f"cannot read {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(flag, f"YAML parse error in {path}{where}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    raw = read_yaml_file(path, "--config")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be a mapping")
    for key in raw:
        if key not in SCHEMA:
            raise ConfigError(key, f"unknown section; the document takes {', '.join(SCHEMA)}")
    config = ExperimentConfig(raw)
    config.seed  # read now, so a bad seed fails before any section is read
    return config
