"""Spectral solver and estimate-verification harness for nonlocal
drift-diffusion equations on the periodic torus."""

from .fields import GridSpec, ScalarField, VectorField, make_grid
from .operators import KernelSpec
from .evolution import SolverConfig, TrajectoryStore, solve, solve_sqg
from .measures import Cylinder, MeasureData
from .reports import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "make_grid",
    "KernelSpec",
    "SolverConfig",
    "TrajectoryStore",
    "solve",
    "solve_sqg",
    "Cylinder",
    "MeasureData",
    "VerificationReport",
    "__version__",
]
