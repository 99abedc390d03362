"""Layer probes: per-layer timings of layers that no workload puts on a
blocking path.  They run with tracing off and report per-layer metrics only.

- one ETD-RK2 step at n = 64, 128 and 256 with no drift, a given (shear)
  drift and the SQG drift, taken as ``solve`` over a few steps divided by the
  step count (snapshots only at the ends);
- ``truncated_multiplier_table`` at n = 64, s = 0.75, each call on a fresh
  truncation radius so the quadrature runs instead of the lru_cache;
- ``excess`` at n = 128 on a solved trajectory.

Each probe reports the median of REPEATS timings, in the unit of its metric
name in layers.PROBES.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3
STEPS = {64: 100, 128: 25, 256: 8}
DOMAIN = 8.0
DT = 4e-3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _initial(n: int, seed: int):
    from nldd import make_grid
    from nldd.config import ExperimentConfig

    cfg = ExperimentConfig({"initial": {"kind": "random", "amplitude": 1.0, "decay": 2.5}, "seed": seed})
    grid = make_grid(d=2, n=n, domain_length=DOMAIN)
    return grid, cfg.build_initial(grid)


def etd_step_ms(n: int, mode: str, seed: int) -> float:
    from nldd import KernelSpec, SolverConfig, solve, solve_sqg
    from nldd.config import shear_drift

    grid, u0 = _initial(n, seed)
    steps = STEPS[n]
    config = SolverConfig(
        KernelSpec(0.5), dt=DT, t_end=steps * DT, drift_mode=mode, snapshot_stride=steps
    )
    if mode == "sqg":
        run = lambda: solve_sqg(u0, None, config)
    else:
        b = shear_drift(grid) if mode == "given" else None
        run = lambda: solve(u0, b, None, config)
    return 1e3 * _median_time(run) / steps


def multiplier_table_s() -> float:
    from nldd import KernelSpec, make_grid
    from nldd.operators import truncated_multiplier_table

    grid = make_grid(d=2, n=64, domain_length=DOMAIN)
    radii = iter(1.0 + 1e-6 * (i + 1) for i in range(REPEATS))  # uncached keys
    return _median_time(
        lambda: truncated_multiplier_table(grid, KernelSpec(0.75, truncation_radius=next(radii)))
    )


def excess_s(seed: int) -> float:
    from nldd import KernelSpec, SolverConfig, solve
    from nldd.config import shear_drift
    from nldd.potentials import TailOptions, excess

    grid, u0 = _initial(128, seed)
    kernel = KernelSpec(0.5)
    traj = solve(u0, shear_drift(grid), None, SolverConfig(kernel, dt=0.02, t_end=0.6, drift_mode="given"))
    opts = TailOptions(truncation_radius=DOMAIN / 2.0)
    return _median_time(lambda: excess(traj, 0.6, (4.0, 4.0), 0.5, 2.0, kernel, opts))


def run_probes(seed: int) -> dict[str, float]:
    out = {}
    for mode in ("none", "given", "sqg"):
        for n in STEPS:
            out[f"probe.etd_step.{mode}.n{n}"] = etd_step_ms(n, mode, seed)
    out["probe.truncated_multiplier_table.n64"] = multiplier_table_s()
    out["probe.excess.n128"] = excess_s(seed)
    return out
