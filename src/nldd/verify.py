"""Verification campaigns: each check evaluates both sides of one estimate on
solved trajectories, reports the per-row decomposition, and fits the smallest
constant making the inequality hold.

Checks are deterministic given the config seed; placements are drawn from a
seeded generator, one salt per check.  Every check solves through
``run_experiment``, which solves each distinct (measure scale, solver
settings) problem of a config object once: checks on one config share solves.
"""

from __future__ import annotations

import json
import time as _time
import traceback
from dataclasses import dataclass

import numpy as np

from .config import (
    CHECK_SPECS,
    SOLVE_FIELDS,
    ConfigError,
    ExperimentConfig,
    config_fields,
    load_config,
    read_yaml_file,
)
from .evolution import SolverConfig, TrajectoryStore, comparison_solve, solve, solve_sqg
from .fields import GridSpec, VectorField, ball_mask
from .lorentz import lorentz_quasi_norm, target_exponent
from .measures import (
    Cylinder,
    MeasureData,
    SlantPath,
    UnresolvedCylinderError,
    cylinder_mass,
)
from .operators import KernelSpec, _sphere_area
from .potentials import (
    TailOptions,
    bmo_seminorm,
    excess,
    interpolate_periodic,
    potential_radii,
    riesz_potential,
    slant_ode,
    tail_time_lq,
)
from .reports import VerificationReport, content_id, write_csv

__all__ = [
    "verify_potential_estimate",
    "verify_excess_decay",
    "fit_holder_exponent",
    "verify_lorentz",
    "verify_comparison",
    "verify_bmo_slanted",
    "run_campaign",
]

POTENTIAL_Q = (1.5, 2.0, 4.0)
NUM_PLACEMENTS = 10
EXCESS_Q = 2.0  # time exponent of the excess-decay check
HOLDER_SCALES = 4  # oscillation scales per Hölder placement, at most
HOLDER_Q = 2.0  # time exponent of the Hölder rows' tail
BMO_FIT_RADII = (0.25, 0.125, 0.0625)  # scales of the BMO path-norm fit


@dataclass
class Experiment:
    """One solved run plus everything needed to evaluate estimates on it."""

    grid: GridSpec
    kernel: KernelSpec
    solver: SolverConfig
    mu: MeasureData | None
    drift: VectorField | None
    traj: TrajectoryStore

    @property
    def tail_options(self) -> TailOptions:
        return TailOptions(truncation_radius=self.grid.domain_length / 2.0)


def run_experiment(
    config: ExperimentConfig, measure_scale: float = 1.0, **solver_overrides
) -> Experiment:
    """Solve the config's problem, with its measure scaled by ``measure_scale``
    (0 gives the homogeneous run, which steps with no forcing), once per config
    object: a problem is the config's content (seed included), ``measure_scale``
    and the built SolverConfig, and ``config.solves`` keeps each solve.  The
    solve's refusal of an input is a ConfigError at its field in SOLVE_FIELDS."""
    grid = config.build_grid()
    kernel = config.build_kernel()
    mu = config.build_measure(grid)
    solver = config.build_solver(kernel, **solver_overrides)
    # with no measure, every measure scale gives the same problem
    key = (content_id(config.raw), 1.0 if mu is None else measure_scale, solver)
    if key not in config.solves:
        if mu is not None and measure_scale != 1.0:
            mu = mu.scaled(measure_scale)
        u0 = config.build_initial(grid)
        b = config.build_drift(grid)
        with config_fields(**SOLVE_FIELDS):
            if config.drift_family == "sqg":
                traj = solve_sqg(u0, mu, solver)
            else:
                traj = solve(u0, b, mu, solver)
        config.solves[key] = Experiment(grid, kernel, solver, mu, b, traj)
    return config.solves[key]


def point_value(traj: TrajectoryStore, t0: float, x0) -> float:
    """|u(t0, x0)|: nearest snapshot in time, bilinear in space."""
    u = traj.at(t0)
    pt = np.atleast_2d(np.asarray(x0, dtype=float))
    return float(abs(interpolate_periodic(u, traj.grid, pt)[0]))


def cylinder_lq_mean(
    traj: TrajectoryStore, Q: Cylinder, qs, path: SlantPath | None = None
) -> np.ndarray:
    """(space-time average of |u|^q over the cylinder)^(1/q) for each q in qs,
    with the ball along ``path`` if given.  Each q takes one pass over the
    stacked ball values of each centre (``Cylinder.ball_values``)."""
    times, blocks = Q.ball_values(traj, path)
    means = np.empty((len(qs), times.size))  # ball mean of |u|^q per q and snapshot
    for rows, values in blocks:
        a = np.abs(values)
        for i, q in enumerate(qs):
            means[i, rows] = (a**q).mean(axis=1)
    span = times[-1] - times[0]
    return np.array([
        (np.trapezoid(m, times) / span) ** (1.0 / q) for q, m in zip(qs, means)
    ])


def _cylinder_oscillation(
    traj: TrajectoryStore, Q: Cylinder, path: SlantPath | None = None
) -> float:
    """sup - inf of u over the cylinder's snapshots, with the ball along
    ``path`` if given."""
    _, blocks = Q.ball_values(traj, path)
    return max(v.max() for _, v in blocks) - min(v.min() for _, v in blocks)


def _knob_error(config: ExperimentConfig, check: str, name: str, value) -> str | None:
    """Why ``value`` lies outside the range of the knob verification.params
    .<check>.<name>, or, for a field the check needs (CHECK_SPECS; value True),
    why the config lacks what the check needs; None when neither holds."""
    if (check, name) == ("excess", "m_max") and value < 1:
        return f"m_max must be at least 1, got {value}"
    if (check, name) == ("lorentz", "p"):
        d, s = config.build_grid().d, config.build_kernel().s
        p_max = (d + 2.0 * s) / (2.0 * s)
        if not 1.0 < value < p_max:
            return f"p must lie in (1, (d+2s)/(2s)) = (1, {p_max:g}), got {value}"
    if (check, name) == ("lorentz", "sigma") and not value > 0.0:
        return f"sigma must be positive, got {value}"
    if (check, name) == ("bmo", "c0") and not value >= 0.0:
        return f"c0 must be >= 0, got {value}"
    if name in ("slanted", "drift.family") and value and config.drift_family in ("none", "sqg"):
        return f"needs an explicit drift, not {config.drift_family!r}"
    if name in ("slanted", "kernel.s") and value:
        s = config.build_kernel().s
        if name == "slanted" and abs(s - 0.5) > 1e-12:
            return f"slanted rows need s = 1/2, got s = {s}"
        if name == "kernel.s" and s < 0.5 - 1e-12:
            return f"needs s >= 1/2, below which a BMO drift is supercritical; got s = {s}"
    if name == "measure.density" and not config.section("measure").get("density"):
        return "needs a density measure"
    if name == "measure.atoms" and not config.section("measure").get("atoms"):
        return "needs an atomic measure"
    return None


def _check_knobs(config: ExperimentConfig, check: str, knobs: dict) -> None:
    """Raise ConfigError at verification.params.<check>.<knob> for the first
    of ``knobs`` out of its range, then at the first field the check needs in
    CHECK_SPECS that the config does not set as it must.  Each check runs it
    on its own knobs, and run_campaign on the knobs the config sets for every
    selected check, before any solve."""
    for name, value in knobs.items():
        message = _knob_error(config, check, name, value)
        if message is not None:
            raise ConfigError(f"verification.params.{check}.{name}", message)
    for need in CHECK_SPECS[check].needs:
        message = _knob_error(config, check, need, True)
        if message is not None:
            raise ConfigError(need, f"the {check} check {message}")


def _grid_node(grid: GridSpec, rng: np.random.Generator) -> tuple:
    """A grid node drawn uniformly from ``rng``."""
    return tuple(float(i) * grid.spacing for i in rng.integers(0, grid.n, grid.d))


def _outer_radius(exp: Experiment) -> float:
    """The largest scale of a check's nested cylinders: at most L/8, and
    deep enough in time to fit 95% of the solved window."""
    window = exp.traj.t_end - exp.traj.t_start
    return min(exp.grid.domain_length / 8.0, (window * 0.95) ** (1.0 / (2.0 * exp.kernel.s)))


def _placements(exp: Experiment, rng: np.random.Generator, count: int):
    """Seeded (t0, x0, R) triples whose cylinders fit the solved window."""
    grid, s = exp.grid, exp.kernel.s
    traj = exp.traj
    r_hi = grid.domain_length / 8.0
    r_lo = max(4.0 * grid.spacing, r_hi / 4.0)
    out = []
    for _ in range(count):
        R = float(rng.uniform(r_lo, r_hi))
        depth = R ** (2.0 * s)
        t_min = traj.t_start + depth
        if t_min > traj.t_end:
            raise ValueError("solve window too short for the placement radius")
        t0 = float(rng.uniform(t_min, traj.t_end))
        # snap to a stored snapshot so point evaluation is grid-aligned in time
        t0 = traj.times[traj.index_at(t0)]
        if t0 - depth < traj.t_start:
            t0 = traj.t_start + depth
        out.append((t0, _grid_node(grid, rng), R))
    return out


def _slant_paths(b: VectorField, requests) -> list[list[SlantPath]]:
    """The slant paths of b for each request (x0, scales), in one
    ``slant_ode`` call: per request, one path from x0 per scale, in order."""
    counts = [len(scales) for _, scales in requests]
    paths = slant_ode(
        b,
        np.concatenate([np.asarray(scales, dtype=float) for _, scales in requests]),
        x0=np.repeat([np.asarray(x0, dtype=float) for x0, _ in requests], counts, axis=0),
    )
    ends = np.cumsum(counts)
    return [paths[end - count : end] for end, count in zip(ends, counts)]


def _potential_rows(
    report, exp: Experiment, qs, placements, drift: VectorField | None = None, fit_scales=()
) -> list[SlantPath]:
    """Add the rows of the pointwise bound |u(t0,x0)| <= c [cylinder Lq mean
    + Lq tail + potential] at each placement whose cylinder the snapshots
    resolve.  With a drift, R is capped at 1 and the cylinder and the
    potential follow its slant paths; without one they are straight.

    Every slant path comes from one request list (``_slant_paths``): the
    paths from x0 = 0 of ``fit_scales``, which are returned, then for each
    placement the path of its cylinder and those its potential takes (the
    active radii of ``potential_radii``)."""
    s, d = exp.kernel.s, exp.grid.d
    radii = [R for _, _, R in placements]
    paths = slants = [None] * len(placements)
    fit_paths = []
    if drift is not None:
        radii = [min(R, 1.0) for R in radii]
        requests = [(np.zeros(d), fit_scales)]
        for (t0, x0, _), R in zip(placements, radii):
            rhos = []
            if exp.mu is not None:
                _, all_radii, active = potential_radii(exp.mu, t0, R, s)
                rhos = all_radii[active]
            requests.append((x0, [R, *rhos]))
        fit_paths, *placed = _slant_paths(drift, requests)
        paths, slants = [p[0] for p in placed], [p[1:] for p in placed]
    for (t0, x0, _), R, path, slant in zip(placements, radii, paths, slants):
        Q = Cylinder(t0, x0, R, s)
        lhs = point_value(exp.traj, t0, x0)
        try:
            terms1 = cylinder_lq_mean(exp.traj, Q, qs, path=path)
            terms2 = tail_time_lq(exp.traj, Q, qs, exp.kernel, exp.tail_options, slant=path)
        except UnresolvedCylinderError:
            continue  # the snapshots do not resolve this placement's cylinder
        pot = 0.0
        if exp.mu is not None:
            pot = riesz_potential(exp.mu, t0, x0, R, exp.kernel, a=2.0 * s, slant=slant).value
        for q, term1, term2 in zip(qs, terms1, terms2):
            report.add(q=q, t0=t0, x0=x0, radius=R, lhs=lhs, rhs_terms=(term1, term2, pot))
    return fit_paths


def verify_potential_estimate(
    config: ExperimentConfig,
    qs=POTENTIAL_Q,
    num_placements: int = NUM_PLACEMENTS,
    salt: int = 1,
) -> VerificationReport:
    """Pointwise bound |u(t0,x0)| <= c [cylinder Lq mean + Lq tail + potential]."""
    if min(qs) <= 1.0:
        raise ValueError(f"the potential estimate requires q > 1, got {min(qs)}")
    exp = run_experiment(config)
    report = config.report("potential")
    _potential_rows(report, exp, qs, _placements(exp, config.rng(salt), num_placements))
    if not report.rows:
        raise ValueError("no admissible placements; solve window or grid too small")
    return report


def verify_excess_decay(
    config: ExperimentConfig, m_max: int = 3, salt: int = 2
) -> VerificationReport:
    """Geometric excess decay across dyadic scales, plus the measure term."""
    _check_knobs(config, "excess", {"m_max": m_max})
    q = EXCESS_Q
    exp0 = run_experiment(config, measure_scale=0.0)
    grid, s = exp0.grid, exp0.kernel.s
    R = _outer_radius(exp0)
    if R / 2**m_max < 4.0 * grid.spacing:
        raise ValueError(
            f"insufficient scale separation: R/2^m = {R / 2 ** m_max:.3g} "
            f"is below 4 spacings = {4 * grid.spacing:.3g}"
        )
    x0 = _grid_node(grid, config.rng(salt))
    t0 = exp0.traj.t_end
    opts = exp0.tail_options

    def excess_at(exp: Experiment, m: int) -> float:
        return excess(exp.traj, t0, x0, R / 2**m, q, exp.kernel, opts).total

    report = config.report("excess")
    first = excess_at(exp0, 0)
    if first <= 1e-14:
        # constant solutions have zero excess at every scale: vacuous pass
        for m in range(m_max + 1):
            report.add(q=q, t0=t0, x0=x0, radius=R / 2**m, lhs=0.0, rhs_terms=(1e-300,))
        report.extras["alpha"] = 0.0
        report.extras["vacuous"] = True
        return report
    exp1 = None if exp0.mu is None else run_experiment(config)
    runs = [exp0] if exp1 is None else [exp0, exp1]
    # every run's excess radius by radius, so the runs share each radius's
    # tail rule: one row per run
    table = np.array(
        [[first, *(excess_at(exp, 0) for exp in runs[1:])]]
        + [[excess_at(exp, m) for exp in runs] for m in range(1, m_max + 1)]
    ).T
    E = table[0]
    ms = np.arange(m_max + 1)
    logE = np.log2(np.maximum(E, 1e-300))
    slope, intercept = np.polyfit(ms, logE, 1)
    alpha = float(-slope)
    C0 = float(2.0 ** (intercept - logE[0]))
    C0 = max(C0, 1.0) * 1.5  # slack so the fitted line majorizes the samples
    report.extras["alpha"] = alpha
    report.extras["C0"] = C0
    report.extras["excess_values"] = E.tolist()
    for m in ms:
        report.add(
            q=q, t0=t0, x0=x0, radius=R / 2**m,
            lhs=float(E[m]), rhs_terms=(C0 * 2.0 ** (-alpha * m) * E[0],),
        )

    if exp1 is not None:
        E1 = table[1]
        d = grid.d
        mass = cylinder_mass(exp1.mu, Cylinder(t0, x0, R, s))
        for m in ms:
            report.add(
                q=q, t0=t0, x0=x0, radius=R / 2**m,
                lhs=float(E1[m]),
                rhs_terms=(
                    C0 * 2.0 ** (-alpha * m) * E1[0],
                    C0 * 2.0 ** ((d + 2.0 * s) / q * m) * R ** (-d) * mass,
                ),
            )
        report.extras["excess_with_measure"] = E1.tolist()
    return report


def fit_holder_exponent(
    config: ExperimentConfig, num_points: int = 10, salt: int = 3, slanted: bool = False
) -> VerificationReport:
    """Oscillation decay exponent over shrinking cylinders on homogeneous runs,
    along the drift's slant paths if ``slanted`` (s = 1/2 only).  The extras
    keep each placement's slope under its exponent capped at 1 (``alphas``)."""
    _check_knobs(config, "holder", {"slanted": slanted})
    exp = run_experiment(config, measure_scale=0.0)
    grid, s = exp.grid, exp.kernel.s
    r0 = _outer_radius(exp)
    num_scales = HOLDER_SCALES
    while num_scales > 2 and r0 / 2 ** (num_scales - 1) < 3.0 * grid.spacing:
        num_scales -= 1
    if r0 / 2 ** (num_scales - 1) < 3.0 * grid.spacing:
        raise ValueError("grid too coarse for even two oscillation scales")
    opts = exp.tail_options
    report = config.report("holder")
    slopes = []
    placements = _placements(exp, config.rng(salt), num_points)
    radii = r0 / 2.0 ** np.arange(num_scales)
    path_sets = [[None] * num_scales] * len(placements)
    if slanted and placements:  # every placement's paths from one request list
        scales = np.minimum(radii, 1.0)
        path_sets = _slant_paths(exp.drift, [(x0, scales) for _, x0, _ in placements])
    for (t0, x0, _), paths in zip(placements, path_sets):
        t0 = max(t0, exp.traj.t_start + r0 ** (2.0 * s))
        oscs = np.array([
            _cylinder_oscillation(exp.traj, Cylinder(t0, x0, r, s), path)
            for r, path in zip(radii, paths)
        ])
        if oscs[0] <= 1e-14:
            continue
        slope, _ = np.polyfit(np.log(radii), np.log(np.maximum(oscs, 1e-300)), 1)
        slopes.append(float(slope))
        # the right-hand side on the lhs's own cylinder, slanted or straight
        Q = Cylinder(t0, x0, r0, s)
        (rhs1,) = cylinder_lq_mean(exp.traj, Q, (1.0,), path=paths[0])
        (rhs2,) = tail_time_lq(exp.traj, Q, (HOLDER_Q,), exp.kernel, opts, slant=paths[0])
        report.add(
            q=HOLDER_Q, t0=t0, x0=x0, radius=r0,
            lhs=float(oscs[0]) * 0.5, rhs_terms=(rhs1, rhs2),
        )
    alphas = [min(slope, 1.0) for slope in slopes]  # measurement cap: smooth fields saturate
    report.extras["alphas"] = alphas
    report.extras["min_alpha"] = min(alphas) if alphas else None
    report.extras["slopes"] = slopes
    report.extras["num_capped"] = alphas.count(1.0)
    report.extras["slanted"] = slanted
    return report


def verify_lorentz(
    config: ExperimentConfig, p: float = 1.2, sigma: float = np.inf
) -> VerificationReport:
    """Empirical quasi-norm of u at the target exponent against the mu norm."""
    _check_knobs(config, "lorentz", {"p": p, "sigma": sigma})
    exp = run_experiment(config)
    grid, traj, dens = exp.grid, exp.traj, exp.mu.density
    x0, radius = (grid.domain_length / 2.0,) * grid.d, grid.domain_length / 4.0
    p_target = target_exponent(grid.d, exp.kernel.s, p)

    window = ball_mask(grid, x0, radius)
    t_mid = 0.5 * (traj.t_start + traj.t_end)
    idx = [i for i, t in enumerate(traj.times) if t > t_mid]
    u_samples = np.concatenate([traj.snapshots[i].values[window] for i in idx])
    span_u = traj.times[idx[-1]] - traj.times[idx[0]] if len(idx) > 1 else 1.0
    vol_u = grid.cell_volume * max(span_u / max(len(idx) - 1, 1), 1e-12)

    mu_samples = np.concatenate([v[window] for v in dens.values])
    span_mu = dens.times[-1] - dens.times[0]
    vol_mu = grid.cell_volume * max(span_mu / max(dens.times.size - 1, 1), 1e-12)

    u_norm = lorentz_quasi_norm(u_samples, vol_u, p_target, sigma)
    mu_norm = lorentz_quasi_norm(mu_samples, vol_mu, p, sigma)
    report = config.report("lorentz")
    report.add(q=p, t0=traj.t_end, x0=x0, radius=radius, lhs=u_norm, rhs_terms=(mu_norm,))
    report.extras["target_exponent"] = p_target
    report.extras["sigma"] = None if np.isinf(sigma) else sigma  # strict JSON has no Infinity
    report.extras["u_quasi_norm"] = u_norm
    report.extras["mu_quasi_norm"] = mu_norm
    return report


def verify_comparison(
    config: ExperimentConfig,
    num_cylinders: int = 5,
    mass_factors=(0.5, 1.0, 2.0),
    salt: int = 5,
) -> VerificationReport:
    """sup-in-time ball mean of u - v against the cylinder measure mass."""
    _check_knobs(config, "comparison", {})
    exps = {
        f: run_experiment(config, measure_scale=f, snapshot_stride=1)
        for f in mass_factors
    }
    exp1 = exps[1.0] if 1.0 in exps else next(iter(exps.values()))
    grid, s, d, mu = exp1.grid, exp1.kernel.s, exp1.grid.d, exp1.mu
    ball_vol = _sphere_area(d) / d
    rng = config.rng(salt)

    # cylinders biased toward the atoms so the mass term is active
    cylinders = []
    for _ in range(num_cylinders):
        i = int(rng.integers(0, mu.num_atoms))
        r = float(rng.uniform(max(4.0 * grid.spacing, grid.domain_length / 32.0),
                              grid.domain_length / 8.0))
        jitter = rng.uniform(-0.25 * r, 0.25 * r, d)
        x0 = tuple((mu.atom_positions[i] + jitter) % grid.domain_length)
        depth = r ** (2.0 * s)
        t0 = float(
            np.clip(mu.atom_times[i] + 0.5 * depth, exp1.traj.t_start + depth,
                    exp1.traj.t_end)
        )
        cylinders.append(Cylinder(t0, x0, r, s))

    report = config.report("comparison")
    lhs_by_cyl = {}
    for f, exp in exps.items():
        for ci, Q in enumerate(cylinders):
            v_traj = comparison_solve(exp.traj, exp.drift, Q, exp.solver)
            # v is solved on u's window, so the two stacks share their rows;
            # with no path each window has the one centre x0
            _, [(_, U)] = Q.ball_values(exp.traj)
            _, [(_, V)] = Q.ball_values(v_traj)
            sup_mean = float(np.abs(U - V).mean(axis=1).max())
            rhs = cylinder_mass(exp.mu, Q) / (ball_vol * Q.r**d)
            lhs_by_cyl.setdefault(ci, {})[f] = sup_mean
            report.add(q=f, t0=Q.t0, x0=Q.x0, radius=Q.r, lhs=sup_mean, rhs_terms=(rhs,))
    linearity = {}
    for ci, vals in lhs_by_cyl.items():
        if 1.0 in vals and vals[1.0] > 0:
            linearity[ci] = {f: v / (f * vals[1.0]) for f, v in vals.items()}
    report.extras["linearity_ratios"] = linearity
    return report


def verify_bmo_slanted(
    config: ExperimentConfig, num_placements: int = 4, salt: int = 6, c0: float = 0.1
) -> VerificationReport:
    """The potential estimate for rough (BMO) drifts: along slant paths at
    s = 1/2, with the size of the paths from x0 = 0 fitted against the
    c (C1 + C2 |log r|) functional form and the cylinder enlargement
    1 + c0 (C1 + C2 |log r|) recorded; straight for s > 1/2."""
    _check_knobs(config, "bmo", {"c0": c0})
    exp = run_experiment(config)
    grid, s, b = exp.grid, exp.kernel.s, exp.drift
    scales = [r for r in (0.5, 1.0) if grid.spacing < r <= grid.domain_length / 2.0]
    C1, C2 = bmo_seminorm(b, scales or [2.0 * grid.spacing])
    report = config.report("bmo")
    report.extras["C1"] = C1
    report.extras["C2"] = C2
    critical = abs(s - 0.5) <= 1e-12
    report.extras["mode"] = "BMO, critical slanted" if critical else "BMO, subcritical"
    placements = _placements(exp, config.rng(salt), num_placements)
    # at s = 1/2 the rows follow b's slant paths, and the paths from x0 = 0
    # of the fit radii come from the same request list
    drift, radii = (b, BMO_FIT_RADII) if critical else (None, ())
    fit_paths = _potential_rows(report, exp, (2.0,), placements, drift=drift, fit_scales=radii)
    if not report.rows:
        raise ValueError("no admissible placements; solve window or grid too small")
    if not critical:
        return report
    norms = np.array([path.c1_norm for path in fit_paths])
    envelopes = np.array([C1 + C2 * abs(np.log(r)) for r in radii])
    c_fit = float((norms * envelopes).sum() / (envelopes**2).sum())
    residual = float(np.abs(norms - c_fit * envelopes).max() / max(norms.max(), 1e-300))
    report.extras["path_norms"] = norms.tolist()
    report.extras["path_envelopes"] = envelopes.tolist()
    report.extras["path_constant"] = c_fit
    report.extras["path_residual"] = residual
    report.extras["enlargement"] = {
        str(r): 1.0 + c0 * (C1 + C2 * abs(np.log(r))) for r in radii
    }
    return report


# each check with the knobs verification.params sets for it; the potential
# knobs place nldd potential's one evaluation, not the check's placements
CHECKS = {
    "potential": lambda cfg: verify_potential_estimate(cfg),
    "excess": lambda cfg: verify_excess_decay(cfg, **cfg.params("excess")),
    "holder": lambda cfg: fit_holder_exponent(cfg, **cfg.params("holder")),
    "lorentz": lambda cfg: verify_lorentz(cfg, **cfg.params("lorentz")),
    "comparison": lambda cfg: verify_comparison(cfg),
    "bmo": lambda cfg: verify_bmo_slanted(cfg, **cfg.params("bmo")),
}


def run_campaign(
    config_path,
    out_dir,
    ceiling_file=None,
    seed=None,
) -> int:
    """Run the selected checks, write report.csv plus a JSON sidecar, and
    return 0 iff every selected check passes its ceiling.  A ConfigError,
    raised before any solve or by a check, ends the campaign with no report
    written."""
    import os

    config = load_config(config_path)
    if seed is not None:
        config.raw["seed"] = int(seed)
    if ceiling_file is not None:
        ceilings = read_yaml_file(ceiling_file, "--ceiling-file")
        config.add_ceilings(ceilings or {}, "--ceiling-file")
    # what the checks need and their knobs fail here, before any solve, as
    # config errors: reading the selection reads the whole verification section
    for name in config.selection:
        _check_knobs(config, name, config.params(name))

    reports: list[VerificationReport] = []
    errors: dict[str, str] = {}
    tracebacks: dict[str, str] = {}
    for name in config.selection:
        try:
            reports.append(CHECKS[name](config))
        except ConfigError:  # a setting no check can run with
            raise
        except Exception as exc:  # flush partial results below
            errors[name] = f"{type(exc).__name__}: {exc}"
            tracebacks[name] = traceback.format_exc()

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    body = write_csv(reports, csv_path)
    sidecar = {
        "config_id": content_id(config.raw),
        "seed": config.seed,
        "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime()),
        "checks": {
            r.inequality_id: {
                "passed": bool(r.passed),
                "fitted_constant": None if not np.isfinite(r.fitted_constant)
                else float(r.fitted_constant),
                "extras": r.extras,
            }
            for r in reports
        },
        "errors": errors,
        "tracebacks": tracebacks,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
    if errors:
        return 2
    return 0 if all(r.passed for r in reports) else 1
