"""Verification campaigns: each check evaluates both sides of one estimate on
solved trajectories, reports the per-row decomposition, and fits the smallest
constant making the inequality hold.

Checks are deterministic given the config seed; placements are drawn from a
seeded generator, one salt per check.
"""

from __future__ import annotations

import json
import time as _time
import traceback
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .evolution import SolverConfig, TrajectoryStore, comparison_solve, solve, solve_sqg
from .fields import GridSpec, ScalarField, VectorField, ball_mask
from .lorentz import lorentz_quasi_norm, target_exponent
from .measures import Cylinder, MeasureData, SlantPath, cylinder_mass
from .operators import KernelSpec
from .potentials import (
    TailOptions,
    bmo_seminorm,
    excess,
    interpolate_periodic,
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


@dataclass
class Experiment:
    """One solved run plus everything needed to evaluate estimates on it."""

    grid: GridSpec
    kernel: KernelSpec
    solver: SolverConfig
    u0: ScalarField
    mu: MeasureData | None
    drift: VectorField | None
    traj: TrajectoryStore

    @property
    def tail_options(self) -> TailOptions:
        return TailOptions(truncation_radius=self.grid.domain_length / 2.0)


def run_experiment(
    config: ExperimentConfig, drop_measure: bool = False, measure_scale: float = 1.0,
    initial_scale: float = 1.0, **solver_overrides
) -> Experiment:
    grid = config.build_grid()
    kernel = config.build_kernel()
    mu = None if drop_measure else config.build_measure(grid)
    if mu is not None and measure_scale != 1.0:
        mu = mu.scaled(measure_scale)
    overrides = dict(solver_overrides)
    if mu is not None and config.raw.get("solver", {}).get("h_moll", 0.0) == 0.0:
        overrides.setdefault("h_moll", 2.0 * grid.spacing)
    solver = config.build_solver(kernel, **overrides)
    u0 = config.build_initial(grid)
    if initial_scale != 1.0:
        u0 = u0.with_values(initial_scale * u0.values)
    b = config.build_drift(grid)
    if config.drift_family == "sqg":
        traj = solve_sqg(u0, mu, solver)
    else:
        traj = solve(u0, b, mu, solver)
    return Experiment(grid, kernel, solver, u0, mu, b, traj)


def point_value(traj: TrajectoryStore, t0: float, x0) -> float:
    """|u(t0, x0)|: nearest snapshot in time, bilinear in space."""
    u = traj.at(t0)
    pt = np.atleast_2d(np.asarray(x0, dtype=float))
    return float(abs(interpolate_periodic(u, traj.grid, pt)[0]))


def cylinder_lq_mean(
    traj: TrajectoryStore, Q: Cylinder, qs, path: SlantPath | None = None
) -> np.ndarray:
    """(space-time average of |u|^q over the cylinder)^(1/q) for each q in qs,
    with the ball along ``path`` if given; the |u| samples of each snapshot
    are gathered once for all q."""
    times, values = Q.ball_values(traj, path)
    samples = [np.abs(v) for v in values]
    span = times[-1] - times[0]
    return np.array([
        (np.trapezoid([(a**q).mean() for a in samples], times) / span) ** (1.0 / q)
        for q in qs
    ])


def _cylinder_oscillation(
    traj: TrajectoryStore, Q: Cylinder, path: SlantPath | None = None
) -> float:
    """sup - inf of u over the cylinder's snapshots, with the ball along
    ``path`` if given."""
    _, values = Q.ball_values(traj, path)
    return max(v.max() for v in values) - min(v.min() for v in values)


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
        x0 = tuple(float(i) * grid.spacing for i in rng.integers(0, grid.n, grid.d))
        out.append((t0, x0, R))
    return out


def verify_potential_estimate(
    config: ExperimentConfig,
    exp: Experiment | None = None,
    qs=POTENTIAL_Q,
    num_placements: int = NUM_PLACEMENTS,
    salt: int = 1,
) -> VerificationReport:
    """Pointwise bound |u(t0,x0)| <= c [cylinder Lq mean + Lq tail + potential]."""
    if min(qs) <= 1.0:
        raise ValueError(f"the potential estimate requires q > 1, got {min(qs)}")
    if exp is None:
        exp = run_experiment(config)
    report = VerificationReport("potential-estimate")
    report.ceiling = config.ceiling("potential-estimate")
    rng = config.rng(salt)
    opts = exp.tail_options
    s = exp.kernel.s
    for t0, x0, R in _placements(exp, rng, num_placements):
        lhs = point_value(exp.traj, t0, x0)
        Q = Cylinder(t0, x0, R, s)
        if exp.mu is not None:
            pot = riesz_potential(exp.mu, t0, x0, R, exp.kernel, a=2.0 * s).value
        else:
            pot = 0.0
        try:
            terms1 = cylinder_lq_mean(exp.traj, Q, qs)
            terms2 = tail_time_lq(exp.traj, Q, qs, exp.kernel, opts)
        except ValueError:
            continue  # geometry not resolved for this placement
        for q, term1, term2 in zip(qs, terms1, terms2):
            report.add(q=q, t0=t0, x0=x0, radius=R, lhs=lhs, rhs_terms=(term1, term2, pot))
    if not report.rows:
        raise ValueError("no admissible placements; solve window or grid too small")
    return report


def verify_excess_decay(
    config: ExperimentConfig, m_max: int = 3, q: float = 2.0, salt: int = 2
) -> VerificationReport:
    """Geometric excess decay across dyadic scales, plus the measure term."""
    exp0 = run_experiment(config, drop_measure=True)
    grid, s = exp0.grid, exp0.kernel.s
    R = min(
        grid.domain_length / 8.0,
        ((exp0.traj.t_end - exp0.traj.t_start) * 0.95) ** (1.0 / (2.0 * s)),
    )
    if R / 2**m_max < 4.0 * grid.spacing:
        raise ValueError(
            f"insufficient scale separation: R/2^m = {R / 2 ** m_max:.3g} "
            f"is below 4 spacings = {4 * grid.spacing:.3g}"
        )
    rng = config.rng(salt)
    x0 = tuple(float(i) * grid.spacing for i in rng.integers(0, grid.n, grid.d))
    t0 = exp0.traj.t_end
    opts = exp0.tail_options

    E = np.array(
        [excess(exp0.traj, t0, x0, R / 2**m, q, exp0.kernel, opts).total
         for m in range(m_max + 1)]
    )
    report = VerificationReport("excess-decay")
    report.ceiling = config.ceiling("excess-decay")
    if E[0] <= 1e-14:
        # constant solutions have zero excess at every scale: vacuous pass
        for m in range(m_max + 1):
            report.add(q=q, t0=t0, x0=x0, radius=R / 2**m, lhs=0.0, rhs_terms=(1e-300,))
        report.extras["alpha"] = 0.0
        report.extras["vacuous"] = True
        return report
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

    mu = config.build_measure(grid)
    if mu is not None:
        exp1 = run_experiment(config)
        E1 = np.array(
            [excess(exp1.traj, t0, x0, R / 2**m, q, exp1.kernel, opts).total
             for m in range(m_max + 1)]
        )
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
    config: ExperimentConfig,
    num_points: int = 10,
    num_scales: int = 4,
    q: float = 2.0,
    salt: int = 3,
) -> VerificationReport:
    """Oscillation decay exponent over shrinking cylinders on homogeneous runs."""
    exp = run_experiment(config, drop_measure=True)
    grid, s = exp.grid, exp.kernel.s
    slanted = bool(config.params("holder").get("slanted", False)) and abs(s - 0.5) < 1e-12
    r0 = min(
        grid.domain_length / 8.0,
        ((exp.traj.t_end - exp.traj.t_start) * 0.95) ** (1.0 / (2.0 * s)),
    )
    while num_scales > 2 and r0 / 2 ** (num_scales - 1) < 3.0 * grid.spacing:
        num_scales -= 1
    if r0 / 2 ** (num_scales - 1) < 3.0 * grid.spacing:
        raise ValueError("grid too coarse for even two oscillation scales")
    rng = config.rng(salt)
    opts = exp.tail_options
    report = VerificationReport("holder-exponent")
    report.ceiling = config.ceiling("holder-exponent")
    alphas = []
    for t0, x0, _ in _placements(exp, rng, num_points):
        t0 = max(t0, exp.traj.t_start + r0 ** (2.0 * s))
        radii = r0 / 2.0 ** np.arange(num_scales)
        paths = slant_ode(exp.drift, np.minimum(radii, 1.0), t0=t0, x0=x0) if (
            slanted and exp.drift is not None
        ) else [None] * num_scales
        oscs = np.array([
            _cylinder_oscillation(exp.traj, Cylinder(t0, x0, r, s), path)
            for r, path in zip(radii, paths)
        ])
        if oscs[0] <= 1e-14:
            continue
        slope, _ = np.polyfit(np.log(radii), np.log(np.maximum(oscs, 1e-300)), 1)
        alpha = float(min(slope, 1.0))  # measurement cap: smooth fields saturate
        alphas.append(alpha)
        Q = Cylinder(t0, x0, r0, s)
        (rhs1,) = cylinder_lq_mean(exp.traj, Q, (1.0,))
        (rhs2,) = tail_time_lq(exp.traj, Q, (q,), exp.kernel, opts)
        report.add(
            q=q, t0=t0, x0=x0, radius=r0,
            lhs=float(oscs[0]) * 0.5, rhs_terms=(rhs1, rhs2),
        )
    report.extras["alphas"] = alphas
    report.extras["min_alpha"] = min(alphas) if alphas else None
    report.extras["slanted"] = slanted
    return report


def verify_lorentz(
    config: ExperimentConfig, p: float, sigma: float, salt: int = 4
) -> VerificationReport:
    """Empirical quasi-norm of u at the target exponent against the mu norm."""
    exp = run_experiment(config)
    grid, s, d = exp.grid, exp.kernel.s, exp.grid.d
    if not 1.0 < p < (d + 2.0 * s) / (2.0 * s):
        raise ValueError(f"p must lie in (1, (d+2s)/(2s)), got {p}")
    if exp.mu is None or exp.mu.density is None:
        raise ValueError("the Lorentz check needs a density measure")
    p_target = target_exponent(d, s, p)

    window = ball_mask(grid, (grid.domain_length / 2.0,) * d, grid.domain_length / 4.0)
    t_mid = 0.5 * (exp.traj.t_start + exp.traj.t_end)
    idx = [i for i, t in enumerate(exp.traj.times) if t > t_mid]
    u_samples = np.concatenate(
        [exp.traj.snapshots[i].values[window] for i in idx]
    )
    span_u = exp.traj.times[idx[-1]] - exp.traj.times[idx[0]] if len(idx) > 1 else 1.0
    vol_u = grid.cell_volume * max(span_u / max(len(idx) - 1, 1), 1e-12)

    dens = exp.mu.density
    mu_samples = np.concatenate([v[window] for v in dens.values])
    span_mu = dens.times[-1] - dens.times[0]
    vol_mu = grid.cell_volume * max(span_mu / max(dens.times.size - 1, 1), 1e-12)

    u_norm = lorentz_quasi_norm(u_samples, vol_u, p_target, sigma)
    mu_norm = lorentz_quasi_norm(mu_samples, vol_mu, p, sigma)
    report = VerificationReport("lorentz-exponent")
    report.ceiling = config.ceiling("lorentz-exponent")
    report.add(
        q=p, t0=exp.traj.t_end, x0=(grid.domain_length / 2.0,) * d,
        radius=grid.domain_length / 4.0,
        lhs=u_norm, rhs_terms=(mu_norm,),
    )
    report.extras["target_exponent"] = p_target
    report.extras["sigma"] = sigma
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
    base = config.build_measure(config.build_grid())
    if base is None or base.num_atoms == 0:
        raise ValueError("the comparison check needs an atomic measure")
    exps = {
        f: run_experiment(config, measure_scale=f, snapshot_stride=1, store_drift=True)
        for f in mass_factors
    }
    exp1 = exps[1.0] if 1.0 in exps else next(iter(exps.values()))
    grid, s, d = exp1.grid, exp1.kernel.s, exp1.grid.d
    ball_vol = np.pi * 1.0 if d == 2 else 4.0 * np.pi / 3.0
    rng = config.rng(salt)

    # cylinders biased toward the atoms so the mass term is active
    cylinders = []
    for _ in range(num_cylinders):
        i = int(rng.integers(0, base.num_atoms))
        r = float(rng.uniform(max(4.0 * grid.spacing, grid.domain_length / 32.0),
                              grid.domain_length / 8.0))
        jitter = rng.uniform(-0.25 * r, 0.25 * r, d)
        x0 = tuple((base.atom_positions[i] + jitter) % grid.domain_length)
        depth = r ** (2.0 * s)
        t0 = float(
            np.clip(base.atom_times[i] + 0.5 * depth, exp1.traj.t_start + depth,
                    exp1.traj.t_end)
        )
        cylinders.append(Cylinder(t0, x0, r, s))

    report = VerificationReport("comparison-estimate")
    report.ceiling = config.ceiling("comparison-estimate")
    lhs_by_cyl = {}
    for f, exp in exps.items():
        for ci, Q in enumerate(cylinders):
            pair = comparison_solve(exp.traj, exp.drift, exp.mu, Q, exp.solver)
            mask = ball_mask(grid, Q.x0, Q.r)
            sup_mean = max(
                float(np.abs(u.values[mask] - v.values[mask]).mean())
                for u, v in zip(pair.u_traj.snapshots, pair.v_traj.snapshots)
            )
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
    config: ExperimentConfig,
    radii=(0.25, 0.125, 0.0625),
    num_placements: int = 4,
    salt: int = 6,
) -> VerificationReport:
    """Slanted-geometry potential estimate for rough (BMO) drifts at s = 1/2,
    straight geometry for s > 1/2, plus the drift path size fit."""
    grid = config.build_grid()
    kernel = config.build_kernel()
    s = kernel.s
    b = config.build_drift(grid)
    if b is None:
        raise ValueError("the BMO check needs an explicit drift")
    scales = [r for r in (0.5, 1.0) if grid.spacing < r <= grid.domain_length / 2.0]
    C1, C2 = bmo_seminorm(b, scales or [2.0 * grid.spacing])
    report = VerificationReport("bmo-slanted")
    report.ceiling = config.ceiling("bmo-slanted")
    report.extras["C1"] = C1
    report.extras["C2"] = C2

    if abs(s - 0.5) > 1e-12:
        report.extras["mode"] = "BMO, subcritical"
        inner = verify_potential_estimate(
            config, qs=(2.0,), num_placements=num_placements, salt=salt
        )
        for row in inner.rows:
            report.rows.append(row)
        return report

    report.extras["mode"] = "BMO, critical slanted"
    # path size against the c (C1 + C2 |log r|) functional form
    norms = np.array([path.c1_norm for path in slant_ode(b, radii)])
    envelopes = np.array([C1 + C2 * abs(np.log(r)) for r in radii])
    c_fit = float((norms * envelopes).sum() / (envelopes**2).sum())
    residual = float(np.abs(norms - c_fit * envelopes).max() / max(norms.max(), 1e-300))
    report.extras["path_norms"] = norms.tolist()
    report.extras["path_envelopes"] = envelopes.tolist()
    report.extras["path_constant"] = c_fit
    report.extras["path_residual"] = residual
    c0 = float(config.params("bmo").get("c0", 0.1))
    report.extras["enlargement"] = {
        str(r): 1.0 + c0 * (C1 + C2 * abs(np.log(r))) for r in radii
    }

    exp = run_experiment(config)
    rng = config.rng(salt)
    opts = exp.tail_options
    q = 2.0
    for t0, x0, R in _placements(exp, rng, num_placements):
        R = min(R, 1.0)
        Q = Cylinder(t0, x0, R, s)
        (path,) = slant_ode(b, [R], t0=t0, x0=x0)
        lhs = point_value(exp.traj, t0, x0)
        try:
            (term1,) = cylinder_lq_mean(exp.traj, Q, (q,), path=path)
            (term2,) = tail_time_lq(exp.traj, Q, (q,), exp.kernel, opts, slant=path)
        except ValueError:
            continue
        if exp.mu is not None:
            pot = riesz_potential(
                exp.mu, t0, x0, R, exp.kernel, a=2.0 * s,
                slant=lambda rhos: slant_ode(b, np.minimum(rhos, 1.0), t0=t0, x0=x0),
            ).value
        else:
            pot = 0.0
        report.add(q=q, t0=t0, x0=x0, radius=R, lhs=lhs, rhs_terms=(term1, term2, pot))
    return report


CHECKS = {
    "potential": lambda cfg: verify_potential_estimate(cfg),
    "excess": lambda cfg: verify_excess_decay(
        cfg, m_max=int(cfg.params("excess").get("m_max", 3))
    ),
    "holder": lambda cfg: fit_holder_exponent(cfg),
    "lorentz": lambda cfg: verify_lorentz(
        cfg,
        p=float(cfg.params("lorentz").get("p", 1.2)),
        sigma=float(cfg.params("lorentz").get("sigma", np.inf)),
    ),
    "comparison": lambda cfg: verify_comparison(cfg),
    "bmo": lambda cfg: verify_bmo_slanted(cfg),
}


def run_campaign(
    config_path,
    out_dir,
    ceiling_file=None,
    seed=None,
) -> int:
    """Run the selected checks, write report.csv plus a JSON sidecar, and
    return 0 iff every selected check passes its ceiling."""
    import os

    config = load_config(config_path)
    if seed is not None:
        config.raw["seed"] = int(seed)
    if ceiling_file is not None:
        import yaml

        with open(ceiling_file) as fh:
            ceilings = yaml.safe_load(fh) or {}
        config.raw.setdefault("verification", {}).setdefault("ceilings", {}).update(ceilings)

    os.makedirs(out_dir, exist_ok=True)
    reports: list[VerificationReport] = []
    errors: dict[str, str] = {}
    tracebacks: dict[str, str] = {}
    for name in config.selection:
        if name not in CHECKS:
            raise ConfigError("verification.selection", f"unknown check {name!r}")
        try:
            reports.append(CHECKS[name](config))
        except Exception as exc:  # flush partial results below
            errors[name] = f"{type(exc).__name__}: {exc}"
            tracebacks[name] = traceback.format_exc()

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
