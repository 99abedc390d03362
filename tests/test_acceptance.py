"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (with the tolerance it enforces)
directly to the terminal, so the one-line-per-criterion summary survives
pytest's output capture.
"""

import numpy as np
import pytest
import yaml
from heat_oracles import gluing_check, periodized_free_kernel

from nldd.config import ExperimentConfig
from nldd.evolution import SolverConfig, solve
from nldd.fields import ScalarField, grid_coordinates, make_grid
from nldd.heatkernel import estimate_kernel, upper_bound_check
from nldd.lorentz import target_exponent
from nldd.measures import MeasureData
from nldd.operators import KernelSpec
from nldd.potentials import TailOptions, riesz_potential, tail
from nldd.snapshots import load_field, save_field
from nldd.verify import (
    run_campaign,
    verify_bmo_slanted,
    verify_comparison,
    verify_excess_decay,
    verify_lorentz,
    verify_potential_estimate,
)


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool, detail: str) -> None:
        line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def random_raw(**extra):
    raw = {
        "grid": {"d": 2, "n": 64, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": {"kind": "random", "amplitude": 1.0, "decay": 2.5},
        "solver": {"dt": 4e-3, "t_end": 1.0},
        "seed": 11,
    }
    raw.update(extra)
    return raw


def test_01_solver_exactness(report):
    # pure-diffusion eigenmodes decay at exactly exp(-|k|^(2s) t)
    grid = make_grid(2, 64, 2.0 * np.pi)
    xs = grid_coordinates(grid)
    u0 = ScalarField(grid, np.sin(xs[0]) + np.cos(3.0 * xs[1]), 0.0)
    worst = 0.0
    for s in (0.5, 0.75):
        cfg = SolverConfig(kernel=KernelSpec(s=s), dt=1e-3, t_end=1.0)
        traj = solve(u0, None, None, cfg)
        exact = (
            np.exp(-1.0) * np.sin(xs[0])
            + np.exp(-(3.0 ** (2.0 * s))) * np.cos(3.0 * xs[1])
        )
        err = np.abs(traj.snapshots[-1].values - exact).max() / np.abs(exact).max()
        worst = max(worst, err)
    report(
        "01 solver exactness",
        worst <= 1e-6,
        f"max-norm rel error {worst:.2e} <= 1e-06 for s in (1/2, 3/4)",
    )


def test_02_kernel_oracle(report):
    # driftless s=1/2 kernel against the periodized Cauchy-kernel closed form
    grid = make_grid(2, 256, 16.0)
    kern = KernelSpec(s=0.5)
    cfg = SolverConfig(kernel=kern, dt=2e-3, t_end=1.0, h_moll=grid.spacing)
    y = np.array([8.0, 8.0])
    est = estimate_kernel(None, 0.0, y, [1.0], cfg, grid)
    vals = est.fields[0].values
    coords = np.stack(
        np.meshgrid(*[np.arange(grid.n) * grid.spacing] * 2, indexing="ij"), axis=-1
    )
    # on the torus the free-space profile must be summed over periodic images;
    # the raw single-image formula is off by ~20% at the 1e-3 level set
    oracle = periodized_free_kernel(kern, grid, 1.0, coords - y)
    region = oracle >= 1e-3
    field_err = float(
        (np.abs(vals[region] - oracle[region]) / oracle[region]).max()
    )
    i0 = grid.n // 2
    i1 = i0 + int(round(1.0 / grid.spacing))
    err_diag = abs(vals[i0, i0] / 0.159155 - 1.0)
    err_unit = abs(vals[i0, i1] / 0.056270 - 1.0)
    ok = field_err <= 0.02 and err_diag <= 0.02 and err_unit <= 0.02
    report(
        "02 kernel oracle",
        ok,
        f"field rel err {field_err:.2e}, p(0) rel {err_diag:.2e}, "
        f"p(1) rel {err_unit:.2e}, all <= 2e-02",
    )


def test_03_upper_bound_stability(report):
    # max of p (|x-y| + gap^(1/2s))^(d+2s) / gap for a unit shear drift
    from nldd.config import shear_drift

    kern = KernelSpec(s=0.5)
    maxima = []
    for n in (128, 256):
        grid = make_grid(2, n, 8.0)
        b = shear_drift(grid, amplitude=1.0, wavenumber=1)
        cfg = SolverConfig(
            kernel=kern, dt=2e-3, t_end=1.0, drift_mode="given", h_moll=grid.spacing
        )
        est = estimate_kernel(b, 0.0, (4.0, 4.0), [0.25, 0.5, 1.0], cfg, grid)
        rep = upper_bound_check(est, T=1.0)
        maxima.extend(r.lhs for r in rep.rows)
    spread = max(maxima) / min(maxima) - 1.0
    ok = np.isfinite(max(maxima)) and spread <= 0.30
    report(
        "03 upper bound stability",
        ok,
        f"ratio maxima spread {spread:.2e} <= 3e-01 across grids 128->256 "
        f"and gaps (0.25, 0.5, 1)",
    )


def test_04_truncation_gluing(report):
    grid = make_grid(2, 256, 16.0)
    kern = KernelSpec(s=0.75)
    cfg = SolverConfig(kernel=kern, dt=1.25e-3, t_end=0.0625, h_moll=grid.spacing)
    rep = gluing_check(None, [0.5, 1.0, 2.0, 4.0], 0.0, (8.0, 8.0), 0.0625, cfg, grid)
    cs = np.array(rep.extras["fitted_c"][:3])
    Cs = np.array(rep.extras["fitted_C"][:3])
    agree = rep.extras["max_rel_difference"][4.0]

    def stable(vals):
        mid = float(np.median(vals))
        return bool(np.all(np.abs(vals - mid) <= 0.5 * mid)) and np.all(
            np.isfinite(vals)
        )

    ok = stable(cs) and stable(Cs) and agree <= 0.01
    report(
        "04 truncation gluing",
        ok,
        f"constants within +-50% of the median over rho in (0.5, 1, 2) "
        f"(c spread {cs.max() / cs.min():.2f}x, C spread {Cs.max() / Cs.min():.2f}x), "
        f"agreement at rho = L/4: {agree:.2e} <= 1e-02",
    )


def test_05_pointwise_potential_bound(report):
    # single frozen ceiling over 10 placements x q in (1.5, 2, 4) x 3 drifts;
    # frozen from the first verified run (max ratio 0.181) with 2x slack
    CEILING = 0.36
    drifts = {
        "none": None,
        "shear": {"family": "shear", "amplitude": 1.0},
        "sqg": {"family": "sqg"},
    }
    measure = {"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]}
    worst = 0.0
    for drift in drifts.values():
        raw = random_raw(measure=measure)
        if drift:
            raw["drift"] = drift
        rep = verify_potential_estimate(ExperimentConfig(raw), num_placements=10)
        worst = max(worst, max(r.lhs / r.rhs for r in rep.rows))

    # linear drifts only: the self-coupled drift is nonlinear in the data,
    # so rescaling data and measure together is not a symmetry there
    homog = 0.0
    for drift in (None, {"family": "shear", "amplitude": 1.0}):
        raw = random_raw(measure=measure)
        if drift:
            raw["drift"] = drift
        r1 = verify_potential_estimate(ExperimentConfig(raw), num_placements=10)
        raw2 = random_raw(
            initial={"kind": "random", "amplitude": 2.0, "decay": 2.5},
            measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 1.0}]},
        )
        if drift:
            raw2["drift"] = drift
        r2 = verify_potential_estimate(ExperimentConfig(raw2), num_placements=10)
        homog = max(homog, abs(r2.fitted_constant / r1.fitted_constant - 1.0))
    ok = worst <= CEILING and homog <= 1e-10
    report(
        "05 pointwise potential bound",
        ok,
        f"90 placement rows under frozen ceiling {CEILING} "
        f"(worst ratio {worst:.3f}); doubling data and measure moves the "
        f"fitted constant by {homog:.2e} <= 1e-10",
    )


def test_06_excess_decay(report):
    # per-seed decay rate averaged over 8 probe points shared across seeds
    # (salt chosen so seed + salt, hence the probe stream, is seed-independent)
    def raw(seed):
        return random_raw(
            grid={"d": 2, "n": 128, "domain_length": 8.0},
            solver={"dt": 4e-3, "t_end": 1.2},
            seed=seed,
        )

    means = []
    for seed in (1, 2, 3, 4, 5):
        cfg = ExperimentConfig(raw(seed))
        alphas = [
            verify_excess_decay(cfg, m_max=2, salt=100 + j - seed).extras["alpha"]
            for j in range(8)
        ]
        means.append(float(np.mean(alphas)))
    mid = float(np.mean(means))
    dev = max(abs(m - mid) for m in means)

    # with an atomic measure the two-term majorant fitted on the homogeneous
    # run must still cover the forced excess values
    raw_mu = raw(1)
    raw_mu["measure"] = {"atoms": [{"t": 0.6, "x": [4.0, 4.0], "mass": 0.5}]}
    rep = verify_excess_decay(ExperimentConfig(raw_mu), m_max=2)
    two_term = all(r.lhs <= r.rhs for r in rep.rows)
    ok = all(m > 0.0 for m in means) and dev <= 0.05 and two_term
    report(
        "06 excess decay",
        ok,
        f"alpha > 0 on 5 seeds, max deviation from the mean {dev:.3f} <= 5e-02, "
        f"two-term bound with an atom holds: {two_term}",
    )


def test_07_comparison_linearity(report):
    # frozen from the first verified run (max ratio 0.995) with 2x slack
    CEILING = 2.0
    raw = random_raw(
        measure={"atoms": [{"t": 0.4, "x": [4.0, 4.0], "mass": 0.5}]}
    )
    rep = verify_comparison(
        ExperimentConfig(raw), num_cylinders=5, mass_factors=(0.5, 1.0, 2.0)
    )
    lin_err = max(
        abs(v - 1.0)
        for per in rep.extras["linearity_ratios"].values()
        for v in per.values()
    )
    worst = max(r.lhs / r.rhs for r in rep.rows if r.rhs > 0)
    ok = lin_err <= 0.10 and worst <= CEILING
    report(
        "07 comparison linearity",
        ok,
        f"response linear in atom mass over (0.5, 1, 2) to {lin_err:.2e} <= 1e-01; "
        f"5 cylinders under frozen ceiling {CEILING} (worst ratio {worst:.3f})",
    )


def test_08_quadrature_closed_forms(report):
    grid = make_grid(2, 64, 16.0)
    kern = KernelSpec(s=0.5)
    ones = ScalarField(grid, np.ones(grid.shape), 0.0)
    got = tail(ones, (8.0, 8.0), 1.0, kern, TailOptions(truncation_radius=8.0))
    tail_err = abs(got / (2.0 * np.pi * (1.0 - 1.0 / 8.0)) - 1.0)

    mu = MeasureData.from_atoms(
        [(0.5 - 1e-6, (8.0 + 0.01, 8.0), 1.0)], domain_length=16.0
    )
    pot = riesz_potential(mu, 0.5, (8.0, 8.0), 1.0, kern, a=1.0)
    riesz_err = abs(pot.value / 4999.5 - 1.0)
    ok = tail_err <= 1e-6 and riesz_err <= 1e-4
    report(
        "08 quadrature closed forms",
        ok,
        f"constant-field tail rel err {tail_err:.2e} <= 1e-06; "
        f"atom potential rel err {riesz_err:.2e} <= 1e-04",
    )


def test_09_slanted_machinery(report):
    # (a) constant drift: the slanted report on the drifted problem coincides
    # with the straight report.  The data is invariant along the drift and the
    # snapshot cadence keeps every path displacement grid-aligned, so the two
    # evaluations visit identical cells.
    base = {
        "grid": {"d": 2, "n": 64, "domain_length": 8.0},
        "kernel": {"s": 0.5},
        "initial": {
            "kind": "eigenmode",
            "modes": [
                {"axis": 1, "wavenumber": 1, "amplitude": 1.0},
                {"axis": 1, "wavenumber": 3, "amplitude": 0.5},
            ],
        },
        "solver": {"dt": 0.01, "t_end": 1.0, "snapshot_stride": 25},
        "seed": 11,
    }
    straight = verify_potential_estimate(
        ExperimentConfig(dict(base)), qs=(2.0,), num_placements=4, salt=6
    )
    slanted = verify_bmo_slanted(
        ExperimentConfig(
            dict(base, drift={"family": "constant", "vector": [0.5, 0.0]})
        ),
        num_placements=4,
        salt=6,
    )
    coincide = max(
        max(
            abs(a.lhs - b.lhs),
            abs(a.rhs_terms[0] - b.rhs_terms[0]),
            abs(a.rhs_terms[1] - b.rhs_terms[1]),
        )
        for a, b in zip(straight.rows, slanted.rows)
    )
    nontrivial = min(slanted.extras["path_norms"]) > 0.5

    # (b, c) lacunary rough drift: slanted bound under a frozen ceiling
    # (first verified run max ratio 0.154, 2x slack) and the logarithmic
    # path-size fit
    CEILING = 0.31
    raw = random_raw(
        grid={"d": 2, "n": 128, "domain_length": 8.0},
        drift={"family": "lacunary", "coefficients": [0.3] * 5},
        measure={"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]},
    )
    rep = verify_bmo_slanted(ExperimentConfig(raw), num_placements=6, salt=6)
    worst = max(r.lhs / r.rhs for r in rep.rows)
    residual = rep.extras["path_residual"]
    ok = coincide <= 1e-6 and nontrivial and worst <= CEILING and residual <= 0.10
    report(
        "09 slanted machinery",
        ok,
        f"constant-drift coincidence {coincide:.2e} <= 1e-06; lacunary drift "
        f"under frozen ceiling {CEILING} (worst ratio {worst:.3f}); "
        f"path-size log fit residual {residual:.2e} <= 1e-01",
    )


def test_10_weak_norm_exponent(report):
    exact = target_exponent(d=2, s=0.5, p=1.2)
    raw = {
        "kernel": {"s": 0.5},
        "initial": {
            "kind": "eigenmode",
            "modes": [
                {"axis": 0, "wavenumber": 1, "amplitude": 1.0},
                {"axis": 1, "wavenumber": 2, "amplitude": 0.5},
            ],
        },
        "solver": {"dt": 4e-3, "t_end": 1.0},
        "measure": {
            "density": {
                "kind": "uniform", "level": 0.5, "t_start": 0.0, "t_end": 1.0,
            }
        },
        "seed": 11,
    }
    norms = {}
    for n in (64, 128):
        raw["grid"] = {"d": 2, "n": n, "domain_length": 8.0}
        rep = verify_lorentz(ExperimentConfig(dict(raw)), p=1.2, sigma=np.inf)
        norms[n] = rep.rows[0].lhs
    drift = abs(norms[128] / norms[64] - 1.0)
    ok = exact == 2.0 and np.isfinite(norms[128]) and drift <= 0.30
    report(
        "10 weak norm exponent",
        ok,
        f"target exponent == 2.0 exactly; quasi-norm drift under grid "
        f"refinement 64->128: {drift:.2e} <= 3e-01",
    )


def test_11_determinism_and_persistence(tmp_path, report):
    raw = random_raw(
        measure={
            "density": {
                "kind": "uniform", "level": 0.5, "t_start": 0.0, "t_end": 1.0,
            }
        },
        verification={"selection": ["lorentz"]},
    )
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    run_campaign(cfg, tmp_path / "a")
    run_campaign(cfg, tmp_path / "b")
    same_csv = (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()

    grid = make_grid(2, 32, 8.0)
    rng = np.random.default_rng(0)
    field = ScalarField(grid, rng.standard_normal(grid.shape), 0.25)
    save_field(field, 0.5, tmp_path / "f.nldd")
    loaded, s = load_field(tmp_path / "f.nldd")
    save_field(loaded, s, tmp_path / "g.nldd")
    same_bytes = (tmp_path / "f.nldd").read_bytes() == (
        tmp_path / "g.nldd"
    ).read_bytes()
    roundtrip = np.array_equal(loaded.values, field.values) and same_bytes
    ok = same_csv and roundtrip
    report(
        "11 determinism and persistence",
        ok,
        f"identical (config, seed) -> byte-identical CSV: {same_csv}; "
        f"snapshot roundtrip bitwise exact: {roundtrip}",
    )
