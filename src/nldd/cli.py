"""Command-line surface.

Subcommands: solve, sqg, potential, heatkernel, verify, snapshot.  Every
run-producing subcommand takes --config (YAML schema in config.py), an
optional --seed override, and --out for artifacts.  A config that fails
validation prints its field path and message on one stderr line and exits 2;
a snapshot file that cannot be read or parsed prints one stderr line and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .config import HEATKERNEL_FIELDS, ConfigError, config_fields, grid_point, load_config
from .fields import ScalarField, l2_norm
from .heatkernel import estimate_kernel, kernel_sanity, upper_bound_check
from .potentials import TailOptions, riesz_potential, tail
from .snapshots import (
    SnapshotFormatError,
    load_field,
    load_kernel_estimate,
    load_trajectory,
    save_field,
    save_kernel_estimate,
    save_trajectory,
)
from .verify import run_campaign, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nldd",
        description="Drift-diffusion solver and estimate-verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_default=None):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=out_default, help="output directory")

    add_common(sub.add_parser("solve", help="run one evolution"))
    add_common(sub.add_parser("sqg", help="run the self-coupled critical mode"))
    add_common(sub.add_parser("potential", help="evaluate tail and potential at a point"))
    add_common(sub.add_parser("heatkernel", help="estimate a heat kernel, check it, fit its upper bound"))

    pv = sub.add_parser("verify", help="run the verification campaign")
    add_common(pv, out_default="reports")
    pv.add_argument("--ceiling-file", default=None, help="YAML map of inequality ceilings")

    ps = sub.add_parser("snapshot", help="inspect or roundtrip snapshot files")
    ps_sub = ps.add_subparsers(dest="snapshot_command", required=True)
    pi = ps_sub.add_parser("info", help="print a snapshot header")
    pi.add_argument("path")
    pr = ps_sub.add_parser("roundtrip", help="load a snapshot and rewrite it")
    pr.add_argument("src")
    pr.add_argument("dst")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # one parser per process: main() may be called many times in one
    return build_parser()


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.raw["seed"] = int(args.seed)
    return config


def _cmd_solve(args, force_sqg: bool = False) -> int:
    config = _load(args)
    if force_sqg:
        config.raw["drift"] = dict(config.section("drift"), family="sqg")
    exp = run_experiment(config)
    u = exp.traj.snapshots[-1]
    print(f"solved to t = {exp.traj.t_end:.6g} with {len(exp.traj.times)} snapshots")
    print(f"final mean = {u.mean():.6g}, final L2 = {l2_norm(u):.6g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_trajectory(exp.traj, exp.kernel.s, os.path.join(args.out, "trajectory.nldd"))
        save_field(u, exp.kernel.s, os.path.join(args.out, "final.nldd"))
        print(f"wrote trajectory.nldd and final.nldd to {args.out}")
    return 0


def _cmd_potential(args) -> int:
    config = _load(args)
    grid = config.build_grid()
    kernel = config.build_kernel()
    mu = config.build_measure(grid)
    if mu is None:
        print("config has no measure; nothing to integrate", file=sys.stderr)
        return 1
    params = config.params("potential")
    t0 = params.get("t0", 1.0)
    x0 = params.get("x0", [grid.domain_length / 2.0] * grid.d)
    x0 = grid_point(x0, grid, "verification.params.potential.x0")
    R = params.get("R", grid.domain_length / 8.0)
    profile = riesz_potential(mu, t0, x0, R, kernel, a=2.0 * kernel.s)
    print(f"potential P^R_2s at t0 = {t0:.6g}, R = {R:.6g}: {profile.value:.12g}")
    if profile.divergent:
        print("profile divergent: positive mass below the resolution radius")
    tail_value = None
    if mu.density is not None:
        u = mu.density.profile
        tail_value = tail(
            ScalarField(grid, u, t0), x0, R, kernel,
            TailOptions(truncation_radius=grid.domain_length / 2.0),
        )
        print(f"tail of the density slice at r = {R:.6g}: {tail_value:.12g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = {
            "t0": t0, "x0": x0.tolist(), "R": R,
            "potential": profile.value, "divergent": profile.divergent,
            "radii": profile.radii.tolist(), "masses": profile.masses.tolist(),
        }
        if tail_value is not None:
            payload["density_tail"] = tail_value
        with open(os.path.join(args.out, "potential.json"), "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
    return 0


def _cmd_heatkernel(args) -> int:
    config = _load(args)
    grid = config.build_grid()
    kernel = config.build_kernel()
    b = config.build_drift(grid)
    eta, y, times, solver = config.build_heatkernel(grid, kernel)
    with config_fields(**HEATKERNEL_FIELDS):
        est = estimate_kernel(b, eta, y, times, solver, grid)
    for i, t in enumerate(est.times):
        print(f"t = {t:.6g}: mass = {est.mass(i):.8g}, max = {est.fields[i].values.max():.6g}")
    report = kernel_sanity(est)
    ex = report.extras
    print(f"mass check: {'ok' if ex['mass_ok'] else 'FAILED'}")
    print(f"on-diagonal fitted constant: {ex['on_diag_fitted']:.6g}")
    print(
        f"semigroup L1 error: {ex['semigroup_l1_error']:.3e} "
        f"({'ok' if ex['semigroup_ok'] else 'FAILED'})"
    )
    bound = upper_bound_check(est, T=est.times[-1])
    print(f"upper-bound fitted constant: {bound.fitted_constant:.6g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_kernel_estimate(est, os.path.join(args.out, "kernel.nldd"))
        print(f"wrote kernel.nldd to {args.out}")
    return 0 if report.passed else 1


# each kind of snapshot file, by its magic: its loader, which returns the
# arguments of its saver before the path, a one-line description of those
# arguments, and its saver
_SNAPSHOT_KINDS = {
    b"NLDD": (
        load_field,
        lambda field, s: (
            f"field snapshot: d = {field.grid.d}, n = {field.grid.n}, "
            f"L = {field.grid.domain_length:.6g}, s = {s:.6g}, t = {field.time:.6g}"
        ),
        save_field,
    ),
    b"NLDT": (
        load_trajectory,
        lambda traj, s: (
            f"trajectory: {len(traj.times)} snapshots, d = {traj.grid.d}, n = {traj.grid.n}, "
            f"L = {traj.grid.domain_length:.6g}, s = {s:.6g}, "
            f"t in [{traj.t_start:.6g}, {traj.t_end:.6g}]"
        ),
        save_trajectory,
    ),
    b"NLDK": (
        lambda path: (load_kernel_estimate(path),),
        lambda est: (
            f"kernel estimate: source {tuple(round(c, 6) for c in est.y)} at "
            f"eta = {est.eta:.6g}, {len(est.fields)} times"
        ),
        save_kernel_estimate,
    ),
}


def _cmd_snapshot(args) -> int:
    info = args.snapshot_command == "info"
    path = args.path if info else args.src
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
        if magic not in _SNAPSHOT_KINDS:
            unknown = "unrecognized magic" if info else "roundtrip unsupported for magic"
            print(f"{unknown} {magic!r}", file=sys.stderr)
            return 1
        load, describe, save = _SNAPSHOT_KINDS[magic]
        loaded = load(path)
    except (OSError, SnapshotFormatError) as exc:
        print(f"nldd snapshot: {exc}", file=sys.stderr)
        return 1
    if info:
        print(describe(*loaded))
        return 0
    save(*loaded, args.dst)
    print(f"rewrote {args.src} -> {args.dst}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"nldd {args.command}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "sqg":
        return _cmd_solve(args, force_sqg=True)
    if args.command == "potential":
        return _cmd_potential(args)
    if args.command == "heatkernel":
        return _cmd_heatkernel(args)
    if args.command == "verify":
        return run_campaign(
            args.config, args.out, ceiling_file=args.ceiling_file, seed=args.seed
        )
    return _cmd_snapshot(args)


if __name__ == "__main__":
    sys.exit(main())
