"""nldd benchmark: four workloads, each an operation of the nldd harness run
in a closed loop from one process, with the outputs of every operation
checked.

    python3 bench/run.py --workload verify-straight --seed 11 --seconds 20 --trace 0

Workloads (inputs are described in bench/README.md):

- verify-straight  ``nldd verify`` with the potential check; tail-bound.
- verify-slanted   ``verify_bmo_slanted`` with a lacunary drift; slant-ODE-bound.
- evolve           ``nldd sqg`` then ``nldd solve`` at n = 256; solver-step-bound.
- heatkernel       ``nldd heatkernel`` with a shear drift; semigroup-check-bound.

Load: one operation in flight, the next sent when the previous one returns.
The benchmark starts no threads.  Operation i of a run uses the config seed
``--seed + 1000 i``, so one run covers several inputs and ``--seed`` alone
fixes them all.  A run starts operations until the next one would end past
``--seconds`` (always at least one).

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median of
SETUP_SAMPLES fresh interpreters, each timed from spawn until the workload's
first operation is ready (imports, config load, object construction); the
samples are taken one before each operation, so they spread over the run.

``--trace 1`` makes one untraced and two traced operations on the run seed,
whatever ``--seconds`` says, then runs the layer probes (bench/probes.py)
and reports the per-layer metrics (bench/layers.py).  The two traced
operations must give identical work counts.

Every operation is checked: invariants on every seed, and on the reference
seed the outputs are compared with bench/reference.json, which
``--write-reference`` regenerates.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; spans, samples and a run
record go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_FILE = BENCH / "reference.json"

REFERENCE_SEED = 11
OP_SEED_STRIDE = 1000
SETUP_SAMPLES = 5
# Outputs the program writes with 12 or more significant digits agree with the
# reference to REFERENCE_RTOL; values parsed from 4-digit console output to
# PRINTED_RTOL.  Absolute floor for values that are zero.
REFERENCE_RTOL = 1e-9
PRINTED_RTOL = 1e-3
ABS_TOL = 1e-12
MASS_TOL = 1e-4  # kernel_sanity's default mass tolerance
SEMIGROUP_TOL = 0.02  # kernel_sanity's default semigroup tolerance
# Finite ceilings keep every CSV column finite; fitted constants sit near 0.2.
CEILING = 10.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class CheckError(Exception):
    """An operation's output failed a check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ---------------------------------------------------------------- workloads

GRID32 = {"d": 2, "n": 32, "domain_length": 8.0}
GRID64 = {"d": 2, "n": 64, "domain_length": 8.0}
KERNEL = {"s": 0.5}
RANDOM_DATA = {"kind": "random", "amplitude": 1.0, "decay": 2.5}
ATOM = {"atoms": [{"t": 0.3, "x": [4.0, 4.0], "mass": 0.5}]}
SHEAR = {"family": "shear", "amplitude": 1.0}


class Workload:
    name = ""
    seeded = True  # False: the inputs do not depend on the seed
    printed_keys: tuple[str, ...] = ()

    def configs(self, seed: int) -> dict[str, dict]:
        raise NotImplementedError

    def run(self, ws: Path, seed: int):
        """The timed operation; returns what observe() needs."""
        raise NotImplementedError

    def observe(self, ws: Path, raw, stdout: str) -> tuple[dict, dict]:
        """Check invariants; return (values compared with the reference,
        extra information such as the CSV body)."""
        raise NotImplementedError


def _cli(*argv) -> int:
    from nldd.cli import main

    return main([str(a) for a in argv])


class VerifyStraight(Workload):
    """At n = 32 and L = 8 every placement radius is L/8 (the lower end
    max(4 h, L/32) meets the upper end), so the tail work per operation does
    not depend on the seed; at n = 64 it varies by about 11% between seeds."""

    name = "verify-straight"

    def configs(self, seed):
        return {
            "verify": {
                "grid": GRID32, "kernel": KERNEL, "initial": RANDOM_DATA, "drift": SHEAR,
                "measure": ATOM, "solver": {"dt": 0.02, "t_end": 1.0},
                "verification": {
                    "selection": ["potential"], "ceilings": {"potential-estimate": CEILING},
                },
                "seed": seed,
            }
        }

    def run(self, ws, seed):
        return _cli("verify", "--config", ws / "verify.yaml", "--out", ws / "verify-out", "--seed", seed)

    def observe(self, ws, rc, stdout):
        from nldd.verify import NUM_PLACEMENTS

        require(rc == 0, f"nldd verify exited with {rc}")
        body = (ws / "verify-out" / "report.csv").read_text()
        rows = list(csv.reader(io.StringIO(body)))[1:]
        require(len(rows) > 0, "report.csv has no rows")
        numeric = []
        for i, r in enumerate(rows):
            vals = [float(r[1]), float(r[2]), *(float(c) for c in r[3].split(";")), *map(float, r[4:11])]
            require(_finite(vals), f"report.csv row {i} has a non-finite value: {r}")
            require(r[11] == "1", f"report.csv row {i} fails its ceiling: {r}")
            numeric.append(vals)
        placements = {tuple(r[2:5]) for r in rows}
        info = {"csv": body, "admitted_ratio": len(placements) / NUM_PLACEMENTS}
        return {"rows": numeric}, info


class VerifySlanted(Workload):
    name = "verify-slanted"
    PLACEMENTS = 1  # each placement costs 641 slant solves; the CLI default of 4 is too long to repeat

    def configs(self, seed):
        return {
            "slanted": {
                "grid": GRID64, "kernel": KERNEL, "initial": RANDOM_DATA,
                "drift": {"family": "lacunary", "coefficients": [0.3] * 5},
                "measure": ATOM, "solver": {"dt": 0.02, "t_end": 1.0},
                "verification": {"ceilings": {"bmo-slanted": CEILING}},
                "seed": seed,
            }
        }

    def run(self, ws, seed):
        from nldd.config import load_config
        from nldd.verify import verify_bmo_slanted

        cfg = load_config(ws / "slanted.yaml")
        cfg.raw["seed"] = seed
        return verify_bmo_slanted(cfg, num_placements=self.PLACEMENTS, salt=6)

    def observe(self, ws, report, stdout):
        require(len(report.rows) > 0, "slanted report has no rows")
        lhs = [r.lhs for r in report.rows]
        rhs = [r.rhs for r in report.rows]
        residual = report.extras["path_residual"]
        require(_finite(lhs + rhs + [residual]), f"non-finite slanted values {lhs} {rhs} {residual}")
        require(report.passed, f"slanted rows fail the ceiling: fitted {report.fitted_constant}")
        placements = {(r.t0, r.x0, r.radius) for r in report.rows}
        return {"lhs": lhs, "rhs": rhs, "path_residual": residual}, {"admitted_ratio": len(placements) / self.PLACEMENTS}


class Evolve(Workload):
    name = "evolve"
    DT, T_END, STRIDE = 4e-3, 0.32, 20

    def configs(self, seed):
        common = {
            "grid": {"d": 2, "n": 256, "domain_length": 8.0}, "kernel": KERNEL, "initial": RANDOM_DATA,
            "solver": {"dt": self.DT, "t_end": self.T_END, "snapshot_stride": self.STRIDE},
            "seed": seed,
        }
        return {"sqg": common, "solve": dict(common, drift=SHEAR, measure=ATOM)}

    def run(self, ws, seed):
        return [
            _cli(cmd, "--config", ws / f"{cmd}.yaml", "--out", ws / f"{cmd}-out", "--seed", seed)
            for cmd in ("sqg", "solve")
        ]

    def observe(self, ws, rcs, stdout):
        from nldd.fields import l2_norm
        from nldd.snapshots import load_field, load_trajectory

        require(rcs == [0, 0], f"nldd sqg / solve exited with {rcs}")
        expected_count = round(self.T_END / self.DT) // self.STRIDE + 1
        # random data has zero mean; the atom adds its mass over the torus volume
        expected_mean = {"sqg": 0.0, "solve": 0.5 / 8.0**2}
        values = {}
        for cmd in ("sqg", "solve"):
            final, _ = load_field(ws / f"{cmd}-out" / "final.nldd")
            traj, _ = load_trajectory(ws / f"{cmd}-out" / "trajectory.nldd")
            mean, l2 = float(final.values.mean()), float(l2_norm(final))
            require(_finite([mean, l2]), f"{cmd}: non-finite final mean {mean} or L2 {l2}")
            require(
                abs(mean - expected_mean[cmd]) <= 1e-9,
                f"{cmd}: final mean {mean!r} breaks the mass budget {expected_mean[cmd]!r}",
            )
            require(len(traj.times) == expected_count, f"{cmd}: {len(traj.times)} snapshots, expected {expected_count}")
            values.update({f"{cmd}.mean": mean, f"{cmd}.l2": l2, f"{cmd}.snapshots": len(traj.times)})
        return values, {}


class HeatKernel(Workload):
    name = "heatkernel"
    seeded = False
    printed_keys = ("semigroup_l1_error",)

    def configs(self, seed):
        return {
            "heatkernel": {
                "grid": {"d": 2, "n": 32, "domain_length": 8.0}, "kernel": KERNEL, "drift": SHEAR,
                "solver": {"dt": 0.02},
                "heatkernel": {"times": [1.0, 1.5, 2.0], "h_moll": 0.25},
                "seed": seed,
            }
        }

    def run(self, ws, seed):
        return _cli("heatkernel", "--config", ws / "heatkernel.yaml", "--out", ws / "heatkernel-out", "--seed", seed)

    def observe(self, ws, rc, stdout):
        from nldd.snapshots import load_kernel_estimate

        require(rc == 0, f"nldd heatkernel exited with {rc}")
        match = re.search(r"semigroup L1 error: (\S+)", stdout)
        require(match is not None, "no semigroup L1 error in the heatkernel output")
        error = float(match.group(1))
        est = load_kernel_estimate(ws / "heatkernel-out" / "kernel.nldd")
        masses = [est.mass(i) for i in range(len(est.fields))]
        require(_finite(masses + [error]), f"non-finite masses {masses} or semigroup error {error}")
        require(all(abs(m - 1.0) <= MASS_TOL for m in masses), f"masses {masses} not within {MASS_TOL} of 1")
        require(error <= SEMIGROUP_TOL, f"semigroup L1 error {error} above {SEMIGROUP_TOL}")
        return {"masses": masses, "semigroup_l1_error": error}, {}


WORKLOADS = {w.name: w for w in (VerifyStraight(), VerifySlanted(), Evolve(), HeatKernel())}


# ---------------------------------------------------------------- operations


@dataclass
class Attempt:
    ok: bool
    wall: float
    cpu: float
    values: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def compare_reference(wl: Workload, values: dict, reference: dict) -> None:
    for key, ref in reference.items():
        require(key in values, f"output {key!r} missing")
        obs = values[key]
        flat_obs, flat_ref = _flatten(obs), _flatten(ref)
        require(len(flat_obs) == len(flat_ref), f"{key}: {len(flat_obs)} values, reference has {len(flat_ref)}")
        rtol = PRINTED_RTOL if key in wl.printed_keys else REFERENCE_RTOL
        for i, (a, b) in enumerate(zip(flat_obs, flat_ref)):
            require(
                abs(a - b) <= rtol * max(abs(a), abs(b)) + ABS_TOL,
                f"{key}[{i}] = {a!r} differs from the reference {b!r} by more than rtol {rtol:g}",
            )


def _flatten(x) -> list[float]:
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flatten(item)]
    return [float(x)]


def attempt(wl: Workload, ws: Path, seed: int, reference: dict | None, tracer=None, op_id: int = 0) -> Attempt:
    """Run one operation, time it, and check its outputs (untimed)."""
    stdout = io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout):
            raw = tracer.run_op(op_id, wl.run, ws, seed) if tracer else wl.run(ws, seed)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    values, info = {}, {}
    if error is None:
        try:
            values, info = wl.observe(ws, raw, stdout.getvalue())
            if reference is not None and (seed == REFERENCE_SEED or not wl.seeded):
                compare_reference(wl, values, reference)
        except CheckError as exc:
            error = f"check failed: {exc}"
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"[{wl.name} seed {seed}] operation FAILED: {error}", file=sys.stderr)
    return Attempt(error is None, wall, cpu, values, info)


def write_configs(wl: Workload, ws: Path, seed: int) -> None:
    ws.mkdir(parents=True, exist_ok=True)
    for stem, cfg in wl.configs(seed).items():
        # JSON is valid YAML, so nldd's YAML loader reads these files as written
        (ws / f"{stem}.yaml").write_text(json.dumps(cfg, indent=1))


def set_up(wl: Workload, ws: Path) -> None:
    """Imports, config load and object construction before the first operation."""
    import nldd.cli  # noqa: F401  (imports every nldd module)
    import nldd.verify  # noqa: F401
    from nldd.config import load_config

    for stem in wl.configs(0):
        cfg = load_config(ws / f"{stem}.yaml")
        grid = cfg.build_grid()
        cfg.build_kernel()
        cfg.build_drift(grid)
        cfg.build_initial(grid)
        cfg.build_measure(grid)


def setup_seconds(args) -> float:
    """Spawn-to-ready time of a fresh interpreter running set_up()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up process failed (exit {rc}, said {line!r})")
    return elapsed


# ---------------------------------------------------------------- statistics and record


def summary(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_record(args) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "nldd").rglob("*.py"))),
    }


# ---------------------------------------------------------------- runs


def timed_run(wl: Workload, ws: Path, args, reference: dict | None) -> tuple[dict, dict]:
    set_up(wl, ws)
    setup: list[float] = []
    attempts: list[Attempt] = []
    seeds: list[int] = []
    start = time.perf_counter()
    while True:
        # set-up samples are spread over the run, one before each operation
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(args))
        seeds.append(args.seed + OP_SEED_STRIDE * len(attempts))
        attempts.append(attempt(wl, ws, seeds[-1], reference))
        if time.perf_counter() - start + attempts[-1].wall > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(args))
    walls = [a.wall for a in attempts]
    cpus = [a.cpu for a in attempts]
    checks = list(attempts)
    if "csv" in attempts[0].info:
        # same inputs again, untimed: the CSV body must be byte-identical
        again = attempt(wl, ws, seeds[0], reference)
        if again.ok and again.info["csv"] != attempts[0].info["csv"]:
            print(f"[{wl.name} seed {seeds[0]}] repeated CSV body differs", file=sys.stderr)
            again.ok = False
        checks.append(again)
    failed = sum(not a.ok for a in checks)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (len(checks) - failed) / len(checks),
    }
    detail = {
        "op_seeds": seeds, "wall_s": summary(walls), "cpu_s": summary(cpus), "setup_s": summary(setup),
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup},
    }
    result = {
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return result, detail


def traced_run(wl: Workload, ws: Path, args, reference: dict | None) -> tuple[dict, dict]:
    import layers
    from probes import run_probes
    from tracing import Tracer

    set_up(wl, ws)
    base = attempt(wl, ws, args.seed, reference)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = [attempt(wl, ws, args.seed, reference, tracer, op_id) for op_id in (0, 1)]
    finally:
        tracer.uninstall()
    checks = [base, *traced]
    per_op = []
    for op_id, a in enumerate(traced):
        m = layers.op_metrics(tracer, op_id)
        m["verify.placements_admitted_ratio"] = a.info.get("admitted_ratio", 0.0)
        per_op.append(m)
    mismatched = {k: (per_op[0][k], per_op[1][k]) for k in layers.COUNT_METRICS if per_op[0][k] != per_op[1][k]}
    if mismatched:
        print(f"[{wl.name}] WORK COUNTS DIFFER between two traced operations on the same inputs: {mismatched}",
              file=sys.stderr)
    csvs = [a.info["csv"] for a in checks if "csv" in a.info]
    identical = sum(body == csvs[0] for body in csvs[1:])
    if identical != max(len(csvs) - 1, 0):
        print(f"[{wl.name}] repeated CSV bodies differ", file=sys.stderr)
    metrics = {k: statistics.mean(m[k] for m in per_op) for k in per_op[0]}
    metrics.update({k: per_op[0][k] for k in layers.COUNT_METRICS})
    metrics["reports.csv_identical"] = identical
    metrics["trace.overhead_s"] = statistics.mean(a.wall for a in traced) - base.wall
    metrics.update(run_probes(args.seed))
    tracer.save(ws / "spans.npz")
    failed = sum(not a.ok for a in checks) + bool(mismatched) + (identical != max(len(csvs) - 1, 0))
    units = dict(layers.PER_LAYER)
    result = {
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {"untraced_wall_s": base.wall, "traced_wall_s": [a.wall for a in traced],
              "count_mismatches": mismatched, "spans": len(tracer.starts)}
    return result, detail


def write_reference() -> int:
    reference = {}
    for wl in WORKLOADS.values():
        ws = OUT / f"reference-{wl.name}"
        write_configs(wl, ws, REFERENCE_SEED)
        set_up(wl, ws)
        a = attempt(wl, ws, REFERENCE_SEED, None)
        if not a.ok:
            return 1
        reference[wl.name] = a.values
        print(f"{wl.name}: {a.wall:.2f} s", flush=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate bench/reference.json at the reference seed")
    args = p.parse_args(argv)
    if not (SRC / "nldd" / "__init__.py").is_file():
        print(f"no nldd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    ws = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        set_up(wl, ws)
        print("ready", flush=True)
        return 0

    import nldd

    if Path(nldd.__file__).resolve().parent != SRC / "nldd":
        print(f"imported nldd from {nldd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE_FILE.read_text())[wl.name]
    write_configs(wl, ws, args.seed)
    run = traced_run if args.trace else timed_run
    result, detail = run(wl, ws, args, reference)
    record = run_record(args)
    (ws / "result.json").write_text(json.dumps({"record": record, "detail": detail, "result": result}, indent=1))
    for key in ("wall_s", "cpu_s", "setup_s"):
        if key in detail:
            s = detail[key]
            print(f"{wl.name} {key}: median {s['median']:.4f} s, quartiles {s['q1']:.4f}..{s['q3']:.4f} s, n = {s['n']}")
    print(f"run record: {json.dumps(record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
