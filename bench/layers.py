"""The layers the traced run measures, and the per-layer metrics derived
from their spans and counts.

Span names are ``<module>.<function>`` of the nldd package; the numpy n-d
FFTs share the span name ``fft``.  ``LAYER_STATS`` lists which of calls,
self seconds and total seconds each span publishes per operation.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from tracing import Tracer

__all__ = ["install", "PER_LAYER", "COUNT_METRICS", "op_metrics"]

LAYER_STATS = {
    "potentials.tail": ("calls", "self_s", "total_s"),
    "potentials.tail_time_lq": ("calls", "self_s", "total_s"),
    "potentials.interpolate_periodic": ("calls", "self_s"),
    "potentials.slant_ode": ("calls", "self_s", "total_s"),
    "potentials.riesz_potential_slanted": ("calls", "total_s"),
    "measures.slanted_cylinder_mass": ("calls", "self_s", "total_s"),
    "potentials.riesz_potential": ("calls", "self_s", "total_s"),
    "measures.cylinder_mass": ("calls", "self_s", "total_s"),
    "verify.cylinder_lq_mean": ("calls", "self_s", "total_s"),
    "potentials.ball_mask": ("calls", "self_s", "total_s"),
    "verify.run_experiment": ("total_s",),
    "evolution.solve": ("total_s",),
    "evolution.solve_sqg": ("total_s",),
    "evolution.measure_forcing": ("calls", "self_s", "total_s"),
    "operators.biot_savart_sqg": ("calls", "self_s", "total_s"),
    "fields.divergence_checks": ("calls", "self_s"),
    "fft": ("calls", "self_s"),
    "heatkernel.estimate_kernel": ("total_s",),
    "heatkernel.kernel_sanity": ("total_s",),
    "snapshots.save_trajectory": ("self_s",),
    "config.load_config": ("self_s",),
    "reports.write_csv": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

# Work counts and waste ratios, per operation.  Each must repeat exactly
# between two traced operations on the same inputs.
DERIVED_COUNTS = [
    ("potentials.interpolate_periodic.points", "count"),
    ("potentials.tail.repeat_ratio", "ratio"),
    ("evolution.steps", "count"),
    ("fields.divergence_checks.per_field", "ratio"),
    ("fft.points", "count"),
    ("fft.flops_computed", "flop"),
    ("fft.bytes_computed", "B"),
    ("snapshots.bytes_written", "B"),
    ("verify.placements_admitted_ratio", "ratio"),
]
DERIVED_OTHER = [
    ("evolution.step_ms", "ms"),
    ("reports.csv_identical", "count"),
    ("trace.overhead_s", "s"),
]
PROBES = [
    *(
        (f"probe.etd_step.{mode}.n{n}", "ms")
        for mode in ("none", "given", "sqg")
        for n in (64, 128, 256)
    ),
    ("probe.truncated_multiplier_table.n64", "s"),
    ("probe.excess.n128", "s"),
]

PER_LAYER = [
    *((f"{layer}.{stat}", STAT_UNITS[stat]) for layer, stats in LAYER_STATS.items() for stat in stats),
    *DERIVED_COUNTS,
    *DERIVED_OTHER,
    *PROBES,
]
COUNT_METRICS = [
    *(f"{layer}.calls" for layer, stats in LAYER_STATS.items() if "calls" in stats),
    *(name for name, _ in DERIVED_COUNTS),
]


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _fft_hook(real: bool):
    def hook(tr: Tracer, args, kwargs, result):
        a = np.asarray(_arg(args, kwargs, 0, "a"))
        n = max(a.size, result.size)  # real-space points of the transform
        tr.add("fft.points", n)
        tr.add("fft.flops_computed", (2.5 if real else 5.0) * n * math.log2(max(n, 2)))
        tr.add("fft.bytes_computed", a.nbytes + result.nbytes)

    return hook


def _interp_hook(tr: Tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    tr.add("potentials.interpolate_periodic.points", np.size(_arg(args, kwargs, 2, "points")) // grid.d)


def _tail_hook(tr: Tracer, args, kwargs, result):
    v = _arg(args, kwargs, 0, "v")
    x0 = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "x0"), dtype=float))
    tr.distinct("potentials.tail", (float(v.time), tuple(x0.round(12)), float(_arg(args, kwargs, 2, "r"))))


def _divergence_hook(tr: Tracer, args, kwargs, result):
    h = hashlib.blake2b(digest_size=16)
    for c in args[0].components:
        h.update(np.ascontiguousarray(c.values).data)
    tr.distinct("fields.divergence_checks", h.digest())


def _bytes_hook(tr: Tracer, args, kwargs, result):
    tr.add("snapshots.bytes_written", os.path.getsize(kwargs.get("path", args[-1])))


def _riesz_name(args, kwargs):
    slant = args[5] if len(args) > 5 else kwargs.get("slant")
    return "potentials.riesz_potential" if slant is None else "potentials.riesz_potential_slanted"


def install(tr: Tracer) -> None:
    """Wrap every traced layer; undo with tr.uninstall()."""
    import numpy.fft

    from nldd import config, evolution, fields, heatkernel, measures, operators, potentials
    from nldd import reports, snapshots, verify

    for attr, real in (("fftn", False), ("ifftn", False), ("rfftn", True), ("irfftn", True)):
        tr.install_function(numpy.fft, attr, "fft", _fft_hook(real))
    tr.install_function(potentials, "tail", "potentials.tail", _tail_hook)
    tr.install_function(potentials, "interpolate_periodic", "potentials.interpolate_periodic", _interp_hook)
    tr.install_function(potentials, "riesz_potential", _riesz_name)
    for module, attr in (
        (potentials, "tail_time_lq"),
        (potentials, "slant_ode"),
        (potentials, "ball_mask"),
        (measures, "cylinder_mass"),
        (measures, "slanted_cylinder_mass"),
        (verify, "cylinder_lq_mean"),
        (verify, "run_experiment"),
        (evolution, "solve"),
        (evolution, "solve_sqg"),
        (evolution, "measure_forcing"),
        (operators, "biot_savart_sqg"),
        (heatkernel, "estimate_kernel"),
        (heatkernel, "kernel_sanity"),
        (config, "load_config"),
        (reports, "write_csv"),
    ):
        tr.install_function(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    for attr in ("save_trajectory", "save_field", "save_kernel_estimate"):
        tr.install_function(snapshots, attr, f"snapshots.{attr}", _bytes_hook)
    tr.install_method(evolution._Stepper, "step", "evolution.step")
    tr.install_method(
        fields.VectorField, "spectral_divergence_max", "fields.divergence_checks", _divergence_hook
    )


def op_metrics(tr: Tracer, op_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation (spans and counts only)."""
    stats = tr.layer_stats(op_id)
    out: dict[str, float] = {}
    for layer, wanted in LAYER_STATS.items():
        calls, own, total = stats.get(layer, (0, 0.0, 0.0))
        values = {"calls": calls, "self_s": own, "total_s": total}
        for stat in wanted:
            out[f"{layer}.{stat}"] = values[stat]
    counts = tr.counts[op_id]
    keys = tr.keys[op_id]
    for name in (
        "potentials.interpolate_periodic.points",
        "fft.points",
        "fft.flops_computed",
        "fft.bytes_computed",
        "snapshots.bytes_written",
    ):
        out[name] = counts.get(name, 0.0)
    tail_calls = out["potentials.tail.calls"]
    distinct = len(keys["potentials.tail"])
    out["potentials.tail.repeat_ratio"] = tail_calls / distinct if distinct else 0.0
    checks = out["fields.divergence_checks.calls"]
    fields_seen = len(keys["fields.divergence_checks"])
    out["fields.divergence_checks.per_field"] = checks / fields_seen if fields_seen else 0.0
    steps, _, step_total = stats.get("evolution.step", (0, 0.0, 0.0))
    out["evolution.steps"] = steps
    out["evolution.step_ms"] = 1e3 * step_total / steps if steps else 0.0
    return out
