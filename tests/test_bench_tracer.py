"""The benchmark's traced run (bench/run.py --trace 1) wraps nldd functions
by name; a rename that drops one of them must fail here, not in the bench."""

import importlib
import sys
from pathlib import Path

import numpy.fft

import nldd.measures
import nldd.potentials
import nldd.verify

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    originals = {
        (module, name): getattr(module, name)
        for module, name in (
            (nldd.measures, "cylinder_mass"),
            (nldd.measures, "slanted_cylinder_mass"),
            (nldd.potentials, "tail_time_lq"),
            (nldd.potentials, "ball_mask"),
            (nldd.verify, "cylinder_lq_mean"),
            (numpy.fft, "rfftn"),
        )
    }
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, name
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name
