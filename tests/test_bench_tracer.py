"""The benchmark's traced run (bench/run.py --trace 1) wraps nldd functions
by name and runs the layer probes, which build nldd objects with keyword
fields, and every workload runs configs that the config schema must accept;
a rename that drops one of them, or a stricter config reader, must fail
here, not in the bench."""

import importlib
import math
import sys
from pathlib import Path

import pytest

import numpy.fft

import nldd.measures
import nldd.potentials
import nldd.verify
from nldd.config import load_config

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


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "probes", raising=False)
    return importlib.import_module("probes")


@pytest.mark.parametrize("mode", ["none", "given", "sqg"])
def test_etd_step_probe_runs(probes, mode):
    ms = probes.etd_step_ms(64, mode, 11)
    assert math.isfinite(ms) and ms > 0.0


def test_multiplier_and_excess_probes_run(probes):
    for seconds in (probes.multiplier_table_s(), probes.excess_s(11)):
        assert math.isfinite(seconds) and seconds > 0.0


def test_workload_configs_load_and_build(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "run", raising=False)
    run = importlib.import_module("run")
    for wl in run.WORKLOADS.values():
        ws = tmp_path / wl.name
        run.write_configs(wl, ws, run.REFERENCE_SEED)  # as JSON
        run.set_up(wl, ws)  # load_config and build grid, kernel, drift, initial and measure
        for stem in wl.configs(run.REFERENCE_SEED):
            cfg = load_config(ws / f"{stem}.yaml")
            assert cfg.seed == run.REFERENCE_SEED
            for name in cfg.raw.keys() - {"seed"}:
                cfg.section(name)
