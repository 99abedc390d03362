"""Golden outputs: each case of tests/golden/regen.py, run now, against the
output stored when the golden set was made.

Where the numpy version and the SIMD extensions numpy found match those in
meta.json, the output must match byte for byte.  Elsewhere every number must
match to 1e-12 relative, since numpy's transcendental ufuncs (exp, cos, ...)
may round differently, by an ulp, on another SIMD path: a number printed in
text may also differ by one unit in its last printed digit, and a snapshot's
samples by 1e-12 of its largest.

A change that means to move an output reruns tests/golden/regen.py and says
in CHANGES.md what moved and why.
"""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nldd.snapshots import load_field, load_kernel_estimate

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RTOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
SAME_MACHINE = json.loads((GOLDEN / "meta.json").read_text()) == regen.machine()


def _last_place(token: str) -> float:
    """The value of one unit in the last digit of a printed number."""
    mantissa, _, exponent = token.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _assert_text_close(got: str, want: str) -> None:
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "the text has a different shape"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:  # the text between numbers
            assert g == w
        else:
            # with a few units of roundoff in the difference of two floats
            tol = max(RTOL * abs(float(w)), _last_place(w)) + 4 * np.spacing(float(w))
            assert abs(float(g) - float(w)) <= tol, f"{g} != {w}"


def _assert_fields_close(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.grid == w.grid and g.time == w.time
        np.testing.assert_allclose(
            g.values, w.values, rtol=RTOL, atol=RTOL * np.abs(w.values).max()
        )


def _assert_close(name: str, got: Path, want: Path) -> None:
    if name.endswith(".nldd") and name.startswith("heatkernel"):
        g, w = load_kernel_estimate(got), load_kernel_estimate(want)
        assert (g.eta, g.y) == (w.eta, w.y)
        np.testing.assert_array_equal(g.times, w.times)
        _assert_fields_close(g.fields, w.fields)
    elif name.endswith(".nldd"):
        (g, gs), (w, ws) = load_field(got), load_field(want)
        assert gs == ws
        _assert_fields_close([g], [w])
    else:
        _assert_text_close(got.read_text(), want.read_text())


@pytest.mark.parametrize("name", list(regen.CASES))
def test_golden_output(name, tmp_path):
    got = regen.run_case(name, tmp_path)
    path = tmp_path / name
    path.write_bytes(got)
    _assert_close(name, path, GOLDEN / name)
    if SAME_MACHINE:
        assert got == (GOLDEN / name).read_bytes()


def test_text_comparison_allows_only_the_last_printed_digit():
    _assert_text_close("a,0.123456789013,x", "a,0.123456789012,x")
    _assert_text_close("1.00000000001e-05", "1.00000000002e-05")
    for got in ("a,0.123456789014,x", "b,0.123456789012,x", "a,0.123456789012"):
        with pytest.raises(AssertionError):
            _assert_text_close(got, "a,0.123456789012,x")


def test_extras_campaign_solves_each_problem_once(monkeypatch, tmp_path):
    # excess (measure scales 0 and 1), Hölder (0), Lorentz (1) and comparison
    # (1/2, 1 and 2 at stride 1, which the config already has): 4 problems
    from nldd import evolution

    scales, real = [], evolution._run

    def counted(u0, b, mu, config):
        scales.append(float(np.abs(mu.atom_masses).sum()))
        return real(u0, b, mu, config)

    monkeypatch.setattr(evolution, "_run", counted)
    regen.run_case("verify-shear-atom-density-extras.json", tmp_path)
    assert sorted(scales) == [0.0, 0.25, 0.5, 1.0]
