"""The suite's own pytest settings: a failing test is reported as one failure,
and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    assert True
"""


def test_a_failing_hypothesis_test_leaves_the_rest_running(tmp_path):
    # on a failure Hypothesis imports its source-patching helpers, whose
    # imports warn; under the suite's filterwarnings = error that warning
    # used to end the session as an INTERNALERROR after the first failure
    (tmp_path / "test_module.py").write_text(MODULE)
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_module.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
