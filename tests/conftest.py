"""Checks that hold for every test."""

import json

import pytest


def _refuse(constant: str):
    raise ValueError(f"report.json holds {constant}, which is not strict JSON (RFC 8259)")


@pytest.fixture(autouse=True)
def strict_sidecars(request):
    """After a test that has a tmp_path, parse every report.json a campaign
    wrote under it as strict JSON: no NaN, Infinity or -Infinity."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    for path in sorted(tmp_path.rglob("report.json")):
        json.loads(path.read_text(), parse_constant=_refuse)
