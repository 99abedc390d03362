"""Verification reports: per-inequality LHS/RHS decompositions, fitted
constants, and the deterministic CSV serialization used by the campaign
runner.

Timestamps never enter the CSV body; they live in a JSON sidecar so that
identical (config, seed) runs produce byte-identical report bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ReportRow", "VerificationReport", "fitted_constant", "write_csv", "report_to_rows"]

CSV_COLUMNS = [
    "inequality_id",
    "q",
    "t0",
    "x0_coords",
    "radius",
    "lhs",
    "rhs_term_1",
    "rhs_term_2",
    "rhs_term_3",
    "fitted_constant",
    "ceiling",
    "pass",
]


def fitted_constant(lhs: float, rhs: float) -> float:
    """inf{c : lhs <= c * rhs}; 0 when lhs <= 0, +inf when rhs = 0 < lhs."""
    if lhs <= 0.0:
        return 0.0
    if rhs <= 0.0:
        return np.inf
    return lhs / rhs


@dataclass
class ReportRow:
    q: float
    t0: float
    x0: tuple[float, ...]
    radius: float
    lhs: float
    rhs_terms: tuple[float, float, float]

    @property
    def rhs(self) -> float:
        return float(sum(self.rhs_terms))

    @property
    def fitted(self) -> float:
        return fitted_constant(self.lhs, self.rhs)


@dataclass
class VerificationReport:
    """The rows of one inequality, each of which passes when its fitted
    constant is at most the report's one ceiling (a NaN constant fails)."""

    inequality_id: str
    rows: list[ReportRow] = field(default_factory=list)
    ceiling: float = np.inf
    extras: dict = field(default_factory=dict)

    @property
    def fitted_constant(self) -> float:
        finite = [r.fitted for r in self.rows]
        return max(finite) if finite else 0.0

    @property
    def passed(self) -> bool:
        return all(r.fitted <= self.ceiling for r in self.rows)

    def add(self, q, t0, x0, radius, lhs, rhs_terms) -> ReportRow:
        terms = tuple(float(t) for t in rhs_terms) + (0.0,) * (3 - len(rhs_terms))
        row = ReportRow(
            q=float(q),
            t0=float(t0),
            x0=tuple(float(c) for c in np.atleast_1d(x0)),
            radius=float(radius),
            lhs=float(lhs),
            rhs_terms=terms[:3],
        )
        self.rows.append(row)
        return row


def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf"
    return format(float(x), ".12g")


def report_to_rows(report: VerificationReport) -> list[list[str]]:
    out = []
    for r in report.rows:
        out.append(
            [
                report.inequality_id,
                _fmt(r.q),
                _fmt(r.t0),
                ";".join(_fmt(c) for c in r.x0),
                _fmt(r.radius),
                _fmt(r.lhs),
                _fmt(r.rhs_terms[0]),
                _fmt(r.rhs_terms[1]),
                _fmt(r.rhs_terms[2]),
                _fmt(r.fitted),
                _fmt(report.ceiling),
                "1" if r.fitted <= report.ceiling else "0",
            ]
        )
    return out


def write_csv(reports: list[VerificationReport], path) -> str:
    """Write the campaign CSV; returns the body that was written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report_to_rows(report):
            writer.writerow(row)
    body = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(body)
    return body


def content_id(obj) -> str:
    """Deterministic content hash of a JSON-serializable object."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
