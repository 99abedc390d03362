import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldd.reports import (
    CSV_COLUMNS,
    VerificationReport,
    content_id,
    fitted_constant,
    report_to_rows,
    write_csv,
)


class TestFittedConstant:
    def test_basic(self):
        assert fitted_constant(2.0, 4.0) == 0.5
        assert fitted_constant(0.0, 4.0) == 0.0
        assert fitted_constant(-1.0, 4.0) == 0.0
        assert fitted_constant(1.0, 0.0) == np.inf

    @settings(max_examples=30, deadline=None)
    @given(lhs=st.floats(1e-6, 1e6), rhs=st.floats(1e-6, 1e6))
    def test_is_tight(self, lhs, rhs):
        c = fitted_constant(lhs, rhs)
        assert lhs <= c * rhs * (1 + 1e-12)
        assert lhs >= (c * (1 - 1e-12)) * rhs


class TestReport:
    def _report(self):
        rep = VerificationReport("demo", ceiling=3.0)
        rep.add(2.0, 1.0, (0.5, 0.5), 0.25, lhs=1.0, rhs_terms=(0.5, 0.5))
        rep.add(2.0, 1.0, (0.5, 0.5), 0.5, lhs=6.0, rhs_terms=(1.0, 1.0, 1.0))
        return rep

    def test_row_padding_and_sum(self):
        rep = self._report()
        assert rep.rows[0].rhs_terms == (0.5, 0.5, 0.0)
        assert rep.rows[0].rhs == 1.0
        assert rep.rows[0].fitted == 1.0

    def test_pass_logic(self):
        # every row is judged against the report's one ceiling
        rep = self._report()
        assert rep.fitted_constant == 2.0
        assert rep.passed  # 6/3 = 2 <= 3
        assert [cells[10:] for cells in report_to_rows(rep)] == [["3", "1"], ["3", "1"]]
        rep.ceiling = 1.5
        assert not rep.passed
        assert [cells[10:] for cells in report_to_rows(rep)] == [["1.5", "1"], ["1.5", "0"]]

    def test_nan_row_fails(self):
        rep = VerificationReport("demo")
        rep.add(2.0, 1.0, (0.5, 0.5), 0.25, lhs=np.nan, rhs_terms=(1.0,))
        assert not rep.passed
        assert report_to_rows(rep)[0][9:] == ["nan", "inf", "0"]

    def test_rhs_resum_consistency(self):
        # the serialized terms re-sum to the rhs used for the fit
        rep = self._report()
        for row, cells in zip(rep.rows, report_to_rows(rep)):
            terms = [float(cells[i]) for i in (6, 7, 8)]
            assert abs(sum(terms) - row.rhs) <= 1e-12 * max(1.0, abs(row.rhs))
            assert float(cells[9]) == pytest.approx(row.fitted, rel=1e-11)


class TestCsv:
    def test_columns_and_values(self, tmp_path):
        rep = VerificationReport("ineq-a", ceiling=np.inf)
        rep.add(1.5, 0.25, (1.0, 2.0), 0.125, lhs=0.5, rhs_terms=(0.25, 0.25))
        body = write_csv([rep], tmp_path / "r.csv")
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == CSV_COLUMNS
        assert rows[1][0] == "ineq-a"
        assert rows[1][3] == "1;2"
        assert rows[1][10] == "inf"
        assert rows[1][11] == "1"

    def test_deterministic_output(self, tmp_path):
        rep = VerificationReport("x", ceiling=2.0)
        rep.add(2, 0.1, (0.3, 0.7), 0.2, lhs=1.0, rhs_terms=(0.6, 0.4, 0.0))
        b1 = write_csv([rep], tmp_path / "a.csv")
        b2 = write_csv([rep], tmp_path / "b.csv")
        assert b1 == b2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_three_d_coordinates(self, tmp_path):
        rep = VerificationReport("y")
        rep.add(2, 0.0, (1.0, 2.0, 3.0), 0.5, lhs=0.0, rhs_terms=(1.0,))
        body = write_csv([rep], tmp_path / "r.csv")
        assert "1;2;3" in body


class TestContentId:
    def test_stable_under_key_order(self):
        assert content_id({"a": 1, "b": 2}) == content_id({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert content_id({"a": 1}) != content_id({"a": 2})

    def test_length(self):
        assert len(content_id([1, 2, 3])) == 16
