"""Loan-record loading and the late-payment logistic model."""

import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from lendingdyn import (FitDiagnostics, LoanRecord, RiskModel,
                        SeparationError, fit_logistic, load_records,
                        predict_many, to_score_distributions)
from lendingdyn import distributions, risk
from lendingdyn.risk import LoanTable, RowReject

from conftest import (TRUE_DTI, TRUE_INTERCEPT, TRUE_LTV, TRUE_UNITS,
                      logistic, make_loan_rows, plain_lines, spy_calls,
                      write_loan_csv)
from oracles import reference_load_records


def record(balance=5.0, ltv=80.0, dti=3.0, units=1, purpose="purchase",
           late=None, group=None):
    return LoanRecord(balance=balance, ltv=ltv, dti=dti, units=units,
                      purpose=purpose, late=late, group=group)


class TestLoadRecords:
    def test_round_trip(self, tmp_path):
        rows = [
            {"balance": "5.0", "ltv": "80.0", "dti": "3.0", "units": "1",
             "purpose": "purchase", "late": "0"},
            {"balance": "2.5", "ltv": "95.0", "dti": "7.0", "units": "4",
             "purpose": "purchase", "late": "1"},
            {"balance": "8.0", "ltv": "60.0", "dti": "1.0", "units": "2",
             "purpose": "Purchase", "late": "0"},
        ]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        loaded = load_records(path, schema="training")
        assert len(loaded.records) == 3
        assert loaded.rejects == ()
        assert loaded.records[1].late is True
        assert loaded.records[2].purpose == "purchase"

    def test_invalid_rows_are_rejected_with_line_numbers(self, tmp_path):
        rows = [
            {"balance": "5.0", "ltv": "80.0", "dti": "3.0", "units": "1",
             "purpose": "purchase", "late": "0"},
            {"balance": "5.0", "ltv": "80.0", "dti": "3.0", "units": "0",
             "purpose": "purchase", "late": "1"},
            {"balance": "-2.0", "ltv": "80.0", "dti": "3.0", "units": "1",
             "purpose": "purchase", "late": "0"},
        ]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        loaded = load_records(path, schema="training")
        assert len(loaded.records) == 1
        assert [r.line for r in loaded.rejects] == [3, 4]
        assert "units" in loaded.rejects[0].reason
        assert "balance" in loaded.rejects[1].reason

    def test_invalid_row_reason_names_every_problem_before_the_filter(
            self, tmp_path):
        rows = [
            {"balance": "5.0", "ltv": "80.0", "dti": "3.0", "units": "1",
             "purpose": "purchase", "late": "0"},
            {"balance": "-2.0", "ltv": "80.0", "dti": "3.0", "units": "0",
             "purpose": "refinance", "late": "1"},
        ]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        loaded = load_records(path, schema="training",
                              keep_purpose="purchase")
        assert loaded.rejects == (RowReject(
            3, "balance must be nonnegative, got -2.0; "
               "units must be >= 1, got 0"),)

    def test_purpose_filter(self, tmp_path):
        rows = make_loan_rows(60, seed=1, purpose_mix=True)
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        kept = load_records(path, keep_purpose="purchase")
        assert all(r.purpose == "purchase" for r in kept.records)
        assert all("filtered out" in rej.reason for rej in kept.rejects)
        everything = load_records(path, keep_purpose=None)
        assert len(everything.records) == 60

    def test_unknown_purposes_collapse_to_other(self, tmp_path):
        rows = [{"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
                 "purpose": "cash-out refi", "late": "0"}]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        loaded = load_records(path, keep_purpose="other")
        assert loaded.records[0].purpose == "other"

    def test_nothing_left_after_filter_raises(self, tmp_path):
        rows = [{"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
                 "purpose": "refinance", "late": "0"}]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        with pytest.raises(ValueError, match="no usable rows"):
            load_records(path, keep_purpose="purchase")

    def test_missing_column_raises(self, tmp_path):
        rows = [{"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
                 "purpose": "purchase", "late": "0"}]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows, columns=["balance", "ltv", "dti", "units",
                                            "purpose"])
        with pytest.raises(ValueError, match="missing required columns"):
            load_records(path, schema="training")

    def test_unparseable_numeric_raises_with_line(self, tmp_path):
        rows = [{"balance": "abc", "ltv": "50.0", "dti": "1.0", "units": "1",
                 "purpose": "purchase", "late": "0"}]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        with pytest.raises(ValueError, match=":2:"):
            load_records(path, schema="training")

    def test_bad_late_label_raises(self, tmp_path):
        rows = [{"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
                 "purpose": "purchase", "late": "yes"}]
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        with pytest.raises(ValueError, match="late"):
            load_records(path, schema="training")

    def test_application_schema_groups(self, tmp_path):
        rows = [
            {"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
             "purpose": "purchase", "group": "A"},
            {"balance": "1.0", "ltv": "50.0", "dti": "1.0", "units": "1",
             "purpose": "purchase", "group": ""},
        ]
        path = tmp_path / "apps.csv"
        write_loan_csv(path, rows)
        loaded = load_records(path, schema="application")
        assert len(loaded.records) == 1
        assert loaded.records[0].group == "A"
        assert loaded.rejects[0].reason == "empty group label"


    HEADER = "balance,ltv,dti,units,purpose,late\n"
    GOOD = "5.0,80.0,3.0,1,purchase,0\n"

    def test_reject_line_is_the_file_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + self.GOOD + "\n"
                        + "5.0,80.0,3.0,0,purchase,1\n")
        loaded = load_records(path)
        assert loaded.rejects == (RowReject(4, "units must be >= 1, got 0"),)
        assert loaded.records.line.tolist() == [2]

    def test_reject_line_is_the_file_line_after_a_quoted_newline(
            self, tmp_path):
        # the second row spans lines 3 and 4
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + self.GOOD
                        + '5.0,80.0,3.0,1,"pur\nchase",1\n'
                        + "5.0,80.0,3.0,0,purchase,1\n")
        loaded = load_records(path, keep_purpose=None)
        assert [r.line for r in loaded.rejects] == [5]
        assert loaded.records.line.tolist() == [2, 3]
        assert loaded.records[1].purpose == "other"

    @pytest.mark.parametrize("bad, match", [
        ("abc,80.0,3.0,1,purchase,0\n", "t.csv:4: unparseable numeric"),
        ("5.0,80.0,3.0,1,purchase,yes\n", "t.csv:4: late must be 0 or 1"),
    ])
    def test_error_line_is_the_file_line(self, tmp_path, bad, match):
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + self.GOOD + "\n" + bad)
        with pytest.raises(ValueError, match=match):
            load_records(path)


def _outcome(fn, *args):
    """(fn's result, None), or (None, its error's type and message)."""
    try:
        return fn(*args), None
    except (ValueError, OverflowError, SeparationError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _fit(records):
    model = fit_logistic(records)
    return (json.dumps(model.to_json_dict()),
            repr(model.diagnostics.log_likelihood_path))


def _predictions(records):
    return predict_many(frozen_model(), records).tobytes()


def _scores(records):
    risks = predict_many(frozen_model(), records)
    return {g: d.scores.tobytes()
            for g, d in to_score_distributions(records, risks).items()}


def assert_matches_reference(path, schema, keep_purpose):
    """Records, rejects, errors and model outputs equal the row-by-row
    loader's, compared through their reprs."""
    loaded, error = _outcome(load_records, path, schema, keep_purpose)
    reference, reference_error = _outcome(reference_load_records, path,
                                          schema, keep_purpose)
    assert error == reference_error
    if reference_error:
        return
    assert isinstance(loaded.records, LoanTable)
    assert repr(tuple(loaded.records)) == repr(reference.records)
    assert repr(loaded.rejects) == repr(reference.rejects)
    consumers = [_predictions, _fit if schema == "training" else _scores]
    for consumer in consumers:
        assert _outcome(consumer, loaded.records) \
            == _outcome(consumer, reference.records)


_TRAINING = ("balance", "ltv", "dti", "units", "purpose", "late")
_APPLICATION = ("balance", "ltv", "dti", "units", "purpose", "group")


def _csv_text(header, rows):
    return "".join(",".join(row) + "\n" for row in (header, *rows))


# (name, schema, header, rows); every case runs under each keep_purpose
EDGE_CASES = [
    ("whitespace", "training", _TRAINING,
     [[" 5.0", "80.0 ", " 3.0 ", " 2 ", " Purchase ", " 1 "],
      ["\t4.0", "70.0", "2.0", "1", "REFINANCE\t", "0\t"],
      ["6.0", "75.0", "1.0", "3", "cash out", "0"]]),
    ("nan-inf-underscore", "training", _TRAINING,
     [["nan", "80.0", "3.0", "1", "purchase", "0"],
      ["5.0", "inf", "3.0", "1", "purchase", "1"],
      ["5.0", "80.0", "-inf", "1", "purchase", "0"],
      ["1_0", "8_0.5", "3.0", "1_0", "purchase", "1"],
      ["2.0", "Infinity", "-0.0", "2", "purchase", "0"],
      ["-0.0", "60.0", "1e-320", "4", "purchase", "1"],
      ["3.0", "65.0", "2.0", "1", "purchase", "0"]]),
    ("short-and-long-rows", "application", _APPLICATION,
     [["5.0", "80.0", "3.0", "1", "purchase", "A", "extra", "cells"],
      ["5.0", "80.0", "3.0", "1", "purchase"],
      ["5.0", "80.0", "3.0", "2", "purchase", "D"],
      ["4.0", "80.0", "3.0", "1"]]),
    ("short-row-misses-a-number", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1", "purchase", "0"], ["5.0", "80.0"]]),
    ("short-row-misses-the-label", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1", "purchase", "0"],
      ["5.0", "80.0", "3.0", "1", "purchase"]]),
    ("duplicate-header", "training", _TRAINING + ("balance", "purpose"),
     [["5.0", "80.0", "3.0", "1", "purchase", "0", "-1.0", "refinance"],
      ["5.0", "80.0", "3.0", "1", "other", "1", "2.0", "purchase"],
      ["5.0", "80.0", "3.0", "1", "purchase", "1", "3.0"]]),
    ("units-beyond-int64", "training", _TRAINING,
     [["5.0", "80.0", "3.0", str(2**63 + 1), "purchase", "0"],
      ["5.0", "70.0", "3.0", "1", "purchase", "1"],
      ["5.0", "75.0", "3.0", str(2**70 + 12345), "purchase", "1"],
      ["5.0", "60.0", "3.0", str(-2**64), "purchase", "0"],
      ["5.0", "65.0", "3.0", "2", "purchase", "0"]]),
    ("units-beyond-float", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1" + "0" * 400, "purchase", "0"],
      ["5.0", "70.0", "3.0", "1", "purchase", "1"],
      ["5.0", "70.0", "3.0", "2", "purchase", "0"]]),
    ("bad-label-then-bad-number", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1", "purchase", "0"],
      ["5.0", "80.0", "3.0", "1", "purchase", "2"],
      ["5.0", "x", "3.0", "1", "purchase", "0"]]),
    ("bad-number-then-bad-label", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1.5", "purchase", "0"],
      ["5.0", "80.0", "3.0", "1", "purchase", "no"]]),
    ("bad-label-and-number-in-one-row", "training", _TRAINING,
     [["5.0", "80.0", "3.0", "1", "purchase", "0"],
      ["5.0", "80.0", "", "1", "purchase", "maybe"]]),
    ("empty-group-on-an-invalid-row", "application", _APPLICATION,
     [["-5.0", "80.0", "inf", "0", "purchase", " "],
      ["-5.0", "80.0", "3.0", "1", "refinance", "A"],
      ["5.0", "80.0", "3.0", "1", "refinance", ""],
      ["5.0", "80.0", "3.0", "1", "purchase", "D"]]),
    ("nothing-usable", "application", _APPLICATION,
     [["5.0", "80.0", "3.0", "1", "purchase", ""]]),
]


class TestColumnarLoaderOracle:
    @pytest.mark.parametrize("keep_purpose",
                             ["purchase", "refinance", "other", None])
    @pytest.mark.parametrize("name, schema, header, rows", EDGE_CASES,
                             ids=[case[0] for case in EDGE_CASES])
    def test_edge_cases(self, tmp_path, name, schema, header, rows,
                        keep_purpose):
        path = tmp_path / f"{name}.csv"
        path.write_text(_csv_text(header, rows))
        assert_matches_reference(path, schema, keep_purpose)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("schema", ["training", "application"])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, chunk_rows,
                              schema):
        self.check_chunk_boundaries(tmp_path, monkeypatch, chunk_rows,
                                    schema, plain=False)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("schema", ["training", "application"])
    def test_chunk_boundaries_of_a_plain_file(self, tmp_path, monkeypatch,
                                              chunk_rows, schema):
        self.check_chunk_boundaries(tmp_path, monkeypatch, chunk_rows,
                                    schema, plain=True)

    @staticmethod
    def check_chunk_boundaries(tmp_path, monkeypatch, chunk_rows, schema,
                               plain):
        # invalid and filtered rows fall on both sides of every chunk
        # boundary; so do blank lines and quoted newlines unless the file
        # is plain, which np.loadtxt alone then reads
        rows = make_loan_rows(40, seed=9)
        for i, row in enumerate(rows):
            if schema == "application":
                row["group"] = ("A", "D", "", "A ")[i % 4]
            if i % 5 == 1:
                row["units"] = "0"
            if i % 7 == 3:
                row["purpose"] = "cash" if plain else "pur\nchase"
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        if not plain:
            lines = path.read_text().split("\n")
            path.write_text("\n".join(line + "\n" * (i % 6 == 4)
                                       for i, line in enumerate(lines)))
        monkeypatch.setattr(distributions, "_CHUNK_ROWS", chunk_rows)
        fallbacks = spy_calls(monkeypatch, distributions, "_csv_chunks")
        for keep_purpose in ("purchase", "other", None):
            assert_matches_reference(path, schema, keep_purpose)
        assert bool(fallbacks) == (not plain)

    # (column, cell, the reader that decides: "plain" for np.loadtxt alone,
    # "csv" when the csv module reads the file after the plain attempt)
    GRAMMAR_EDGES = [
        ("units", "1.0", "csv"),
        ("units", "3_0", "csv"),
        ("units", str(2**63), "csv"),
        ("units", str(2**63 - 1), "plain"),
        ("units", " +3 ", "plain"),
        ("units", "\x0b2\x0c", "plain"),
        ("balance", "1_0", "csv"),
        ("balance", "\u0663", "csv"),
        ("balance", "\x1c3", "csv"),
        ("ltv", " +1.5e1 ", "plain"),
        ("ltv", "1e400", "plain"),
        ("dti", "-Infinity", "plain"),
        ("dti", "0x10", "csv"),
        ("late", " 1 ", "plain"),
        ("late", "+1", "csv"),
    ]

    @pytest.mark.parametrize("column, cell, reader", GRAMMAR_EDGES)
    def test_number_grammar_edges(self, tmp_path, monkeypatch, column, cell,
                                  reader):
        rows = make_loan_rows(6, seed=2, purpose_mix=False)
        rows[3][column] = cell
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        fallbacks = spy_calls(monkeypatch, distributions, "_csv_chunks")
        assert_matches_reference(path, "training", "purchase")
        assert len(fallbacks) == (reader == "csv")
        if cell == str(2**63):
            assert load_records(path).records.units.dtype == object

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, monkeypatch, end):
        rows = make_loan_rows(12, seed=6)
        rows[4]["units"] = "0"
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(row) + end for row in
                                [list(rows[0]), *map(dict.values, rows)]),
                        newline="")
        fallbacks = spy_calls(monkeypatch, distributions, "_csv_chunks")
        assert_matches_reference(path, "training", None)
        assert bool(fallbacks) == (end == "\r")
        assert load_records(path, keep_purpose=None).rejects[0].line == 6

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_an_error_in_a_later_chunk(self, tmp_path, monkeypatch,
                                       chunk_rows):
        rows = make_loan_rows(10, seed=4)
        rows[7]["late"] = "?"
        rows[8]["dti"] = "?"
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows)
        monkeypatch.setattr(distributions, "_CHUNK_ROWS", chunk_rows)
        assert_matches_reference(path, "training", "purchase")
        with pytest.raises(ValueError, match=":9: late must be 0 or 1"):
            load_records(path)

    @pytest.mark.parametrize("schema", ["training", "application"])
    def test_a_late_quoted_field_resumes_at_its_chunk(self, tmp_path,
                                                      monkeypatch, schema):
        # Chunks of 4 lines; row 13 (file lines 15-16, in the fourth chunk)
        # holds a quoted purpose spanning two lines, and rejects sit on
        # both sides of it.
        rows = make_loan_rows(22, seed=12)
        for i, row in enumerate(rows):
            if schema == "application":
                row.pop("late")
                row["group"] = "A" if i % 5 else ""
            if i % 4 == 1:
                row["units"] = "0"
        rows[13]["purpose"] = "pur\nchase"
        path = tmp_path / "t.csv"
        write_loan_csv(path, rows, columns=list(rows[0]))
        monkeypatch.setattr(distributions, "_CHUNK_ROWS", 4)
        assert_matches_reference(path, schema, "purchase")
        assert_matches_reference(path, schema, None)

        parsed = []
        loadtxt = np.loadtxt

        def counting(lines, *args, **kwargs):
            parsed.extend(lines)
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        resumed = spy_calls(monkeypatch, distributions, "_csv_chunks")
        result = load_records(path, schema=schema, keep_purpose=None)
        text = path.read_bytes().decode().splitlines(keepends=True)
        # np.loadtxt read the three plain chunks, lines 2-13, once each;
        # the csv module started at line 14 and read the rest.
        assert parsed == text[1:13]
        [(reader, before, _)] = resumed
        assert before == 13
        assert before + reader.line_num == len(text)
        assert result.rejects[-1].line == len(text)

    def test_property_against_the_row_by_row_loader(self, tmp_path,
                                                    monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        number = st.sampled_from(
            ["5.0", "0", "-1.5", " 2.5 ", "nan", "inf", "-inf", "1_0", "",
             "abc", "1e3", "-0.0", "3", "1.5", str(2**64), "0x10"])
        text = st.sampled_from(["purchase", " Refinance", "other", "cash",
                                "", "a,b", "x\ny", " A", "D", "0", "1",
                                " 1 ", "yes"])
        # cells that both np.loadtxt and the row-by-row loader read
        plain_cells = {
            "balance": st.sampled_from(["5.0", "0", "-1.5", " 2.5 ", "nan",
                                        "inf", "1e3", "-0.0", "3"]),
            "units": st.sampled_from(["0", "3", " 2 ", "-1", "+4"]),
            "late": st.sampled_from(["0", "1", " 1 "]),
            "group": st.sampled_from(["A", " D ", ""]),
            "purpose": st.sampled_from(["purchase", " Refinance", "other",
                                        "cash", ""]),
        }
        plain_cells["ltv"] = plain_cells["dti"] = plain_cells["balance"]

        @st.composite
        def files(draw):
            schema = draw(st.sampled_from(["training", "application"]))
            header = list(_TRAINING if schema == "training" else _APPLICATION)
            header = draw(st.permutations(header))
            plain = draw(st.booleans())
            rows = []
            for _ in range(draw(st.integers(0, 12))):
                if plain:
                    rows.append([draw(plain_cells[name]) for name in header])
                    continue
                row = [draw(number) if name in ("balance", "ltv", "dti",
                                                "units")
                       else draw(text) for name in header]
                cut = draw(st.sampled_from([None, None, None, 0, 3, 5, 7]))
                rows.append(row if cut is None else (row + ["z"])[:cut])
            end = draw(st.sampled_from(["\n", "\r\n"]))
            return schema, header, rows, end, plain

        fallbacks = spy_calls(monkeypatch, distributions, "_csv_chunks")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(case=files(),
                          keep_purpose=st.sampled_from(
                              ["purchase", "refinance", "other", None]),
                          chunk_rows=st.sampled_from([1, 2, 5, 1 << 12]))
        def check(case, keep_purpose, chunk_rows):
            schema, header, rows, end, plain = case
            path = tmp_path / "property.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator=end)
                writer.writerow(header)
                writer.writerows(rows)
            monkeypatch.setattr(distributions, "_CHUNK_ROWS", chunk_rows)
            fallbacks.clear()
            assert_matches_reference(path, schema, keep_purpose)
            # plain rows are read by np.loadtxt alone, and nothing else is
            assert not (plain and fallbacks)
            assert fallbacks or plain_lines(path.read_bytes().decode())

        check()


class TestLoanTable:
    def test_records_round_trip(self):
        records = [record(late=True), record(balance=1.5, units=3, late=False)]
        table = LoanTable.from_records(records)
        assert list(table) == records
        assert table[-1] == records[-1]
        assert table[:1] == (records[0],)
        assert LoanTable.from_records(table) is table

    def test_a_missing_label_drops_the_late_column(self):
        table = LoanTable.from_records([record(late=True), record()])
        assert table.late is None
        with pytest.raises(ValueError, match="late label"):
            fit_logistic(table)

    def test_missing_group_labels_read_empty(self):
        table = LoanTable.from_records([record(group="A"), record()])
        assert table.group.tolist() == ["A", ""]
        assert [r.group for r in table] == ["A", None]


class TestFitLogistic:
    def fit_from_rows(self, n, seed, **kw):
        records = [
            record(balance=float(r["balance"]), ltv=float(r["ltv"]),
                   dti=float(r["dti"]), units=int(r["units"]),
                   late=r["late"] == "1")
            for r in make_loan_rows(n, seed, purpose_mix=False)
        ]
        return fit_logistic(records, **kw), records

    def test_recovers_generating_coefficients(self):
        model, _ = self.fit_from_rows(8000, seed=21)
        d = model.diagnostics
        assert d.converged
        assert d.gradient_max_norm < 1e-8
        truth = [TRUE_INTERCEPT, 0.0, TRUE_LTV, TRUE_DTI, TRUE_UNITS]
        for est, true, se in zip(model.coefficients(), truth,
                                 d.standard_errors):
            assert abs(est - true) <= 3 * se, (est, true, se)

    def test_likelihood_path_is_nondecreasing(self):
        model, _ = self.fit_from_rows(2000, seed=22)
        path = model.diagnostics.log_likelihood_path
        assert len(path) >= 2
        assert all(b >= a for a, b in zip(path, path[1:]))

    @pytest.mark.parametrize("seed", [71, 96])
    def test_converges_when_the_last_gain_is_below_rounding(self, seed):
        # On these samples the final full Newton step gains less than the
        # rounding error of the log-likelihood sum, which then reads lower.
        # A strict ascent test rejected that step, and step halving stalled
        # for all max_iter iterations above the gradient tolerance.
        model, _ = self.fit_from_rows(5000, seed=seed)
        d = model.diagnostics
        assert d.converged
        assert d.gradient_max_norm < 1e-8
        assert d.iterations < 10
        path = d.log_likelihood_path
        assert all(b >= a for a, b in zip(path, path[1:]))

    def test_deterministic(self):
        m1, _ = self.fit_from_rows(1000, seed=23)
        m2, _ = self.fit_from_rows(1000, seed=23)
        assert np.array_equal(m1.coefficients(), m2.coefficients())

    def test_constant_features_fit_the_label_mean(self):
        records = [record(late=i < 7) for i in range(20)]
        model = fit_logistic(records)
        assert model.diagnostics.singular
        p = predict_many(model, records)
        assert np.allclose(p, 7 / 20, atol=1e-9)

    def test_perfect_separation_raises(self):
        records = [record(ltv=float(v), late=v > 80)
                   for v in range(60, 101, 2)]
        with pytest.raises(SeparationError):
            fit_logistic(records)

    def test_ridge_tames_separation_and_shrinks(self):
        records = [record(ltv=float(v), late=v > 80)
                   for v in range(60, 101, 2)]
        ridged = fit_logistic(records, ridge=1.0)
        assert np.isfinite(ridged.coefficients()).all()
        model_free, _ = self.fit_from_rows(2000, seed=25)
        model_ridge, _ = self.fit_from_rows(2000, seed=25, ridge=50.0)
        free_norm = np.linalg.norm(model_free.coefficients()[1:])
        ridge_norm = np.linalg.norm(model_ridge.coefficients()[1:])
        assert ridge_norm < free_norm

    @pytest.mark.parametrize("ridge", [0.0, 50.0])
    def test_standard_errors_come_from_the_penalized_information(self, ridge):
        model, records = self.fit_from_rows(2000, seed=25, ridge=ridge)
        X = np.array([[1.0, r.balance, r.ltv, r.dti, r.units] for r in records])
        p = 1.0 / (1.0 + np.exp(-(X @ model.coefficients())))
        info = X.T @ (X * (p * (1.0 - p))[:, None])
        info += ridge * np.diag([0.0, 1.0, 1.0, 1.0, 1.0])
        expected = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.allclose(model.diagnostics.standard_errors, expected,
                           rtol=1e-8, atol=0.0)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic([])

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic([record(late=None)])


def frozen_model():
    diag = FitDiagnostics(iterations=0, final_log_likelihood=0.0,
                          converged=True, gradient_max_norm=0.0,
                          log_likelihood_path=(), standard_errors=(),
                          singular=False)
    return RiskModel(intercept=TRUE_INTERCEPT, coef_balance=0.0,
                     coef_ltv=TRUE_LTV, coef_dti=TRUE_DTI,
                     coef_units=TRUE_UNITS, diagnostics=diag)


class TestPredict:
    def test_worked_value(self):
        # -2.876 + 0.010 * 80 + 0.074 * 3 + 0.244 * 1 = -1.610
        model = frozen_model()
        p = predict_many(model, [record()])[0]
        assert p == pytest.approx(logistic(-1.610), abs=1e-12)
        assert p == pytest.approx(0.1666, abs=5e-4)

    def test_balance_is_ignored_when_coefficient_is_zero(self):
        model = frozen_model()
        assert predict_many(model, [record(balance=1.0)])[0] == \
            predict_many(model, [record(balance=500.0)])[0]

    def test_risk_increases_with_dti(self):
        model = frozen_model()
        risks = [predict_many(model, [record(dti=float(d))])[0]
                 for d in range(0, 20)]
        assert all(b > a for a, b in zip(risks, risks[1:]))

    def test_predictions_strictly_inside_unit_interval(self):
        model = frozen_model()
        extreme = [record(ltv=0.0, dti=0.0, units=1),
                   record(ltv=1e6, dti=1e6, units=4)]
        p = predict_many(model, extreme)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_predict_many_matches_scalar(self):
        model = frozen_model()
        records = [record(dti=float(d)) for d in range(5)]
        vec = predict_many(model, records)
        # batched and singleton matrix products may differ in the last ulp
        assert np.allclose(vec, [predict_many(model, [r])[0]
                                 for r in records], rtol=0, atol=1e-14)


class TestModelSerialization:
    def test_json_round_trip(self, tmp_path):
        records = [record(balance=0.5 * (v % 9), ltv=float(v),
                          dti=float(v % 7), units=(v % 4) + 1,
                          late=(v * 7 + 3) % 13 < 5) for v in range(40, 80)]
        model = fit_logistic(records)
        path = tmp_path / "model.json"
        model.save(path)
        back = RiskModel.load(path)
        assert np.array_equal(back.coefficients(), model.coefficients())
        assert back.diagnostics.converged == model.diagnostics.converged
        assert back.diagnostics.standard_errors == \
            model.diagnostics.standard_errors
        assert np.array_equal(predict_many(back, records),
                              predict_many(model, records))

    def test_the_feature_table_names_every_field(self):
        # risk._FEATURES is the one list of the model's inputs; each class
        # that spells its features out as fields must follow it.
        features = list(risk._FEATURES)
        assert list(risk._COEFFICIENTS) == \
            ["intercept", *(f"coef_{name}" for name in features)]
        assert [f.name for f in fields(RiskModel)] == \
            [*risk._COEFFICIENTS, "diagnostics"]
        assert [f.name for f in fields(LoanRecord)][:len(features)] == features
        assert [f.name for f in fields(LoanTable)][:len(features)] == features
        assert risk.TRAINING_COLUMNS == (*features, "purpose", "late")
        assert risk.APPLICATION_COLUMNS == (*features, "purpose", "group")
        assert set(risk._DIAGNOSTICS) <= {f.name for f in fields(FitDiagnostics)}


class TestScoreDistributions:
    def test_scores_complement_risk(self):
        records = [record(group="A"), record(group="A"), record(group="D")]
        risks = [0.2, 0.4, 0.3]
        dists = to_score_distributions(records, risks)
        assert sorted(dists) == ["A", "D"]
        assert np.allclose(dists["A"].scores, [0.8, 0.6])
        assert np.allclose(dists["D"].scores, [0.7])

    def test_missing_group_label_rejected(self):
        with pytest.raises(ValueError, match="group"):
            to_score_distributions([record()], [0.5])

    def test_degenerate_risk_rejected(self):
        with pytest.raises(ValueError):
            to_score_distributions([record(group="A")], [1.0])


def test_record_validation():
    with pytest.raises(ValueError):
        record(units=0)
    with pytest.raises(ValueError):
        record(balance=float("nan"))
    with pytest.raises(ValueError):
        record(purpose="invalid kind")
    with pytest.raises(ValueError):
        record(dti=float("inf"))
