"""Loan-record loading and the late-payment logistic model."""

import math

import numpy as np
import pytest

from lendingdyn import (FitDiagnostics, LoanRecord, RiskModel,
                        SeparationError, fit_logistic, load_records,
                        predict_late_risk, predict_many,
                        to_score_distributions)
from lendingdyn.risk import RowReject

from conftest import (TRUE_DTI, TRUE_INTERCEPT, TRUE_LTV, TRUE_UNITS,
                      logistic, make_loan_rows, write_loan_csv)


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
        p = predict_late_risk(model, record())
        assert p == pytest.approx(logistic(-1.610), abs=1e-12)
        assert p == pytest.approx(0.1666, abs=5e-4)

    def test_balance_is_ignored_when_coefficient_is_zero(self):
        model = frozen_model()
        assert predict_late_risk(model, record(balance=1.0)) == \
            predict_late_risk(model, record(balance=500.0))

    def test_risk_increases_with_dti(self):
        model = frozen_model()
        risks = [predict_late_risk(model, record(dti=float(d)))
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
        assert np.allclose(vec, [predict_late_risk(model, r)
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


class TestScoreDistributions:
    def test_scores_complement_risk(self):
        records = [record(group="A"), record(group="A"), record(group="D")]
        risks = [0.2, 0.4, 0.3]
        dists = to_score_distributions(records, risks)
        assert sorted(dists) == ["A", "D"]
        assert np.allclose(dists["A"].scores, [0.8, 0.6])
        assert np.allclose(dists["D"].scores, [0.7])

    def test_unknown_group_rejected(self):
        records = [record(group="X")]
        with pytest.raises(ValueError, match="unknown group"):
            to_score_distributions(records, [0.5], allowed_groups=("A", "D"))

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
