"""Beta sampling, empirical CDFs, the dominance check and score CSVs."""

import numpy as np
import pytest
from scipy import stats

from lendingdyn import (BetaSpec, ScoreDistribution, check_dominance,
                        empirical_cdf, read_score_csv, sample_beta,
                        write_score_csv)
from lendingdyn import distributions

from conftest import plain_lines, spy_calls
from oracles import reference_read_score_csv


class TestSampleBeta:
    def test_same_spec_reproduces(self):
        spec = BetaSpec(a=4, b=8, n=100, seed=7)
        d1 = sample_beta(spec)
        d2 = sample_beta(spec)
        assert np.array_equal(d1.scores, d2.scores)

    def test_different_seeds_differ(self):
        d1 = sample_beta(BetaSpec(a=4, b=8, n=100, seed=7))
        d2 = sample_beta(BetaSpec(a=4, b=8, n=100, seed=8))
        assert not np.array_equal(d1.scores, d2.scores)

    @pytest.mark.parametrize("a,b", [(1, 1), (4, 8), (3, 8)])
    def test_mean_within_three_se(self, a, b):
        n = 20000
        dist = sample_beta(BetaSpec(a=a, b=b, n=n, seed=11))
        true_mean = a / (a + b)
        true_var = a * b / ((a + b) ** 2 * (a + b + 1))
        se = np.sqrt(true_var / n)
        assert abs(dist.mean() - true_mean) <= 3 * se

    @pytest.mark.parametrize("a,b", [(4, 8), (8, 3)])
    def test_ks_distance_to_true_cdf(self, a, b):
        dist = sample_beta(BetaSpec(a=a, b=b, n=100_000, seed=13))
        grid = np.linspace(0, 1, 1001)
        ecdf = empirical_cdf(dist, grid)
        assert np.max(np.abs(ecdf - stats.beta.cdf(grid, a, b))) < 0.01

    def test_group_carries_through(self):
        dist = sample_beta(BetaSpec(a=2, b=2, n=10, seed=0), group="D")
        assert dist.group == "D"

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BetaSpec(a=0.0, b=1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            BetaSpec(a=1.0, b=1.0, n=0, seed=0)


class TestEmpiricalCdf:
    def test_worked_values(self):
        dist = ScoreDistribution("A", np.array([0.2, 0.4, 0.6]))
        assert empirical_cdf(dist, 0.5) == pytest.approx(2 / 3)
        assert empirical_cdf(dist, 0.4) == pytest.approx(2 / 3)
        assert empirical_cdf(dist, 0.39) == pytest.approx(1 / 3)
        assert empirical_cdf(dist, 0.0) == 0.0
        assert empirical_cdf(dist, 1.0) == 1.0

    def test_monotone_and_bounded(self):
        dist = sample_beta(BetaSpec(a=3, b=4, n=500, seed=3))
        grid = np.linspace(0, 1, 201)
        vals = empirical_cdf(dist, grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestDominance:
    def test_distribution_dominates_itself(self):
        dist = sample_beta(BetaSpec(a=4, b=8, n=200, seed=1))
        report = check_dominance(dist, dist)
        assert report.dominates
        assert report.violations == ()

    def test_dominant_pair(self, beta_pair):
        dist_a, dist_d = beta_pair
        report = check_dominance(dist_a, dist_d, step=0.01)
        assert report.dominates
        assert report.grid_step == 0.01

    def test_swapped_pair_fails_with_witnesses(self, beta_pair):
        dist_a, dist_d = beta_pair
        report = check_dominance(dist_d, dist_a, step=0.01)
        assert not report.dominates
        assert len(report.violations) > 0
        for x, fa, fd in report.violations:
            assert 0.0 <= x <= 1.0
            assert fa > fd

    def test_bad_step_rejected(self, beta_pair):
        dist_a, dist_d = beta_pair
        for step in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step must be positive"):
                check_dominance(dist_a, dist_d, step=step)


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        dist = sample_beta(BetaSpec(a=4, b=8, n=50, seed=2), group="D")
        path = tmp_path / "scores.csv"
        write_score_csv(path, dist)
        back = read_score_csv(path, group="D")
        assert back.group == "D"
        assert np.array_equal(back.scores, dist.scores)

    def test_headerless_file_accepted(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.25\n0.5\n0.75\n")
        back = read_score_csv(path)
        assert np.array_equal(back.scores, [0.25, 0.5, 0.75])

    def test_non_numeric_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score\n0.25\noops\n")
        with pytest.raises(ValueError, match="oops"):
            read_score_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("score\n")
        with pytest.raises(ValueError, match="no scores"):
            read_score_csv(path)

    def test_out_of_range_scores_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("score\n1.5\n")
        with pytest.raises(ValueError):
            read_score_csv(path)


def _read_outcome(fn, path):
    """(group, score bytes), or the error's type and message."""
    try:
        dist = fn(path, group="D")
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return dist.group, dist.scores.tobytes()


# (name, file bytes, the reader that decides: "plain" for np.loadtxt alone,
# "csv" when the csv module reads the file after the plain attempt)
SCORE_CASES = [
    ("header-lf", b"score\n0.25\n0.5\n", "plain"),
    ("header-crlf", b"score\r\n0.25\r\n0.5\r\n", "plain"),
    ("header-lone-cr", b"score\r0.25\r0.5\r", "csv"),
    ("headerless", b"0.25\n0.5\n0.75", "plain"),
    ("numeric-header-is-a-score", b"0.125,score\n0.25\n", "plain"),
    ("extra-cells", b"score,note\n0.25,a\n 0.5 ,\n\t0.75\x0b,x,y\n", "plain"),
    ("empty-header-cell", b",score\n0.25\n", "plain"),
    ("quoted-cells", b'"score"\n"0.25"\n0.5\n', "csv"),
    ("quoted-comma", b'"s,core"\n"0.25",x\n', "csv"),
    ("quoted-newline", b'"sc\nore"\n0.25\n', "csv"),
    ("blank-row-in-body", b"score\n0.25\n\n0.5\n", "csv"),
    ("blank-row-0-then-header", b"\nscore\n0.5\n", "csv"),
    ("blank-crlf-row", b"score\r\n\r\n0.5\r\n", "csv"),
    ("underscore", b"score\n1_0e-1\n0.5\n", "csv"),
    ("underscore-in-row-0", b"0_5e-1\n0.25\n", "csv"),
    ("non-ascii-digits", "score\n\u0660.\u0665\n".encode(), "csv"),
    ("info-separator", b"score\n\x1c0.25\n", "csv"),
    ("nul", b"score\n0.25\x00\n", "csv"),
    ("later-non-numeric", b"score\n0.25\noops\n", "csv"),
    ("second-header", b"score\nlabel\n0.5\n", "csv"),
    ("whitespace-row", b"score\n0.25\n \n", "csv"),
    ("out-of-range", b"score\n1.5\n", "plain"),
    ("nan", b"score\nnan\n", "plain"),
    ("empty", b"", "plain"),
    ("header-only", b"score\n", "plain"),
    ("header-only-crlf", b"score\r\n", "plain"),
]


class TestScoreCsvOracle:
    """read_score_csv against the row-by-row reader it replaced."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 1 << 12])
    @pytest.mark.parametrize("name, data, reader", SCORE_CASES,
                             ids=[case[0] for case in SCORE_CASES])
    def test_edge_cases(self, tmp_path, monkeypatch, name, data, reader,
                        chunk_rows):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        monkeypatch.setattr(distributions, "_CHUNK_ROWS", chunk_rows)
        fallbacks = spy_calls(monkeypatch, distributions, "_csv_scores")
        assert _read_outcome(read_score_csv, path) \
            == _read_outcome(reference_read_score_csv, path)
        assert len(fallbacks) == (reader == "csv")

    def test_a_late_quoted_field_resumes_at_its_chunk(self, tmp_path,
                                                      monkeypatch):
        # Chunks of 3 lines; file line 9, in the third chunk, quotes its
        # score, and a later line holds two cells.
        cells = ["score", "0.5", "-0.0", "0.25", "1", "0", "0.75", "0.125",
                 '"0.375"', "0.625,x", "0.875", "1e-3"]
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(cells) + "\n")
        monkeypatch.setattr(distributions, "_CHUNK_ROWS", 3)
        assert _read_outcome(read_score_csv, path) \
            == _read_outcome(reference_read_score_csv, path)
        parsed = []
        loadtxt = np.loadtxt

        def counting(lines, *args, **kwargs):
            parsed.extend(lines)
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        resumed = spy_calls(monkeypatch, distributions, "_csv_scores")
        read_score_csv(path)
        # np.loadtxt read lines 2-6 once (the header aside); the csv
        # module started at line 7 and read the rest.
        assert parsed == [cell + "\n" for cell in cells[1:6]]
        [(_, reader, before)] = resumed
        assert before == 6
        assert before + reader.line_num == len(cells)

    def test_later_non_numeric_row_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score\n0.25\n0.5\n oops \n")
        with pytest.raises(ValueError,
                           match=r"^non-numeric score 'oops' in .*bad\.csv$"):
            read_score_csv(path)

    def test_a_field_past_the_csv_limit_names_its_line(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text('score\n0.5\n"' + "9" * 200_000 + '"\n')
        with pytest.raises(ValueError, match=r"huge\.csv:3: field larger"):
            read_score_csv(path)

    def test_property_against_the_row_by_row_reader(self, tmp_path,
                                                    monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cell = st.sampled_from(
            ["0.25", " 0.5 ", "1", "0", "1e-3", "nan", "-0.0", "1_0e-1",
             "1.5", "score", "", "x", '"0.75"', '"a,b"', "\t0.125\x0b",
             "\x1f0.5", "\u0660.\u0665"])

        @st.composite
        def files(draw):
            end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            rows = [",".join(draw(st.lists(cell, min_size=1, max_size=3)))
                    for _ in range(draw(st.integers(0, 8)))]
            text = "".join(row + end for row in rows)
            if rows and draw(st.booleans()):
                text = text[:-len(end)]
            return text

        fallbacks = spy_calls(monkeypatch, distributions, "_csv_scores")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(text=files(),
                          chunk_rows=st.sampled_from([1, 2, 3, 1 << 12]))
        def check(text, chunk_rows):
            path = tmp_path / "property.csv"
            path.write_bytes(text.encode())
            monkeypatch.setattr(distributions, "_CHUNK_ROWS", chunk_rows)
            fallbacks.clear()
            expected = _read_outcome(reference_read_score_csv, path)
            assert _read_outcome(read_score_csv, path) == expected
            # np.loadtxt alone reads exactly the plain files whose scores
            # it parses: all but those with an underscore or a bad score.
            assert fallbacks or plain_lines(text)
            if (plain_lines(text) and "_" not in text
                    and "non-numeric" not in str(expected)):
                assert not fallbacks

        check()
