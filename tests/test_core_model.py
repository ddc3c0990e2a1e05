"""Unit tests for the problem model (Section II definitions)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.model import Fact, Problem, encode_column


def _toy_df():
    return pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )


class TestProblemConstruction:
    def test_from_pandas_shapes(self):
        p = Problem.from_pandas(_toy_df(), ["region", "season"], "delay")
        assert p.n_rows == 8
        assert p.n_dims == 2
        assert p.dim_matrix.shape == (8, 2)

    def test_dim_labels_sorted_and_roundtrip(self):
        df = _toy_df()
        p = Problem.from_pandas(df, ["region", "season"], "delay")
        assert list(p.dim_labels[0]) == ["East", "North", "South", "West"]
        # codes decode back to the original values
        decoded = [p.dim_labels[0][c] for c in p.dim_matrix[:, 0]]
        assert decoded == list(df["region"])

    def test_default_prior_is_target_mean(self):
        p = Problem.from_pandas(_toy_df(), ["region"], "delay")
        assert p.prior == pytest.approx(_toy_df()["delay"].mean())

    def test_explicit_prior(self):
        p = Problem.from_pandas(_toy_df(), ["region"], "delay", prior=0.0)
        assert p.prior == 0.0

    def test_prior_deviation(self):
        p = Problem.from_pandas(_toy_df(), ["region"], "delay", prior=0.0)
        np.testing.assert_allclose(p.prior_deviation(), _toy_df()["delay"])

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError):
            Problem.from_pandas(_toy_df().iloc[:0], ["region"], "delay")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        df = pd.DataFrame({"a": ["x", "y", "x"], "t": [1.0, bad, 2.0]})
        with pytest.raises(ValueError, match="NaN or infinite"):
            Problem.from_pandas(df, ["a"], "t")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_rejected(self, bad):
        df = pd.DataFrame({"a": ["x", "y", "x"], "t": [1.0, 3.0, 2.0]})
        with pytest.raises(ValueError, match="NaN or infinite"):
            Problem.from_pandas(df, ["a"], "t", prior=bad)

    @pytest.mark.parametrize("n, bounds", [(0, None), (0, [0]), (2, [0, 2, 2])])
    def test_zero_rows_rejected(self, n, bounds):
        """No rows, a batch of no problems, a problem of a batch without rows."""
        with pytest.raises(ValueError, match="empty"):
            Problem(["a"], np.zeros((n, 1)), [np.array(["x"])], np.zeros(n), bounds=bounds)

    def test_batch_priors_default_to_each_problems_mean(self):
        y = np.array([0.1, 0.7, 1.3, 2.9, 0.7])
        p = Problem(["a"], np.zeros((5, 1)), [np.array(["x"])], y, bounds=[0, 2, 5])
        assert p.n_problems == 2
        np.testing.assert_array_equal(p.sizes, [2, 3])
        np.testing.assert_array_equal(p.prior, [np.mean(y[:2]), np.mean(y[2:])])
        np.testing.assert_array_equal(
            p.prior_deviation(), np.abs(y - np.repeat(p.prior, [2, 3]))
        )

    def test_one_prior_per_problem(self):
        with pytest.raises(ValueError, match="one prior per problem"):
            Problem(["a"], np.zeros((3, 1)), [np.array(["x"])], np.zeros(3), 0.0, bounds=[0, 1, 3])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Problem(
                dim_names=["a"],
                dim_matrix=np.zeros((3, 1), dtype=np.int32),
                dim_labels=[np.array(["x"])],
                target=np.zeros(2),
                prior=0.0,
            )

    def test_dim_name_count_checked(self):
        with pytest.raises(ValueError):
            Problem(
                dim_names=["a", "b"],
                dim_matrix=np.zeros((3, 1), dtype=np.int32),
                dim_labels=[np.array(["x"])],
                target=np.zeros(3),
                prior=0.0,
            )

    def test_target_name_carried(self):
        p = Problem.from_pandas(_toy_df(), ["region"], "delay")
        assert p.target_name == "delay"

    def test_numeric_dimension_values_stringified(self):
        df = pd.DataFrame({"month": [1, 2, 1, 3], "y": [1.0, 2.0, 3.0, 4.0]})
        p = Problem.from_pandas(df, ["month"], "y")
        assert set(p.dim_labels[0]) == {"1", "2", "3"}


class TestFact:
    def test_scope_dict(self):
        f = Fact(scope=(("region", "North"), ("season", "Winter")), value=15.0)
        assert f.scope_dict == {"region": "North", "season": "Winter"}

    def test_str_overall(self):
        assert "overall" in str(Fact(scope=(), value=3.0))

    def test_str_with_scope(self):
        s = str(Fact(scope=(("season", "Winter"),), value=15.0))
        assert "season=Winter" in s

    def test_hashable(self):
        f1 = Fact(scope=(("a", "x"),), value=1.0)
        f2 = Fact(scope=(("a", "x"),), value=1.0)
        assert len({f1, f2}) == 1


# labels sharing prefixes, the empty string, non-ASCII letters (U+FFDA
# sorts before U+1F600 by code point but after it in UTF-16) and digit
# strings, which sort as text ("10" < "9"); no NUL, see
# test_nul_characters_stay_distinct
LABELS = st.one_of(
    st.text(alphabet="ab é\uffda\U0001f600", max_size=4),
    st.integers(0, 120).map(str),
)


class TestEncodeColumn:
    """``encode_column`` gives the codes and labels of
    ``pd.factorize(values.astype(str), sort=True)``, from pandas and
    from Arrow input."""

    @staticmethod
    def assert_factorized(column, values: pd.Series) -> None:
        want_codes, want_labels = pd.factorize(values.astype(str), sort=True)
        codes, labels = encode_column(column)
        assert codes.dtype == np.int32
        np.testing.assert_array_equal(codes, want_codes)
        assert labels.tolist() == want_labels.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(LABELS, max_size=30), st.integers(0, 30))
    @example([], 0)
    def test_matches_factorize(self, values, split):
        series = pd.Series(values, dtype=object)
        chunked = pa.chunked_array([values[:split], values[split:]], type=pa.string())
        for column in (series, pa.array(values, type=pa.string()), chunked):
            self.assert_factorized(column, series)

    @pytest.mark.parametrize(
        "values",
        [[10, 9, 10, 100], [1.5, 2.0, 1.5], [True, False, True]],
        ids=["int", "float", "bool"],
    )
    def test_non_string_values_as_strings(self, values):
        series = pd.Series(values)
        for column in (series, pa.array(values)):
            self.assert_factorized(column, series)

    def test_nul_characters_stay_distinct(self):
        """``pd.factorize`` compares object strings up to their first NUL
        and so merges ``"a"`` and ``"a\\x00"``; the Arrow encoder keeps
        every distinct value apart."""
        codes, labels = encode_column(pd.Series(["a\x00", "a", "", "\x00"]))
        assert labels.tolist() == ["", "\x00", "a", "a\x00"]
        assert codes.tolist() == [3, 2, 0, 1]
