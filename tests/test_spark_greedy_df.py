"""The DataFrame-level Algorithm 2 must reproduce the NumPy greedy's
speech exactly — same model, two execution substrates."""
from itertools import product

import numpy as np
import pandas as pd
import pytest

from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.spark_ops.greedy_df import greedy_summary_df

GRID_DIMS = ["region", "season"]


def toy_pdf():
    return pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )


def random_pdf():
    """A full 4x2x2 design, four rows per cell, integer targets: every
    fact covers a power-of-two number of rows, so fact values, gains and
    their sums are exact in any summation order, and tied gains tie
    exactly in both substrates."""
    rng = np.random.default_rng(3)
    cells = list(product("wxyz", "uv", "pq")) * 4
    pdf = pd.DataFrame(cells, columns=["a", "b", "c"])
    pdf["t"] = rng.integers(0, 100, len(pdf)).astype(float)
    return pdf.sample(frac=1.0, random_state=3).reset_index(drop=True)


# name -> (frame, dims, target, m, prior); each runs once per module
RUNS = {
    "grid_m2": (toy_pdf, GRID_DIMS, "delay", 2, 0.0),
    "grid_m3": (toy_pdf, GRID_DIMS, "delay", 3, 0.0),
    "grid_m1_mean_prior": (toy_pdf, GRID_DIMS, "delay", 1, None),
    "random_m3": (random_pdf, ["a", "b", "c"], "t", 3, None),
}


@pytest.fixture(scope="module")
def runs(spark):
    """Every distinct DataFrame greedy run of this module, with few
    shuffle partitions (the inputs have at most 64 rows)."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, "4")
    try:
        return {
            name: greedy_summary_df(
                spark, spark.createDataFrame(make()), dims, target, m=m, prior=prior
            )
            for name, (make, dims, target, m, prior) in RUNS.items()
        }
    finally:
        spark.conf.set(key, old)


def kernel(name):
    make, dims, target, m, prior = RUNS[name]
    p = Problem.from_pandas(make(), dims, target, prior=prior)
    return greedy_summary(p, enumerate_facts(p), m)


class TestGreedyDF:
    @pytest.mark.parametrize("name", list(RUNS))
    def test_same_facts_as_kernel(self, runs, name):
        res_df, res_np = runs[name], kernel(name)
        assert [f["scope"] for f in res_df.facts] == [f.scope_dict for f in res_np.facts]
        assert [f["value"] for f in res_df.facts] == [f.value for f in res_np.facts]

    def test_matches_kernel_on_grid(self, runs):
        res_df, res_np = runs["grid_m2"], kernel("grid_m2")
        assert res_df.utility == pytest.approx(res_np.utility)
        assert res_df.prior_error == pytest.approx(120.0)

    def test_matches_kernel_on_random(self, runs):
        res_df, res_np = runs["random_m3"], kernel("random_m3")
        assert res_df.utility == pytest.approx(res_np.utility, rel=1e-9)

    def test_default_prior_is_mean(self, runs):
        # prior = mean(15): prior error = 8 * 5 = 40
        assert runs["grid_m1_mean_prior"].prior_error == pytest.approx(40.0)

    def test_selected_fact_scopes_are_dicts(self, runs):
        res = runs["grid_m2"]
        assert len(res.facts) >= 1
        first = res.facts[0]
        assert set(first) == {"scope", "value"}
        assert isinstance(first["scope"], dict)

    def test_normalized_in_unit_interval(self, runs):
        res = runs["grid_m3"]
        assert 0.0 <= res.normalized <= 1.0 + 1e-12
