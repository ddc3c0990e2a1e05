"""Tests for the DataFrame-level relational formulation (Sections IV-V),
cross-checked against DuckDB via the oracle and against the NumPy
kernels — the same math must come out of Catalyst plans, SQL, and the
vectorized solver."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as sf

from repro.core.facts import enumerate_facts
from repro.core.model import Problem
from repro.core.pruning import single_fact_utilities
from repro.oracle import assert_equivalent
from repro.spark_ops.relational import (
    FACT_PREFIX,
    facts_dataframe,
    gains_against_expectation_df,
    scope_match,
)

DIMS = ["region", "season"]


def toy_pdf():
    return pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )


def prior_utilities_df(data, facts, dims, target, prior):
    """Single-fact utilities: gains over the deviation ``|prior - t|``."""
    dev = data.withColumn("dev", sf.abs(sf.lit(float(prior)) - sf.col(target)))
    return gains_against_expectation_df(dev, facts, dims, target, "dev")


@pytest.fixture(scope="module")
def toy_sdf(spark):
    return spark.createDataFrame(toy_pdf()).cache()


class TestFactsDataFrame:
    def test_fact_count_matches_kernel(self, spark, toy_sdf):
        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        p = Problem.from_pandas(toy_pdf(), DIMS, "delay")
        fs = enumerate_facts(p)
        assert facts.count() == fs.n_facts

    def test_overall_fact_present(self, spark, toy_sdf):
        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        overall = facts.filter(
            sf.col(FACT_PREFIX + "region").isNull()
            & sf.col(FACT_PREFIX + "season").isNull()
        ).collect()
        assert len(overall) == 1
        assert overall[0]["fact_value"] == pytest.approx(15.0)

    def test_fact_values_match_duckdb(self, spark, toy_sdf):
        """Oracle check: single-dimension fact values = per-season avg."""
        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        season_facts = facts.filter(
            sf.col(FACT_PREFIX + "region").isNull()
            & sf.col(FACT_PREFIX + "season").isNotNull()
        ).select(
            sf.col(FACT_PREFIX + "season").alias("season"),
            sf.col("fact_value").alias("avg_delay"),
        )
        assert_equivalent(
            season_facts,
            "SELECT season, avg(delay) AS avg_delay FROM t GROUP BY season",
            t=toy_pdf(),
        )

    def test_fact_rows_counts(self, spark, toy_sdf):
        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        cell = facts.filter(
            sf.col(FACT_PREFIX + "region").isNotNull()
            & sf.col(FACT_PREFIX + "season").isNotNull()
        )
        assert cell.agg(sf.sum("fact_rows")).collect()[0][0] == 8

    def test_fact_ids_follow_kernel_order(self, toy_sdf):
        """``fact_id`` order is the kernel's global fact order, so both
        break gain ties alike."""
        facts = facts_dataframe(toy_sdf, DIMS, "delay").orderBy("fact_id").collect()
        scopes = [
            tuple((d, r[FACT_PREFIX + d]) for d in DIMS if r[FACT_PREFIX + d] is not None)
            for r in facts
        ]
        fs = enumerate_facts(Problem.from_pandas(toy_pdf(), DIMS, "delay"))
        assert scopes == [fs.fact(fid).scope for fid in range(fs.n_facts)]

    def test_max_extra_dims_zero(self, spark, toy_sdf):
        facts = facts_dataframe(toy_sdf, DIMS, "delay", max_extra_dims=0)
        assert facts.count() == 1


class TestScopeMatchJoin:
    def test_join_row_counts(self, spark, toy_sdf):
        """Each row matches: 1 overall + its region + its season + its
        cell fact = 4 facts; 8 rows -> 32 join results."""
        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        joined = toy_sdf.join(facts, on=scope_match(DIMS))
        assert joined.count() == 8 * 4

    def test_match_semantics_vs_duckdb(self, spark, toy_sdf):
        """The M-join row pairing agrees with an explicit SQL join."""
        facts = facts_dataframe(toy_sdf, DIMS, "delay").cache()
        joined = (
            toy_sdf.join(facts, on=scope_match(DIMS))
            .groupBy("fact_id")
            .agg(sf.count(sf.lit(1)).alias("n"))
            .select("fact_id", "n")
        )
        facts_pdf = facts.toPandas()
        assert_equivalent(
            joined,
            """
            SELECT f.fact_id AS fact_id, count(*) AS n
            FROM f JOIN t
              ON (f.f_region IS NULL OR f.f_region = t.region)
             AND (f.f_season IS NULL OR f.f_season = t.season)
            GROUP BY f.fact_id
            """,
            f=facts_pdf,
            t=toy_pdf(),
        )
        facts.unpersist()


class TestSingleFactUtilities:
    def test_matches_kernel(self, spark, toy_sdf):
        """Spark join-aggregate utilities == NumPy kernel utilities."""
        p = Problem.from_pandas(toy_pdf(), DIMS, "delay", prior=0.0)
        fs = enumerate_facts(p)
        kernel = single_fact_utilities(p, fs)

        facts = facts_dataframe(toy_sdf, DIMS, "delay")
        util = prior_utilities_df(toy_sdf, facts, DIMS, "delay", prior=0.0)
        rows = util.join(facts, "fact_id").collect()

        # align by scope
        by_scope_kernel = {
            tuple(sorted(fs.fact(fid).scope)): kernel[fid]
            for fid in range(fs.n_facts)
        }
        for r in rows:
            scope = tuple(
                sorted(
                    (d, r[FACT_PREFIX + d])
                    for d in DIMS
                    if r[FACT_PREFIX + d] is not None
                )
            )
            assert r["utility"] == pytest.approx(by_scope_kernel[scope])

    def test_utilities_vs_duckdb_sql(self, spark, toy_sdf):
        """Full oracle check of the Γ_{ΣU,F}(R ⋈_M F) formulation."""
        facts = facts_dataframe(toy_sdf, DIMS, "delay").cache()
        util = prior_utilities_df(
            toy_sdf, facts, DIMS, "delay", prior=0.0
        ).select("fact_id", sf.col("utility").alias("u"))
        assert_equivalent(
            util,
            """
            SELECT f.fact_id AS fact_id,
                   sum(greatest(0.0, abs(0.0 - t.delay)
                                   - abs(f.fact_value - t.delay))) AS u
            FROM f JOIN t
              ON (f.f_region IS NULL OR f.f_region = t.region)
             AND (f.f_season IS NULL OR f.f_season = t.season)
            GROUP BY f.fact_id
            """,
            f=facts.toPandas(),
            t=toy_pdf(),
        )
        facts.unpersist()

    def test_random_data_matches_kernel(self, spark):
        rng = np.random.default_rng(7)
        pdf = pd.DataFrame(
            {
                "a": rng.choice(list("xyz"), 40),
                "b": rng.choice(list("uvw"), 40),
                "t": np.round(rng.random(40) * 50, 1),
            }
        )
        sdf = spark.createDataFrame(pdf)
        p = Problem.from_pandas(pdf, ["a", "b"], "t")
        fs = enumerate_facts(p)
        kernel = sorted(single_fact_utilities(p, fs).round(6))
        facts = facts_dataframe(sdf, ["a", "b"], "t")
        util = prior_utilities_df(sdf, facts, ["a", "b"], "t", p.prior)
        got = sorted(round(r["utility"], 6) for r in util.collect())
        np.testing.assert_allclose(got, kernel, atol=1e-6)
