"""Integration tests for the Problem Generator and the batch
pre-processing job — the distributed heart of the reproduction."""
import json
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as sf

from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.pipeline import preprocess
from repro.pipeline.config import Config, decode_key, encode_key
from repro.experiments import solve_problems_locally
from repro.pipeline import problems
from repro.pipeline.preprocess import preprocess_all, preprocess_target, solve_queries
from repro.pipeline.problems import build_plan, count_queries, explode_queries


def toy_pdf():
    rng = np.random.default_rng(5)
    n = 60
    return pd.DataFrame(
        {
            "region": rng.choice(["North", "South", "East", "West"], n),
            "season": rng.choice(["Summer", "Winter"], n),
            "daytime": rng.choice(["am", "pm"], n),
            "delay": np.round(rng.random(n) * 60, 1),
        }
    )


CFG = Config(dims=("region", "season", "daytime"), targets=("delay",), speech_length=2)


@pytest.fixture(scope="module")
def toy_sdf(spark):
    return spark.createDataFrame(toy_pdf()).cache()


class TestProblemGenerator:
    def test_explosion_factor(self, toy_sdf):
        # subsets of <=2 of 3 dims: 1 + 3 + 3 = 7 replicas per row
        exploded = explode_queries(toy_sdf, CFG, "delay")
        assert exploded.count() == 60 * 7

    def test_empty_key_covers_all_rows(self, toy_sdf):
        exploded = explode_queries(toy_sdf, CFG, "delay")
        assert exploded.filter(sf.col("query_key") == "").count() == 60

    def test_group_sizes_match_filters(self, toy_sdf):
        exploded = explode_queries(toy_sdf, CFG, "delay")
        key = encode_key({"season": "Winter"})
        got = exploded.filter(sf.col("query_key") == key).count()
        want = toy_sdf.filter(sf.col("season") == "Winter").count()
        assert got == want

    def test_count_queries(self, toy_sdf):
        n_q = count_queries(toy_sdf, CFG)
        pdf = toy_pdf()
        expect = 1  # empty query
        from itertools import combinations

        for size in (1, 2):
            for sub in combinations(CFG.dims, size):
                expect += pdf[list(sub)].drop_duplicates().shape[0]
        assert n_q == expect

    def test_query_length_limit(self, toy_sdf):
        cfg1 = Config(dims=CFG.dims, targets=CFG.targets, max_query_len=1)
        exploded = explode_queries(toy_sdf, cfg1, "delay")
        assert exploded.count() == 60 * 4  # 1 + 3 subsets


def solve_one(pdf, predicates, method):
    """The speech row of one query of ``pdf``, solved as a Spark task
    solves it: from the query plan, by the per-query solve function."""
    plan = build_plan(pdf, CFG, ("delay",))
    query = next(q for q in plan.queries if q.predicates == predicates)
    return solve_queries(plan, [query], ("delay",), method)


class TestSolveQueryGroup:
    def test_matches_local_greedy(self):
        pdf = toy_pdf()
        sub = pdf[pdf["season"] == "Winter"].copy()
        out = solve_one(pdf, {"season": "Winter"}, "G-B")
        assert len(out) == 1
        # reference: greedy over the same subset with season removed
        p = Problem.from_pandas(sub, ["region", "daytime"], "delay")
        ref = greedy_summary(p, enumerate_facts(p, 2), CFG.speech_length)
        assert out["utility"].iloc[0] == pytest.approx(ref.utility)

    def test_facts_exclude_query_dims(self):
        out = solve_one(toy_pdf(), {"season": "Winter"}, "G-B")
        facts = json.loads(out["facts_json"].iloc[0])
        for f in facts:
            assert "season" not in f["scope"]

    def test_speech_prefixed_with_subset(self):
        out = solve_one(toy_pdf(), {"season": "Winter"}, "G-O")
        assert out["speech"].iloc[0].startswith("About delay for season Winter:")

    def test_whole_table_query(self):
        out = solve_one(toy_pdf(), {}, "G-B")
        assert out["n_rows"].iloc[0] == 60
        assert decode_key(out["query_key"].iloc[0]) == {}


WINTER_FACTS_JSON = (
    '[{"scope": {"daytime": "pm", "region": "South"}, "value": 21.84}, '
    '{"scope": {"region": "North"}, "value": 36.5375}]'
)
WINTER_SPEECH = (
    "About delay for season Winter: The average delay is 21.8 for daytime pm, "
    "region South. It is 36.5 for region North."
)


@pytest.mark.parametrize("method", ["E", "G-B", "G-P", "G-O"])
def test_each_problem_enumerated_once(monkeypatch, method):
    """The solver reuses the fact set built for ``n_facts``; the speech
    row is the same as when every problem was enumerated twice."""
    calls = []

    def counting(problem, max_extra_dims=2):
        calls.append(max_extra_dims)
        return enumerate_facts(problem, max_extra_dims=max_extra_dims)

    monkeypatch.setattr(preprocess, "enumerate_facts", counting)
    out = solve_one(toy_pdf(), {"season": "Winter"}, method)
    assert calls == [2]
    assert out["n_facts"].iloc[0] == 15
    assert out["facts_json"].iloc[0] == WINTER_FACTS_JSON
    assert out["speech"].iloc[0] == WINTER_SPEECH


class TestBatchJob:
    @pytest.fixture(scope="class")
    def speeches(self, spark, toy_sdf):
        return preprocess_target(spark, toy_sdf, CFG, "delay", method="G-B").cache()

    def test_one_speech_per_query(self, spark, toy_sdf, speeches):
        assert speeches.count() == count_queries(toy_sdf, CFG)

    def test_utilities_match_local_solver(self, speeches):
        """Every distributed solve must equal a local re-solve."""
        pdf = toy_pdf()
        for row in speeches.collect():
            preds = decode_key(row["query_key"])
            mask = pd.Series(True, index=pdf.index)
            for d, v in preds.items():
                mask &= pdf[d].astype(str) == v
            sub = pdf[mask]
            free = [d for d in CFG.dims if d not in preds] or [CFG.dims[0]]
            p = Problem.from_pandas(sub, free, "delay")
            ref = greedy_summary(
                p,
                enumerate_facts(p, min(2, len(free))),
                CFG.speech_length,
            )
            assert row["utility"] == pytest.approx(ref.utility), row["query_key"]

    def test_normalized_bounded(self, speeches):
        vals = [r["normalized"] for r in speeches.collect()]
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in vals)

    def test_row_counts_sum(self, speeches):
        # across all 1-predicate queries per dim, row counts sum to n
        rows = speeches.collect()
        per_dim: dict[str, int] = {}
        for r in rows:
            preds = decode_key(r["query_key"])
            if len(preds) == 1:
                d = next(iter(preds))
                per_dim[d] = per_dim.get(d, 0) + r["n_rows"]
        assert set(per_dim.values()) == {60}

    def test_parquet_roundtrip(self, spark, toy_sdf, tmp_path_factory):
        out_dir = str(tmp_path_factory.mktemp("speeches"))
        df = preprocess_all(spark, toy_sdf, CFG, method="G-B", output_path=out_dir)
        assert df.count() == count_queries(spark.createDataFrame(toy_pdf()), CFG)
        assert set(df.select("target").distinct().toPandas()["target"]) == {"delay"}

    def test_methods_agree_on_utility(self, spark, toy_sdf):
        """G-B, G-P, G-O must produce equal-utility speeches; E at least
        as good (usually equal on this small data)."""
        utils = {}
        for method in ("G-B", "G-P", "G-O", "E"):
            df = preprocess_target(spark, toy_sdf, CFG, "delay", method=method)
            utils[method] = (
                df.select("query_key", "utility").toPandas().set_index("query_key")["utility"]
            )
        base = utils["G-B"].sort_index()
        for m in ("G-P", "G-O"):
            pd.testing.assert_series_equal(
                base, utils[m].sort_index(), check_exact=False, rtol=1e-9
            )
        assert (utils["E"].sort_index() >= base - 1e-6).all()


def two_target_pdf():
    pdf = toy_pdf()
    pdf["cancelled"] = (np.random.default_rng(9).random(len(pdf)) < 0.2).astype(float)
    return pdf


class TestOneSolvePath:
    """The Spark job and the local loop solve the same query plan with
    the same per-query function, so their tables are equal."""

    @pytest.mark.parametrize("max_query_len", [0, 1, 2])
    def test_spark_equals_local(self, spark, monkeypatch, max_query_len):
        def no_explode(*args, **kwargs):
            raise AssertionError("explode_queries is not on the pipeline path")

        monkeypatch.setattr(problems, "explode_queries", no_explode)
        pdf = two_target_pdf()
        cfg = Config(
            dims=CFG.dims,
            targets=("delay", "cancelled"),
            max_query_len=max_query_len,
            speech_length=2,
        )
        order = ["target", "query_key"]
        dist = preprocess_all(spark, spark.createDataFrame(pdf), cfg).toPandas()
        local = pd.concat(
            [solve_problems_locally(pdf, cfg, t, "G-O") for t in cfg.targets]
        )
        assert len(dist) == len(local) > 0
        pd.testing.assert_frame_equal(
            dist.drop(columns="solve_seconds").sort_values(order).reset_index(drop=True),
            local.drop(columns="solve_seconds").sort_values(order).reset_index(drop=True),
            check_exact=True,
        )


class TestHostileInputs:
    """Inputs without a well-defined query key or utility are rejected,
    naming the column, before any speech is solved."""

    SCHEMA = "region string, season string, daytime string, delay double"
    ROWS = [("North", "Winter", "am", 10.0), ("South", "Summer", "pm", 20.0)]

    def run(self, spark, rows, cfg=CFG, schema=SCHEMA):
        preprocess_all(spark, spark.createDataFrame(rows, schema), cfg)

    def test_null_dimension_value(self, spark):
        rows = self.ROWS + [("East", None, "am", 5.0)]
        with pytest.raises(ValueError, match="'season' has NULL"):
            self.run(spark, rows)

    def test_null_target(self, spark):
        rows = self.ROWS + [("East", "Winter", "am", None)]
        with pytest.raises(ValueError, match="'delay' has NULL or NaN"):
            self.run(spark, rows)

    def test_nan_target(self, spark):
        rows = self.ROWS + [("East", "Winter", "am", float("nan"))]
        with pytest.raises(ValueError, match="'delay' has NULL or NaN"):
            self.run(spark, rows)

    @pytest.mark.parametrize("name", ["day|time", "day=time"])
    def test_separator_in_dimension_name(self, spark, name):
        cfg = Config(dims=("region", "season", name), targets=("delay",))
        schema = f"region string, season string, `{name}` string, delay double"
        with pytest.raises(ValueError, match=re.escape(f"dimension name '{name}'")):
            self.run(spark, self.ROWS, cfg, schema)

    @pytest.mark.parametrize("value", ["a|m", "a=m"])
    def test_separator_in_dimension_value(self, spark, value):
        rows = self.ROWS + [("East", "Winter", value, 5.0)]
        with pytest.raises(ValueError, match="dimension column 'daytime' value"):
            self.run(spark, rows)
