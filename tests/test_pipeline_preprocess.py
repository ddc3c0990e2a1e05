"""Integration tests for the Problem Generator and the batch
pre-processing job — the distributed heart of the reproduction."""
import importlib
import itertools
import json
import re
import sys
import uuid
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyspark.sql import DataFrameReader
from pyspark.sql import functions as sf

from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.pipeline import preprocess
from repro.pipeline.config import Config, decode_key, encode_key
from repro.pipeline.lookup import SpeechIndex
from repro.experiments import solve_problems_locally
from repro.pipeline import problems
from repro.pipeline.preprocess import (
    RESULT_SCHEMA,
    drop_zip_importers,
    preprocess_all,
    preprocess_target,
    solve_subsets,
)
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
    solves it: in the batch of its dimension subset, from the query
    plan."""
    plan = build_plan(pdf, CFG, ("delay",))
    subset = tuple(j for j, d in enumerate(CFG.dims) if d in predicates)
    out = solve_subsets(plan, [subset], ("delay",), method).to_pandas()
    return out[out["query_key"] == encode_key(predicates)].reset_index(drop=True)


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
    """The subset's two queries (season Summer and Winter) are enumerated
    as one batch, and the solver reuses that fact set for ``n_facts``;
    the speech row is the same as when every problem was enumerated
    alone."""
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
        # read back with RESULT_SCHEMA, not an inferred one; ``target``
        # is an ordinary column, so the columns keep RESULT_SCHEMA's order
        types = {f.name: f.dataType for f in df.schema.fields}
        assert len(types) == len(df.schema.fields)
        assert types == {f.name: f.dataType for f in RESULT_SCHEMA.fields}
        assert df.columns == RESULT_SCHEMA.fieldNames()
        cols = RESULT_SCHEMA.fieldNames()
        inferred = spark.read.parquet(out_dir).select(cols).collect()
        assert sorted(df.select(cols).collect()) == sorted(inferred)

    def test_parquet_roundtrip_keeps_numeric_target_name(self, spark, tmp_path_factory):
        """A target named like a number stays a string: the partition
        column's type comes from RESULT_SCHEMA, not from its values."""
        pdf = toy_pdf().rename(columns={"delay": "2019"})
        cfg = Config(dims=CFG.dims, targets=("2019",), max_query_len=0)
        out_dir = str(tmp_path_factory.mktemp("speeches"))
        df = preprocess_all(spark, spark.createDataFrame(pdf), cfg, method="G-B", output_path=out_dir)
        assert [r["target"] for r in df.select("target").collect()] == ["2019"]

    def test_non_string_columns_are_cast(self, spark, monkeypatch):
        """An integer dimension is keyed by its values as strings and an
        integer target is solved as float64: the speeches equal those of
        the same table given as strings and doubles."""
        tables = []

        def capture(table, config, targets):
            tables.append(table)
            return build_plan(table, config, targets)

        monkeypatch.setattr(preprocess, "build_plan", capture)
        ints = toy_pdf().assign(daytime=lambda d: np.where(d["daytime"] == "am", 9, 15))
        ints["delay"] = (ints["delay"] * 10).astype(np.int64)
        strs = ints.assign(daytime=ints["daytime"].astype(str), delay=ints["delay"].astype(float))
        order = ["target", "query_key"]
        speeches = [
            preprocess_all(spark, spark.createDataFrame(pdf), CFG, method="G-B")
            .toPandas()
            .drop(columns="solve_seconds")
            .sort_values(order, ignore_index=True)
            for pdf in (ints, strs)
        ]
        # each pass built its plan from one collected table, whatever
        # the pass calls to collect it
        assert len(tables) == 2
        for table in tables:
            assert table.column_names == [*CFG.dims, "delay"]
            assert [table.schema.field(d).type for d in CFG.dims] == [pa.string()] * 3
            assert table.schema.field("delay").type == pa.float64()
            assert set(table["daytime"].to_pylist()) == {"9", "15"}
            np.testing.assert_array_equal(table["delay"].to_numpy(), strs["delay"].to_numpy())
        assert encode_key({"daytime": "15"}) in set(speeches[0]["query_key"])
        pd.testing.assert_frame_equal(speeches[0], speeches[1], check_exact=True)

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


TWO_TARGETS = Config(dims=CFG.dims, targets=("delay", "cancelled"), speech_length=2)


class TestSpeechTable:
    """``preprocess_all(output_path=...)`` replaces the directory with one
    Parquet file of the speech rows and reads it back."""

    def test_one_file_sorted_by_target_and_query(self, spark, tmp_path):
        out_dir = tmp_path / "speeches"
        df = preprocess_all(
            spark, spark.createDataFrame(two_target_pdf()), TWO_TARGETS, "G-B", str(out_dir)
        )
        assert [f.name for f in out_dir.iterdir()] == ["speeches.parquet"]
        table = pq.read_table(out_dir / "speeches.parquet")
        keys = list(zip(table["target"].to_pylist(), table["query_key"].to_pylist()))
        assert keys == sorted(set(keys))
        assert len(keys) == df.count() == 2 * count_queries(spark.createDataFrame(toy_pdf()), CFG)

    def test_target_name_with_path_characters(self, spark, tmp_path):
        pdf = toy_pdf().rename(columns={"delay": "délai/min"})
        cfg = Config(dims=CFG.dims, targets=("délai/min",), max_query_len=0)
        df = preprocess_all(spark, spark.createDataFrame(pdf), cfg, "G-B", str(tmp_path / "s"))
        assert [r["target"] for r in df.select("target").collect()] == ["délai/min"]

    def test_empty_input_gives_empty_table(self, spark, tmp_path):
        empty = spark.createDataFrame([], TestHostileInputs.SCHEMA)
        df = preprocess_all(spark, empty, CFG, "G-B", str(tmp_path / "speeches"))
        assert df.schema == RESULT_SCHEMA
        assert df.count() == 0

    def test_overwrite_leaves_no_previous_rows(self, spark, tmp_path):
        out_dir = str(tmp_path / "speeches")
        data = spark.createDataFrame(two_target_pdf())
        preprocess_all(spark, data, TWO_TARGETS, "G-B", out_dir)
        one = Config(dims=CFG.dims, targets=("delay",), max_query_len=0)
        df = preprocess_all(spark, data, one, "G-B", out_dir)
        assert [(r["target"], r["query_key"]) for r in df.collect()] == [("delay", "")]

    def test_failed_solve_keeps_previous_table(self, spark, tmp_path):
        out_dir = str(tmp_path / "speeches")
        one = Config(dims=CFG.dims, targets=("delay",), max_query_len=0)
        preprocess_all(spark, spark.createDataFrame(toy_pdf()), one, "G-B", out_dir)
        bad = TestHostileInputs.ROWS + [("East", None, "am", 5.0)]
        with pytest.raises(ValueError, match="'season' has NULL"):
            preprocess_all(
                spark, spark.createDataFrame(bad, TestHostileInputs.SCHEMA), one, "G-B", out_dir
            )
        rows = spark.read.schema(RESULT_SCHEMA).parquet(out_dir).collect()
        assert [(r["query_key"], r["n_rows"]) for r in rows] == [("", 60)]

    def test_file_uri(self, spark, toy_sdf, tmp_path):
        out_dir = tmp_path / "speeches"
        cfg = Config(dims=CFG.dims, targets=CFG.targets, max_query_len=0)
        df = preprocess_all(spark, toy_sdf, cfg, "G-B", out_dir.as_uri())
        assert (out_dir / "speeches.parquet").is_file()
        assert df.count() == 1

    @pytest.mark.parametrize(
        "uri, error",
        [
            ("hdfs://namenode/speeches", "not a driver-local path"),
            ("s3a://bucket/speeches", "not a driver-local path"),
            ("", "names no directory"),
            ("file://", "names no directory"),
            ("file:", "names no directory"),
        ],
    )
    def test_rejects_paths_the_driver_cannot_write(self, spark, toy_sdf, monkeypatch, uri, error):
        def no_job(*args):
            raise AssertionError("the solve job ran")

        monkeypatch.setattr(preprocess, "_solve_job", no_job)
        with pytest.raises(ValueError, match=error):
            preprocess_all(spark, toy_sdf, CFG, output_path=uri)

    @pytest.mark.parametrize("entry", ["notes.txt", "subdir", None])
    def test_leaves_other_paths_in_place(self, spark, toy_sdf, monkeypatch, tmp_path, entry):
        """A directory holding anything but a speech table, or a file, is
        neither replaced nor written into, and the job does not run."""

        def no_job(*args):
            raise AssertionError("the solve job ran")

        monkeypatch.setattr(preprocess, "_solve_job", no_job)
        out = tmp_path / "speeches"
        if entry is None:
            out.write_text("not a table")
        else:
            out.mkdir()
            (out / "speeches.parquet").write_bytes(b"")
            if entry == "subdir":
                (out / entry).mkdir()
            else:
                (out / entry).write_text("keep")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        with pytest.raises(ValueError, match="not a speech table"):
            preprocess_all(spark, toy_sdf, CFG, output_path=str(out))
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_replaces_table_written_by_spark(self, spark, toy_sdf, tmp_path):
        """A table in the layout of Spark's partitioned writer (part files,
        ``target=`` directories, ``_SUCCESS``, ``.crc``) is replaced."""
        out = tmp_path / "speeches"
        cfg = Config(dims=CFG.dims, targets=CFG.targets, max_query_len=0)
        old = preprocess_all(spark, toy_sdf, cfg, "G-B").toPandas()
        spark.createDataFrame(old, RESULT_SCHEMA).write.partitionBy("target").parquet(str(out))
        assert {"_SUCCESS", "target=delay"} <= {p.name for p in out.iterdir()}
        df = preprocess_all(spark, toy_sdf, cfg, "G-B", str(out))
        assert [p.name for p in out.iterdir()] == ["speeches.parquet"]
        assert [r["query_key"] for r in df.collect()] == [""]

    def test_reads_back_through_a_file_uri(self, spark, toy_sdf, monkeypatch, tmp_path):
        """The read-back names the file system the driver wrote to, so it
        does not depend on ``fs.defaultFS``."""
        read = []
        parquet = DataFrameReader.parquet

        def record(self, *paths, **options):
            read.extend(paths)
            return parquet(self, *paths, **options)

        monkeypatch.setattr(DataFrameReader, "parquet", record)
        out = tmp_path / "speeches"
        cfg = Config(dims=CFG.dims, targets=CFG.targets, max_query_len=0)
        preprocess_all(spark, toy_sdf, cfg, "G-B", str(out))
        assert read == [out.as_uri()]


class TestPassShape:
    """One ``preprocess_all`` pass is two Spark jobs: the input collect
    and the solve job of ``defaultParallelism`` tasks."""

    def test_two_jobs(self, spark, toy_sdf, tmp_path):
        sc = spark.sparkContext
        group = f"pass-shape-{uuid.uuid4().hex}"
        sc.setJobGroup(group, group)
        try:
            preprocess_all(spark, toy_sdf, CFG, "G-B", str(tmp_path / "speeches"))
        finally:
            for key in ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel"):
                sc.setLocalProperty(key, None)
        st = sc.statusTracker()
        jobs = [st.getJobInfo(j) for j in sorted(st.getJobIdsForGroup(group))]
        assert len(jobs) == 2
        solve = jobs[1]
        assert [st.getStageInfo(s).numTasks for s in solve.stageIds] == [sc.defaultParallelism]


@pytest.mark.parametrize("name", ["dep.state", "dep state", "dep`q"])
def test_column_names_are_quoted(spark, tmp_path, name):
    """A dot, a space or a backtick is part of a column name, in a
    dimension and in a target: the pass neither reads a dot as a struct
    field nor breaks the identifier at a backtick."""
    target = name.replace("dep", "arr")
    pdf = two_target_pdf().rename(columns={"region": name, "cancelled": target})
    cfg = Config(dims=(name, "season", "daytime"), targets=("delay", target), speech_length=2)
    df = preprocess_all(spark, spark.createDataFrame(pdf), cfg, "G-B", str(tmp_path / "s"))
    index = SpeechIndex(df.toPandas())
    assert index.targets == sorted(["delay", target])
    assert len(index) == 2 * count_queries(spark.createDataFrame(toy_pdf()), CFG)
    for t in cfg.targets:
        answer = index.query(t, {name: "North", "season": "Winter"})
        assert answer.exact and answer.matched_predicates == {name: "North", "season": "Winter"}
        assert answer.speech.startswith(f"About {t} for ")
    # the speeches are those of the same table with plain names
    got = df.toPandas().set_index(["target", "query_key"])["utility"]
    plain = solve_problems_locally(two_target_pdf(), TWO_TARGETS, "cancelled", "G-B")
    for row in plain.itertuples():
        preds = {name if d == "region" else d: v for d, v in decode_key(row.query_key).items()}
        assert got[(target, encode_key(preds))] == row.utility


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


class TestCut:
    """``QueryPlan.cut`` lists a subset's queries and stacks their
    problems, each over its own rows in input order."""

    @pytest.mark.parametrize("max_query_len", [0, 1, 2, 3])
    def test_queries_partition_rows_in_input_order(self, max_query_len):
        pdf = two_target_pdf()
        cfg = Config(dims=CFG.dims, targets=("delay", "cancelled"), max_query_len=max_query_len)
        plan = build_plan(pdf, cfg, cfg.targets)
        for subset in plan.subsets:
            predicates, batches = plan.cut(subset)
            values = [tuple(p[CFG.dims[j]] for j in subset) for p in predicates]
            assert values == sorted(set(values))  # codes follow the sorted labels
            free = [d for j, d in enumerate(CFG.dims) if j not in subset] or [CFG.dims[0]]
            for target, batch in batches.items():
                assert batch.bounds[-1] == len(pdf)
                assert batch.dim_names == free
                for i, preds in enumerate(predicates):
                    sub = pdf[(pdf[list(preds)] == pd.Series(preds)).all(axis=1)]
                    a, b = batch.bounds[i], batch.bounds[i + 1]
                    assert b - a == len(sub) > 0
                    np.testing.assert_array_equal(batch.target[a:b], sub[target].to_numpy())
                    for j, d in enumerate(batch.dim_names):
                        labels = batch.dim_labels[j][batch.dim_matrix[a:b, j]]
                        np.testing.assert_array_equal(labels, sub[d].to_numpy())
                    assert batch.priors[i] == np.mean(sub[target].to_numpy())

    def test_every_query_of_a_subset(self):
        plan = build_plan(toy_pdf(), CFG, ("delay",))
        keys = [encode_key(p) for s in plan.subsets for p in plan.cut(s)[0]]
        assert len(set(keys)) == len(keys) == len(solve_subsets(plan, plan.subsets, ("delay",), "G-B"))
        pdf = toy_pdf()
        assert sum(len(plan.cut(s)[0]) for s in plan.subsets) == 1 + sum(
            len(pdf[list(sub)].drop_duplicates())
            for size in (1, 2)
            for sub in itertools.combinations(CFG.dims, size)
        )

    def test_empty_input_has_no_subsets(self):
        assert build_plan(toy_pdf().iloc[:0], CFG, ("delay",)).subsets == []


class TestSolveSeconds:
    """``solve_seconds`` splits a batch's wall time (one subset, every
    target) over its rows by rows × fact groups, i.e. by rows."""

    def test_rows_sum_to_batch_wall_time(self, monkeypatch):
        ticks = itertools.count(0.0, 2.5)  # every batch takes 2.5 s
        monkeypatch.setattr(preprocess, "perf_counter", lambda: next(ticks))
        plan = build_plan(two_target_pdf(), TWO_TARGETS, TWO_TARGETS.targets)
        for subset in plan.subsets:
            out = solve_subsets(plan, [subset], TWO_TARGETS.targets, "G-B").to_pandas()
            assert len(out) == 2 * len(plan.cut(subset)[0])
            assert out["solve_seconds"].sum() == pytest.approx(2.5, rel=1e-12)
            assert out["n_rows"].sum() == 2 * 60
            np.testing.assert_allclose(out["solve_seconds"], 2.5 * out["n_rows"] / 120, rtol=1e-12)

    def test_rows_sum_to_measured_time(self):
        plan = build_plan(two_target_pdf(), TWO_TARGETS, TWO_TARGETS.targets)
        for subset in plan.subsets:
            t0 = preprocess.perf_counter()
            out = solve_subsets(plan, [subset], TWO_TARGETS.targets, "E")
            wall = preprocess.perf_counter() - t0
            assert 0 < sum(out["solve_seconds"].to_pylist()) <= wall


class TestTaskAssignment:
    """``QueryPlan.assign`` splits the dimension subsets into the solve
    job's tasks; a subset's queries are solved together, by one task."""

    @pytest.mark.parametrize("k", [1, 3, 4, 50])
    def test_every_query_once(self, k):
        plan = build_plan(toy_pdf(), CFG, ("delay",))
        tasks = plan.assign(k)
        assert len(tasks) == k
        assert sorted(i for t in tasks for i in t) == list(range(len(plan.subsets)))
        keys = pd.concat(
            [
                solve_subsets(plan, [plan.subsets[i] for i in t], ("delay",), "G-B").to_pandas()
                for t in tasks if t
            ]
        )["query_key"]
        assert keys.is_unique and len(keys) == sum(len(plan.cut(s)[0]) for s in plan.subsets)

    def test_deterministic(self):
        tasks = build_plan(toy_pdf(), CFG, ("delay",)).assign(4)
        assert tasks == build_plan(toy_pdf(), CFG, ("delay",)).assign(4)

    def test_no_worse_than_stride_on_skewed_plan(self):
        """The subsets' costs are skewed by their fact groups, 7 : 4 : 2
        for zero, one and two predicates."""
        plan = build_plan(toy_pdf(), CFG, ("delay",))
        cost = sorted((plan.cost(s) for s in plan.subsets), reverse=True)
        k = 4
        stride = max(sum(cost[i::k]) for i in range(k))
        balanced = max(sum(plan.cost(plan.subsets[i]) for i in t) for t in plan.assign(k))
        assert balanced < 0.8 * stride  # 420 against 540

    def test_cost_counts_rows_per_fact_group(self):
        plan = build_plan(toy_pdf(), CFG, ("delay",))
        # no predicate: 3 free dims, facts on <= 2 of them: 1 + 3 + 3 groups
        assert plan.cost(()) == 60 * 7
        # one predicate: 2 free dims, 1 + 2 + 1 groups, over the rows of
        # all the subset's queries, which partition the table
        assert plan.cost((1,)) == 60 * 4
        # two predicates: 1 free dim, 1 + 1 groups
        assert plan.cost((0, 2)) == 60 * 2

    def test_empty_tasks_yield_no_rows(self, spark, toy_sdf):
        cfg = Config(dims=CFG.dims, targets=CFG.targets, max_query_len=0)
        k = spark.sparkContext.defaultParallelism
        plan = build_plan(toy_pdf(), cfg, cfg.targets)
        assert [len(t) for t in plan.assign(k)] == [1] + [0] * (k - 1)
        out = preprocess_target(spark, toy_sdf, cfg, "delay", method="G-B")
        assert out.count() == 1


class TestDropZipImporters:
    """``drop_zip_importers`` keeps ``importlib.invalidate_caches()``
    from re-reading zip archives on ``sys.path``, and imports from them
    still work."""

    @pytest.fixture
    def archive(self, tmp_path, monkeypatch):
        path = tmp_path / "zipped.zip"
        with zipfile.ZipFile(path, "w") as z:
            z.writestr("zipped_pkg/__init__.py", "")
            z.writestr("zipped_pkg/first.py", "VALUE = 1\n")
            z.writestr("zipped_pkg/second.py", "VALUE = 2\n")
        monkeypatch.syspath_prepend(str(path))
        yield str(path)
        for name in [m for m in sys.modules if m.startswith("zipped_pkg")]:
            del sys.modules[name]
        for key in [k for k in sys.path_importer_cache if k.startswith(str(path))]:
            del sys.path_importer_cache[key]
        zipimport._zip_directory_cache.pop(str(path), None)

    @pytest.fixture
    def reads(self, monkeypatch):
        """Archive paths whose directory ``zipimport`` reads."""
        seen = []
        real = zipimport._read_directory

        def counting(path):
            seen.append(path)
            return real(path)

        monkeypatch.setattr(zipimport, "_read_directory", counting)
        return seen

    def test_invalidate_reads_no_archive_after_drop(self, archive, reads):
        importlib.import_module("zipped_pkg.first")
        importlib.invalidate_caches()
        if sys.version_info < (3, 13):  # from 3.13, zip importers read lazily
            assert archive in reads
        reads.clear()
        drop_zip_importers()
        importlib.invalidate_caches()
        assert reads == []
        second = importlib.import_module("zipped_pkg.second")
        assert second.VALUE == 2
        assert second.__spec__.origin.startswith(archive)
        assert reads == []  # the new importer reuses the cached directory

    def test_no_op_without_zip_importers(self, reads):
        drop_zip_importers()
        before = dict(sys.path_importer_cache)
        drop_zip_importers()
        assert sys.path_importer_cache == before
        assert reads == []


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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_target(self, spark, value):
        # an infinite row makes its problems' deviations and gains NaN
        rows = self.ROWS + [("East", "Winter", "am", value)]
        with pytest.raises(ValueError, match="'delay' has infinite values"):
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
