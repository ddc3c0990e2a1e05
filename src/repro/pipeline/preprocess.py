"""The batch pre-processing stage (the paper's central idea).

For every (target, query) pair the stage solves one speech
summarization problem and materializes the resulting speech. The whole
stage is a single distributed DataFrame job per target column:

1. :func:`repro.pipeline.problems.explode_queries` replicates each data
   row into every query subset it belongs to;
2. ``groupBy(query_key).applyInPandas`` ships each query's data subset
   to an executor, where the per-problem solver (greedy G-B/G-P/G-O or
   exact E from :mod:`repro.core`) selects the fact set and renders the
   speech text;
3. the resulting speeches table is written as Parquet, partitioned by
   target — the run-time component answers voice queries by lookup.

Facts for a query restrict up to ``config.max_extra_dims`` dimensions
*beyond* the query predicates (Section III); dimensions fixed by the
query are excluded from fact enumeration because every row of the
subset shares their value (such facts duplicate coarser ones).
"""
from __future__ import annotations

import json
import time
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as sf
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from ..core.exact import exact_summary
from ..core.facts import FactSet, enumerate_facts
from ..core.greedy import greedy_summary
from ..core.model import Problem, SpeechResult
from ..core.planner import opt_prune
from ..core.pruning import naive_plan
from ..core.speech import render_speech
from .config import Config, decode_key
from .problems import explode_queries

RESULT_SCHEMA = StructType(
    [
        StructField("query_key", StringType()),
        StructField("target", StringType()),
        StructField("n_rows", LongType()),
        StructField("n_facts", LongType()),
        StructField("prior", DoubleType()),
        StructField("utility", DoubleType()),
        StructField("normalized", DoubleType()),
        StructField("rows_processed", LongType()),
        StructField("solve_seconds", DoubleType()),
        StructField("facts_json", StringType()),
        StructField("speech", StringType()),
    ]
)


def make_solver(
    method: str, exact_timeout: float | None = None
) -> Callable[[Problem, FactSet, int], SpeechResult]:
    """Per-problem solver for one of the paper's four variants:
    ``E`` (exact), ``G-B`` (greedy), ``G-P`` (greedy + naive pruning),
    ``G-O`` (greedy + cost-optimized pruning), over the problem's
    already-enumerated facts. ``exact_timeout`` caps E's per-problem
    search time (the paper uses a 48 h per-scenario cap)."""

    def solve(problem: Problem, fs: FactSet, m: int) -> SpeechResult:
        if method == "E":
            return exact_summary(problem, fs, m, max_seconds=exact_timeout)
        if method == "G-B":
            return greedy_summary(problem, fs, m)
        if method == "G-P":
            return greedy_summary(problem, fs, m, plan=naive_plan(fs))
        if method == "G-O":
            return greedy_summary(problem, fs, m, plan=opt_prune(fs))
        raise ValueError(f"unknown method {method!r}")

    return solve


def solve_query_group(
    pdf: pd.DataFrame,
    config: Config,
    target: str,
    method: str,
    exact_timeout: float | None = None,
) -> pd.DataFrame:
    """Solve one query's summarization problem (runs on executors)."""
    key = pdf["query_key"].iloc[0]
    fixed = decode_key(key)
    free_dims = [d for d in config.dims if d not in fixed]
    t0 = time.perf_counter()
    if free_dims:
        problem = Problem.from_pandas(pdf, free_dims, target)
    else:  # fully-specified query: only the overall-average fact exists
        problem = Problem.from_pandas(pdf, [config.dims[0]], target)
    extra_dims = min(config.max_extra_dims, len(free_dims))
    fs = enumerate_facts(problem, max_extra_dims=extra_dims)
    solver = make_solver(method, exact_timeout=exact_timeout)
    res = solver(problem, fs, config.speech_length)
    elapsed = time.perf_counter() - t0
    facts_json = json.dumps(
        [{"scope": dict(f.scope), "value": f.value} for f in res.facts]
    )
    speech = render_speech(res.facts, target, fixed)
    return pd.DataFrame(
        [
            {
                "query_key": key,
                "target": target,
                "n_rows": len(pdf),
                "n_facts": fs.n_facts,
                "prior": problem.prior,
                "utility": res.utility,
                "normalized": res.normalized,
                "rows_processed": res.rows_processed,
                "solve_seconds": elapsed,
                "facts_json": facts_json,
                "speech": speech,
            }
        ]
    )


def preprocess_target(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    target: str,
    method: str = "G-O",
    exact_timeout: float | None = None,
) -> DataFrame:
    """The batch job for one target column: speeches for all queries."""
    exploded = explode_queries(data, config, target)

    def _solve(pdf: pd.DataFrame) -> pd.DataFrame:
        return solve_query_group(pdf, config, target, method, exact_timeout)

    return exploded.groupBy("query_key").applyInPandas(_solve, schema=RESULT_SCHEMA)


def preprocess_all(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    method: str = "G-O",
    output_path: str | None = None,
) -> DataFrame:
    """Run the batch stage for every target; optionally materialize to
    Parquet (partitioned by target) for the run-time lookup."""
    out = None
    for target in config.targets:
        part = preprocess_target(spark, data, config, target, method)
        out = part if out is None else out.unionByName(part)
    if output_path is not None:
        out.write.mode("overwrite").partitionBy("target").parquet(output_path)
        out = spark.read.parquet(output_path)
    return out
