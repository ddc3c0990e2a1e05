"""The batch pre-processing stage (the paper's central idea).

For every (target, query) pair the stage solves one speech
summarization problem and materializes the resulting speech. The whole
stage is one Spark job for all targets:

1. the driver collects the dimension and target columns once and builds
   the :class:`~repro.pipeline.problems.QueryPlan`: each dimension
   dictionary-encoded once, every query with the indices of its rows;
2. the plan is broadcast, and ``k = defaultParallelism`` tasks of a
   ``mapInPandas`` job each solve their share of the queries
   (:meth:`~repro.pipeline.problems.QueryPlan.assign`: longest first,
   each to the least-loaded task by estimated cost) for every target,
   with the per-problem solver (greedy G-B/G-P/G-O or exact E from
   :mod:`repro.core`), and render the speech text. No row is
   replicated or shuffled, and each task makes one call into Python;
3. the driver collects the speech rows (one per (target, query); a few
   hundred to some 17,000 at paper scale) with Arrow, writes them in
   (target, query_key) order as one Parquet file, and reads the table
   back with its known schema — the run-time component answers voice
   queries by lookup.

Facts for a query restrict up to ``config.max_extra_dims`` dimensions
*beyond* the query predicates (Section III); dimensions fixed by the
query are excluded from fact enumeration because every row of the
subset shares their value (such facts duplicate coarser ones).
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import time
import zipimport
from typing import Callable
from urllib.parse import urlsplit

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as sf
from pyspark.sql.pandas.types import to_arrow_schema
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
from .config import Config
from .problems import Query, QueryPlan, build_plan

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


def solve_query(
    plan: QueryPlan,
    query: Query,
    target: str,
    solve: Callable[[Problem, FactSet, int], SpeechResult],
) -> dict:
    """Solve one (target, query) problem; returns its speech-table row."""
    t0 = time.perf_counter()
    problem = plan.problem(query, target)
    fs = enumerate_facts(problem, max_extra_dims=plan.extra_dims(query))
    res = solve(problem, fs, plan.config.speech_length)
    elapsed = time.perf_counter() - t0
    facts_json = json.dumps(
        [{"scope": dict(f.scope), "value": f.value} for f in res.facts]
    )
    return {
        "query_key": query.key,
        "target": target,
        "n_rows": problem.n_rows,
        "n_facts": fs.n_facts,
        "prior": problem.prior,
        "utility": res.utility,
        "normalized": res.normalized,
        "rows_processed": res.rows_processed,
        "solve_seconds": elapsed,
        "facts_json": facts_json,
        "speech": render_speech(res.facts, target, query.predicates),
    }


def solve_queries(
    plan: QueryPlan,
    queries: list[Query],
    targets: tuple[str, ...],
    method: str,
    exact_timeout: float | None = None,
) -> pd.DataFrame:
    """Speech-table rows of ``queries`` for every target, in one frame."""
    solve = make_solver(method, exact_timeout=exact_timeout)
    rows = [solve_query(plan, q, t, solve) for q in queries for t in targets]
    return pd.DataFrame(rows, columns=RESULT_SCHEMA.fieldNames())


def drop_zip_importers() -> None:
    """Drop every zip archive's importer from ``sys.path_importer_cache``.

    PySpark starts each Python task with ``importlib.invalidate_caches()``,
    and up to CPython 3.12 every cached ``zipimporter`` then reads
    its archive's whole directory again: some 16 importers of packages
    inside ``pyspark.zip``, about 0.15 CPU-s per task. The cache is only
    a cache: a later import from the archive makes a new importer, which
    takes the directory from ``zipimport._zip_directory_cache`` without
    reading the archive. Called at the end of each solve task, so a
    reused worker's next task has no archive to read. Nothing happens
    where no zip importer is cached (Python 3.13 reads lazily anyway)."""
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def _solve_job(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    targets: tuple[str, ...],
    method: str,
    exact_timeout: float | None,
) -> DataFrame:
    """One job solving every query of ``targets``: task ``i`` of ``k``
    solves the queries ``plan.assign(k)[i]``."""
    frame = data.select(
        *[sf.col(d).cast("string").alias(d) for d in config.dims],
        *[sf.col(t).cast("double").alias(t) for t in targets],
    ).toPandas()
    plan = build_plan(frame, config, targets)
    k = spark.sparkContext.defaultParallelism
    tasks = plan.assign(k)
    shared = spark.sparkContext.broadcast(plan)

    def solve_tasks(batches):
        plan = shared.value
        for batch in batches:
            for i in batch["id"].tolist():
                if tasks[i]:  # else: no query, no rows
                    queries = [plan.queries[j] for j in tasks[i]]
                    yield solve_queries(plan, queries, targets, method, exact_timeout)
        drop_zip_importers()

    return spark.range(0, k, 1, numPartitions=k).mapInPandas(solve_tasks, schema=RESULT_SCHEMA)


def preprocess_target(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    target: str,
    method: str = "G-O",
    exact_timeout: float | None = None,
) -> DataFrame:
    """The batch job for one target column: speeches for all queries."""
    return _solve_job(spark, data, config, (target,), method, exact_timeout)


SPEECH_FILE = "speeches.parquet"


def local_path(output_path: str) -> str:
    """The absolute driver-local path of ``output_path``: a plain path or
    a ``file://`` URI. An empty path, and any other scheme (``hdfs://``,
    ``s3a://``, ...), raises ``ValueError``: the driver writes the speech
    table itself, and an empty path would name the working directory."""
    parts = urlsplit(output_path)
    if parts.scheme == "":
        path = output_path
    elif parts.scheme == "file" and parts.netloc in ("", "localhost"):
        path = parts.path
    else:
        raise ValueError(
            f"output_path {output_path!r} is not a driver-local path; "
            "give a plain path or a file:// URI"
        )
    if not path:
        raise ValueError(f"output_path {output_path!r} names no directory")
    return os.path.abspath(path)


def is_speech_table(path: str) -> bool:
    """Whether ``path`` is a directory holding only what a speech-table
    write leaves: :data:`SPEECH_FILE`, or the part files, ``target=``
    directories, ``_SUCCESS`` and ``.crc`` checksums of Spark's writer.
    Only such a directory is replaced by :func:`preprocess_all`."""
    if os.path.islink(path) or not os.path.isdir(path):
        return False
    return all(
        name in (SPEECH_FILE, "_SUCCESS")
        or name.startswith(("part-", "target="))
        or (name.startswith(".") and name.endswith(".crc"))
        for name in os.listdir(path)
    )


def preprocess_all(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    method: str = "G-O",
    output_path: str | None = None,
) -> DataFrame:
    """Run the batch stage for every target in one job; optionally
    materialize the speech table for the run-time lookup.

    With ``output_path`` (a driver-local directory, see
    :func:`local_path`) the driver collects the job's rows, replaces
    the directory at ``output_path`` with one holding a single Parquet
    file of the rows in (target, query_key) order, and returns that
    table read back with ``RESULT_SCHEMA``. If ``output_path`` exists
    and is not a speech table (:func:`is_speech_table`), ``ValueError``
    is raised before the job runs. The old table is removed only after
    the solve job has succeeded."""
    path = None if output_path is None else local_path(output_path)
    if path is not None and os.path.lexists(path) and not is_speech_table(path):
        raise ValueError(f"output_path {output_path!r} exists and is not a speech table")
    out = _solve_job(spark, data, config, config.targets, method, None)
    if path is None:
        return out
    rows = out.toPandas().sort_values(["target", "query_key"], ignore_index=True)
    table = pa.Table.from_pandas(rows, schema=to_arrow_schema(RESULT_SCHEMA), preserve_index=False)
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    pq.write_table(table, os.path.join(path, SPEECH_FILE))
    # a file:// URI: a bare path would resolve against fs.defaultFS
    return spark.read.schema(RESULT_SCHEMA).parquet(pathlib.Path(path).as_uri())
