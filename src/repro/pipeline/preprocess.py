"""The batch pre-processing stage (the paper's central idea).

For every (target, query) pair the stage solves one speech
summarization problem and materializes the resulting speech. The whole
stage is one Spark job for all targets:

1. the driver collects the dimension and target columns once, as
   Arrow, with one projection (:func:`collect_input`), and builds the
   :class:`~repro.pipeline.problems.QueryPlan`: each dimension
   dictionary-encoded once, and the list of dimension subsets a query
   may fix;
2. ``k = defaultParallelism`` tasks of one RDD job each solve their
   share of the subsets
   (:meth:`~repro.pipeline.problems.QueryPlan.assign`: longest first,
   each to the least-loaded task by estimated rows × fact groups). The
   job's closure carries the plan — codes, labels, targets and the
   subset list — and the task split; PySpark broadcasts a pickled
   closure over 1 MiB by itself. A task cuts all queries of a subset
   from the codes at once
   (:meth:`~repro.pipeline.problems.QueryPlan.cut`) and, per target,
   solves their problems as one batch: one fact lattice
   (:func:`~repro.core.facts.enumerate_facts`) and one gain kernel per
   greedy iteration for the batch, with the paper's solvers (greedy
   G-B/G-P/G-O or exact E from :mod:`repro.core`), then renders each
   speech. No row is replicated or shuffled, and each task makes one
   call into Python and returns its rows as one Arrow table;
3. the driver concatenates the speech rows (one per (target, query); a
   few hundred to some 17,000 at paper scale) and sorts them by
   (target, query_key) with Arrow, writes them as one Parquet file, and
   reads the table back with its known schema — the run-time component
   answers voice queries by lookup.

Facts for a query restrict up to ``config.max_extra_dims`` dimensions
*beyond* the query predicates (Section III); dimensions fixed by the
query are excluded from fact enumeration because every row of the
subset shares their value (such facts duplicate coarser ones).

A row's ``solve_seconds`` is its problem's share of its batch's wall
time — cutting, enumeration, solving and rendering of one subset for
all targets — split by rows × fact groups. Every problem of a subset
has the same groups, so the split is by rows, and the rows of a batch
sum to its wall time.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import zipimport
from time import perf_counter
from typing import Callable
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from ..core.exact import exact_batch
from ..core.facts import FactSet, enumerate_facts
from ..core.greedy import greedy_batch
from ..core.model import SpeechResult
from ..core.planner import needs_planning, opt_prune
from ..core.pruning import naive_plan
from ..core.speech import render_speech
from .config import Config, encode_key
from .problems import QueryPlan, build_plan

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
ARROW_SCHEMA = to_arrow_schema(RESULT_SCHEMA)


def make_solver(
    method: str, exact_timeout: float | None = None
) -> Callable[[FactSet, int], list[SpeechResult]]:
    """Batch solver for one of the paper's four variants: ``E``
    (exact), ``G-B`` (greedy), ``G-P`` (greedy + naive pruning), ``G-O``
    (greedy + cost-optimized pruning), over a batch's already-enumerated
    facts; returns one result per problem. G-O plans only the problems
    whose work reaches the planning threshold. ``exact_timeout`` caps
    E's per-problem search time (the paper uses a 48 h per-scenario
    cap)."""

    def solve(fs: FactSet, m: int) -> list[SpeechResult]:
        if method == "E":
            return exact_batch(fs, m, max_seconds=exact_timeout)
        if method == "G-B":
            return greedy_batch(fs, m)
        if method == "G-P":
            return greedy_batch(fs, m, naive_plan)
        if method == "G-O":
            return greedy_batch(fs, m, opt_prune, np.flatnonzero(needs_planning(fs)))
        raise ValueError(f"unknown method {method!r}")

    return solve


def solve_subset(
    plan: QueryPlan,
    subset: tuple[int, ...],
    targets: tuple[str, ...],
    solve: Callable[[FactSet, int], list[SpeechResult]],
) -> pa.Table:
    """Speech-table rows of every query that fixes the dimensions
    ``subset``, for every target: one batch per target."""
    t0 = perf_counter()
    predicates, batches = plan.cut(subset)
    keys = [encode_key(p) for p in predicates]
    rows = []
    for target in targets:
        batch = batches[target]
        fs = enumerate_facts(batch, max_extra_dims=plan.extra_dims(subset))
        n_facts = np.diff(fs.problem_offsets)
        results = solve(fs, plan.config.speech_length)
        for i, res in enumerate(results):
            facts_json = json.dumps(
                [{"scope": dict(f.scope), "value": f.value} for f in res.facts]
            )
            rows.append(
                {
                    "query_key": keys[i],
                    "target": target,
                    "n_rows": int(batch.sizes[i]),
                    "n_facts": int(n_facts[i]),
                    "prior": float(batch.priors[i]),
                    "utility": res.utility,
                    "normalized": res.normalized,
                    "rows_processed": res.rows_processed,
                    "facts_json": facts_json,
                    "speech": render_speech(res.facts, target, predicates[i]),
                }
            )
    # every problem of the subset has the same fact groups: rows × groups ∝ rows
    wall, total = perf_counter() - t0, sum(row["n_rows"] for row in rows)
    for row in rows:
        row["solve_seconds"] = wall * row["n_rows"] / total
    return pa.Table.from_pylist(rows, schema=ARROW_SCHEMA)


def solve_subsets(
    plan: QueryPlan,
    subsets: list[tuple[int, ...]],
    targets: tuple[str, ...],
    method: str,
    exact_timeout: float | None = None,
) -> pa.Table:
    """Speech-table rows of every query of ``subsets`` for every target,
    in one table."""
    solve = make_solver(method, exact_timeout=exact_timeout)
    return _concat([solve_subset(plan, s, targets, solve) for s in subsets])


def _concat(tables: list[pa.Table]) -> pa.Table:
    """``tables`` as one table in :data:`ARROW_SCHEMA`, also when there
    are none."""
    return pa.concat_tables([ARROW_SCHEMA.empty_table(), *tables])


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


def _quote(name: str) -> str:
    """``name`` as a Spark SQL identifier: in backticks, each backtick
    doubled, so dots, spaces and backticks are part of the name."""
    return "`" + name.replace("`", "``") + "`"


def collect_input(data: DataFrame, config: Config, targets: tuple[str, ...]) -> pa.Table:
    """The dimension columns as strings and ``targets`` as doubles, in
    that order, collected as Arrow by one projection. A column is cast
    only where ``data``'s schema does not already have that type."""
    types = {f.name: f.dataType for f in data.schema.fields}
    exprs = []
    for names, kind, sql_type in ((config.dims, StringType, "STRING"), (targets, DoubleType, "DOUBLE")):
        for name in names:
            q = _quote(name)
            column = q if isinstance(types.get(name), kind) else f"CAST({q} AS {sql_type})"
            exprs.append(f"{column} AS {q}")
    return data.selectExpr(*exprs).toArrow()


def _solve_job(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    targets: tuple[str, ...],
    method: str,
    exact_timeout: float | None,
) -> pa.Table:
    """Every speech row of ``targets``, sorted by (target, query_key),
    from one Spark job: task ``i`` of ``k`` solves the subsets
    ``plan.assign(k)[i]``. The tasks get the plan and the split in the
    job's closure."""
    plan = build_plan(collect_input(data, config, targets), config, targets)
    sc = spark.sparkContext
    k = sc.defaultParallelism
    tasks = plan.assign(k)

    def solve_task(ids):
        for i in ids:
            if tasks[i]:  # else: no subset, no rows
                subsets = [plan.subsets[j] for j in tasks[i]]
                yield solve_subsets(plan, subsets, targets, method, exact_timeout)
        drop_zip_importers()

    tables = sc.parallelize(range(k), k).mapPartitions(solve_task).collect()
    return _concat(tables).sort_by([("target", "ascending"), ("query_key", "ascending")])


def preprocess_target(
    spark: SparkSession,
    data: DataFrame,
    config: Config,
    target: str,
    method: str = "G-O",
    exact_timeout: float | None = None,
) -> DataFrame:
    """The batch job for one target column: speeches for all queries,
    solved when called, as a DataFrame of the driver's rows."""
    rows = _solve_job(spark, data, config, (target,), method, exact_timeout)
    return spark.createDataFrame(rows, RESULT_SCHEMA)


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

    Without ``output_path`` the driver's rows, in (target, query_key)
    order, are returned as a DataFrame. With ``output_path`` (a
    driver-local directory, see :func:`local_path`) the driver replaces
    the directory at ``output_path`` with one holding a single Parquet
    file of the rows in (target, query_key) order, and returns that
    table read back with ``RESULT_SCHEMA``. If ``output_path`` exists
    and is not a speech table (:func:`is_speech_table`), ``ValueError``
    is raised before the job runs. The old table is removed only after
    the solve job has succeeded."""
    path = None if output_path is None else local_path(output_path)
    if path is not None and os.path.lexists(path) and not is_speech_table(path):
        raise ValueError(f"output_path {output_path!r} exists and is not a speech table")
    rows = _solve_job(spark, data, config, config.targets, method, None)
    if path is None:
        return spark.createDataFrame(rows, RESULT_SCHEMA)
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    pq.write_table(rows, os.path.join(path, SPEECH_FILE))
    # a file:// URI: a bare path would resolve against fs.defaultFS
    return spark.read.schema(RESULT_SCHEMA).parquet(pathlib.Path(path).as_uri())
