"""Problem Generator (Section III).

Creates one speech-summarization problem per (target column, query)
pair, where a query is a conjunction of up to ``max_query_len`` equality
predicates on the dimension columns, over all value combinations that
appear in the data.

:func:`build_plan` is the one query generator of the program. It
dictionary-encodes each dimension once (codes in sorted-label order)
and lists every query with the indices of its rows, in input order.
:meth:`QueryPlan.problem` cuts a query's problem out of those codes, so
no query re-encodes its subset. The Spark job in
:mod:`repro.pipeline.preprocess`, the local solve loop and the Figure 10
baseline all solve the queries of one plan.

:func:`explode_queries` states the same query set relationally: each row
replicated into every dimension subset of size ≤ L, tagged with its
query key. It defines :func:`count_queries` and serves as a reference;
the pipeline does not run it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as sf

from ..core.model import Problem, encode_column
from .config import Config, KEY_SEP, KV_SEP, encode_key

# Fixed cost of one problem in row visits (cutting it, planning, the
# solver's set-up and rendering): about 1 ms, the time of some 20,000
# row visits of the fact enumeration and gain kernels, as measured in
# process on both flights benchmark workloads.
PROBLEM_COST = 20_000


@dataclass(frozen=True)
class Query:
    """One query: its canonical key, predicates and row indices."""

    key: str
    predicates: dict[str, str]
    rows: np.ndarray  # indices into the plan's rows, ascending


@dataclass
class QueryPlan:
    """The integer-coded input table and every query over it.

    ``codes[i, j]`` is the code of row ``i`` in dimension ``j``;
    ``labels[j][c]`` is the value of code ``c``. Codes follow the sorted
    labels, so every problem's facts come out in label order."""

    config: Config
    codes: np.ndarray  # (n, d) int32
    labels: list[np.ndarray]
    targets: dict[str, np.ndarray]  # target name -> (n,) float64
    queries: list[Query]  # by decreasing row count

    def problem(self, query: Query, target: str) -> Problem:
        """The query's summarization problem over its free dimensions,
        with the mean target value of its rows as the prior. A fully
        specified query has only the overall-average fact: its problem
        keeps the first dimension, and :meth:`extra_dims` is 0."""
        dims = self.config.dims
        free = [j for j, d in enumerate(dims) if d not in query.predicates] or [0]
        y = self.targets[target][query.rows]
        return Problem(
            dim_names=[dims[j] for j in free],
            dim_matrix=self.codes[np.ix_(query.rows, free)],
            dim_labels=[self.labels[j] for j in free],
            target=y,
            prior=float(np.mean(y)),
            target_name=target,
        )

    def extra_dims(self, query: Query) -> int:
        """How many dimensions a fact may restrict beyond the query."""
        n_free = len(self.config.dims) - len(query.predicates)
        return min(self.config.max_extra_dims, n_free)

    def cost(self, query: Query) -> int:
        """Estimated cost of one of the query's problems, in row visits:
        one pass over its rows per fact group (Σ_{s ≤ extra dims}
        C(free, s) groups) plus :data:`PROBLEM_COST`."""
        n_free = len(self.config.dims) - len(query.predicates)
        groups = sum(comb(n_free, s) for s in range(self.extra_dims(query) + 1))
        return len(query.rows) * groups + PROBLEM_COST

    def assign(self, k: int) -> list[list[int]]:
        """Split the queries into ``k`` tasks of about equal estimated
        cost, as lists of indices into :attr:`queries`.

        Longest processing time first (Graham, 1969): each query, by
        decreasing :meth:`cost`, goes to the task with the least load so
        far. Ties go to the lower query and task index, and loads are
        integers, so the split depends on the plan alone."""
        costs = [self.cost(q) for q in self.queries]
        order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
        loads = [(0, t) for t in range(k)]
        tasks: list[list[int]] = [[] for _ in range(k)]
        for i in order:
            load, t = heapq.heappop(loads)
            tasks[t].append(i)
            heapq.heappush(loads, (load + costs[i], t))
        return tasks


def _check_separators(what: str, value: str) -> None:
    if KEY_SEP in value or KV_SEP in value:
        raise ValueError(f"{what} contains {KEY_SEP!r} or {KV_SEP!r}, the query-key separators")


def build_plan(frame: pd.DataFrame, config: Config, targets: tuple[str, ...]) -> QueryPlan:
    """Encode ``frame`` and list every query of ``config`` over it.

    Raises ``ValueError``, naming the column, on a NULL dimension value,
    a NULL or NaN target, or a query-key separator (``|`` or ``=``) in a
    dimension name or value: such rows have no well-defined query key
    or utility."""
    dims = list(config.dims)
    for d in dims:
        _check_separators(f"dimension name {d!r}", d)
        if frame[d].isna().any():
            raise ValueError(f"dimension column {d!r} has NULL values")
    ys = {}
    for t in targets:
        ys[t] = frame[t].to_numpy(dtype=np.float64)
        if np.isnan(ys[t]).any():
            raise ValueError(f"target column {t!r} has NULL or NaN values")
    codes = np.empty((len(frame), len(dims)), dtype=np.int32)
    labels = []
    for j, d in enumerate(dims):
        codes[:, j], uniques = encode_column(frame[d])
        for v in uniques:
            _check_separators(f"dimension column {d!r} value {v!r}", v)
        labels.append(uniques)

    coded = pd.DataFrame(codes, columns=range(len(dims)))
    queries = [Query("", {}, np.arange(len(coded)))] if len(coded) else []
    for size in range(1, config.max_query_len + 1):
        for subset in combinations(range(len(dims)), size):
            for key, rows in coded.groupby(list(subset), sort=True).indices.items():
                key = key if isinstance(key, tuple) else (key,)
                preds = {dims[j]: labels[j][c] for j, c in zip(subset, key)}
                queries.append(Query(encode_key(preds), preds, rows))
    queries.sort(key=lambda q: -len(q.rows))
    return QueryPlan(config=config, codes=codes, labels=labels, targets=ys, queries=queries)


def _key_expr(subset: tuple[str, ...]):
    """Column expression computing the canonical query key of a row for
    one dimension subset (dims sorted by name, 'd=v|d=v' encoding)."""
    if not subset:
        return sf.lit("")
    parts = [
        sf.concat(sf.lit(d + KV_SEP), sf.col(d).cast("string"))
        for d in sorted(subset)
    ]
    return sf.concat_ws(KEY_SEP, *parts)


def explode_queries(data: DataFrame, config: Config, target: str) -> DataFrame:
    """Replicate each row into every query subset it belongs to.

    Output columns: ``query_key`` + every dimension (as string) + the
    target. Row count = |data| · Σ_{l≤L} C(d, l).
    """
    payload = [sf.col(d).cast("string").alias(d) for d in config.dims] + [
        sf.col(target).cast("double").alias(target)
    ]
    pieces = []
    for size in range(0, config.max_query_len + 1):
        for subset in combinations(config.dims, size):
            pieces.append(
                data.select(_key_expr(subset).alias("query_key"), *payload)
            )
    return reduce(DataFrame.unionByName, pieces)


def count_queries(data: DataFrame, config: Config) -> int:
    """Number of distinct queries per target (the paper's speech counts:
    ~8,500 for flights, ~11,300 for Stack Overflow, ~2,900 for ACS)."""
    exploded = explode_queries(data, config, config.targets[0])
    return exploded.select("query_key").distinct().count()
