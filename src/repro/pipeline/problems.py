"""Problem Generator (Section III).

Creates one speech-summarization problem per (target column, query)
pair, where a query is a conjunction of up to ``max_query_len`` equality
predicates on the dimension columns, over all value combinations that
appear in the data.

:func:`build_plan` is the one query generator of the program. It
dictionary-encodes each dimension once (codes in sorted-label order)
and lists every *dimension subset* a query may fix. The queries that fix
the same subset partition the rows, and :meth:`QueryPlan.cut` cuts them
all at once from the codes: one stable sort on the subset's codes puts
each query's rows together, in input order, and the queries' problems
become one :class:`~repro.core.model.Problem` per target, a batch with
one run of rows per query. The subset is the unit of work: the Spark
job in :mod:`repro.pipeline.preprocess`, the local solve loop and the
Figure 10 baseline all cut and solve the subsets of one plan.

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
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as sf

from ..core.model import Problem, encode_column
from .config import Config, KEY_SEP, KV_SEP


@dataclass
class QueryPlan:
    """The integer-coded input table and every dimension subset a query
    may fix.

    ``codes[i, j]`` is the code of row ``i`` in dimension ``j``;
    ``labels[j][c]`` is the value of code ``c``. Codes follow the sorted
    labels, so every problem's facts come out in label order. A subset
    is a tuple of dimension indices, ascending."""

    config: Config
    codes: np.ndarray  # (n, d) int32
    labels: list[np.ndarray]
    targets: dict[str, np.ndarray]  # target name -> (n,) float64
    subsets: list[tuple[int, ...]]  # by size, then lexicographically

    def free_dims(self, subset: tuple[int, ...]) -> list[int]:
        """The dimensions a subset's problems keep. A fully specified
        query has only the overall-average fact: its problem keeps the
        first dimension, and :meth:`extra_dims` is 0."""
        return [j for j in range(len(self.config.dims)) if j not in subset] or [0]

    def extra_dims(self, subset: tuple[int, ...]) -> int:
        """How many dimensions a fact may restrict beyond the query."""
        n_free = len(self.config.dims) - len(subset)
        return min(self.config.max_extra_dims, n_free)

    def cost(self, subset: tuple[int, ...]) -> int:
        """Estimated cost of solving a subset's queries for one target, in
        row visits: one pass over the table's rows (which the queries
        partition) per fact group, Σ_{s ≤ extra dims} C(free, s)."""
        n_free = len(self.config.dims) - len(subset)
        groups = sum(comb(n_free, s) for s in range(self.extra_dims(subset) + 1))
        return self.codes.shape[0] * groups

    def assign(self, k: int) -> list[list[int]]:
        """Split the subsets into ``k`` tasks of about equal estimated
        cost, as lists of indices into :attr:`subsets`.

        Longest processing time first (Graham, 1969): each subset, by
        decreasing :meth:`cost`, goes to the task with the least load so
        far. Ties go to the lower subset and task index, and loads are
        integers, so the split depends on the plan alone."""
        costs = [self.cost(s) for s in self.subsets]
        order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
        loads = [(0, t) for t in range(k)]
        tasks: list[list[int]] = [[] for _ in range(k)]
        for i in order:
            load, t = heapq.heappop(loads)
            tasks[t].append(i)
            heapq.heappush(loads, (load + costs[i], t))
        return tasks

    def cut(self, subset: tuple[int, ...]) -> tuple[list[dict[str, str]], dict[str, Problem]]:
        """The queries that fix the dimensions ``subset``: their
        predicates, in the order of their codes, and per target the
        batch of their problems over the free dimensions, query ``i``
        being problem ``i``. A stable sort on the subset's codes makes
        each query's rows contiguous and keeps them in input order; each
        problem's prior is the mean target value of its rows."""
        dims, n = self.config.dims, self.codes.shape[0]
        if subset:
            order = np.lexsort(self.codes[:, subset[::-1]].T)  # stable
            fixed = self.codes[order][:, subset]
            breaks = np.flatnonzero((fixed[1:] != fixed[:-1]).any(axis=1)) + 1
            bounds = np.concatenate(([0], breaks, [n]))
        else:
            order, fixed, bounds = np.arange(n), self.codes[:, ()], np.array([0, n])
        predicates = [
            {dims[j]: self.labels[j][c] for j, c in zip(subset, row)}
            for row in fixed[bounds[:-1]].tolist()
        ]
        free = self.free_dims(subset)
        matrix = self.codes[np.ix_(order, free)]
        batches = {
            t: Problem(
                dim_names=[dims[j] for j in free],
                dim_matrix=matrix,
                dim_labels=[self.labels[j] for j in free],
                target=y[order],
                bounds=bounds,
                target_name=t,
            )
            for t, y in self.targets.items()
        }
        return predicates, batches


def _check_separators(what: str, value: str) -> None:
    if KEY_SEP in value or KV_SEP in value:
        raise ValueError(f"{what} contains {KEY_SEP!r} or {KV_SEP!r}, the query-key separators")


def build_plan(
    table: pa.Table | pd.DataFrame, config: Config, targets: tuple[str, ...]
) -> QueryPlan:
    """Encode ``table`` (a pandas frame is converted to Arrow first) and
    list every dimension subset a query of ``config`` may fix (none for
    an empty table). Each dimension is encoded by
    :func:`~repro.core.model.encode_column`.

    Raises ``ValueError``, naming the column, on a NULL dimension value,
    a NULL, NaN or infinite target, or a query-key separator (``|`` or
    ``=``) in a dimension name or value: such rows have no well-defined
    query key or utility."""
    dims = list(config.dims)
    if isinstance(table, pd.DataFrame):
        table = pa.Table.from_pandas(table[dims + list(targets)], preserve_index=False)
    for d in dims:
        _check_separators(f"dimension name {d!r}", d)
        if table[d].null_count:
            raise ValueError(f"dimension column {d!r} has NULL values")
    ys = {}
    for t in targets:
        ys[t] = np.asarray(table[t].to_numpy(), dtype=np.float64)  # NULL -> NaN
        if np.isnan(ys[t]).any():
            raise ValueError(f"target column {t!r} has NULL or NaN values")
        if np.isinf(ys[t]).any():
            raise ValueError(f"target column {t!r} has infinite values")
    codes = np.empty((table.num_rows, len(dims)), dtype=np.int32)
    labels = []
    for j, d in enumerate(dims):
        codes[:, j], uniques = encode_column(table[d])
        for v in uniques:
            _check_separators(f"dimension column {d!r} value {v!r}", v)
        labels.append(uniques)

    subsets = [
        subset
        for size in range(config.max_query_len + 1)
        for subset in combinations(range(len(dims)), size)
    ] if table.num_rows else []
    return QueryPlan(config=config, codes=codes, labels=labels, targets=ys, subsets=subsets)


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
