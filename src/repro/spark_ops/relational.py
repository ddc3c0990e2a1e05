"""Relational building blocks of Algorithms 1 and 2 (Sections IV-V).

The paper executes its algorithms "as a series of SQL queries" inside
the database. This module expresses the same operators on Spark
DataFrames so Catalyst plans them:

- a *facts* DataFrame with one nullable column per dimension (NULL =
  dimension unrestricted) plus the typical value;
- the scope-match join condition ``M`` — for every dimension ``d``,
  ``F.d IS NULL OR F.d = R.d``;
- utility gain as ``Γ_{ΣU, F}(R ⋈_M F)`` — a join followed by a
  grouped sum of per-row gain.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as sf

FACT_PREFIX = "f_"  # fact-side dimension columns are prefixed to avoid clashes


def facts_dataframe(
    data: DataFrame,
    dims: list[str],
    target: str,
    max_extra_dims: int = 2,
) -> DataFrame:
    """Enumerate candidate facts as a DataFrame: one row per fact with
    nullable dimension columns (the paper's fact relation ``F``).

    One grouped aggregation per dimension subset of size ≤
    ``max_extra_dims`` (Section III: all value combinations appearing in
    the data), unioned; Spark's ``cube`` could produce the same but
    would not let us bound the subset size.

    ``fact_id`` increases in the kernel's global fact order
    (:func:`repro.core.facts.enumerate_facts`): subsets as
    ``combinations`` yields them, then the restricted values in
    dimension order. Ordering by ``fact_id`` breaks ties as the kernel
    does.
    """
    pieces = []
    for size in range(0, max_extra_dims + 1):
        for sub in combinations(dims, size):
            agg = data.groupBy(*sub).agg(
                sf.avg(sf.col(target)).alias("fact_value"),
                sf.count(sf.lit(1)).alias("fact_rows"),
            )
            proj = [
                (sf.col(d) if d in sub else sf.lit(None)).cast("string").alias(FACT_PREFIX + d)
                for d in dims
            ]
            group = sf.lit(len(pieces)).alias("fact_group")
            pieces.append(agg.select(*proj, "fact_value", "fact_rows", group))
    out = reduce(DataFrame.unionByName, pieces)
    return (
        out.orderBy("fact_group", *[FACT_PREFIX + d for d in dims])
        .withColumn("fact_id", sf.monotonically_increasing_id())
        .drop("fact_group")
    )


def scope_match(dims: list[str]) -> Column:
    """The join condition ``M``: a row is within a fact's scope iff fact
    and row agree on every restricted dimension (Definition 2)."""
    return reduce(
        lambda a, b: a & b,
        [
            sf.col(FACT_PREFIX + d).isNull()
            | (sf.col(FACT_PREFIX + d) == sf.col(d))
            for d in dims
        ],
    )


def gains_against_expectation_df(
    data: DataFrame,
    facts: DataFrame,
    dims: list[str],
    target: str,
    dev_col: str = "dev",
) -> DataFrame:
    """``Γ_{ΣU, F}(R ⋈_M F)``: per-fact summed utility gain
    ``max(0, dev_r - |v_f - v_r|)`` over in-scope rows, given the
    current per-row deviation column — Algorithm 2's Line 7. Over the
    deviation ``|prior - v_r|`` it is every fact's single-fact utility
    (Line 6 of Algorithm 1).

    Returns columns ``fact_id, utility``."""
    t = sf.col(target)
    gain = sf.greatest(
        sf.lit(0.0), sf.col(dev_col) - sf.abs(sf.col("fact_value") - t)
    )
    joined = data.join(facts, on=scope_match(dims), how="inner")
    return joined.groupBy("fact_id").agg(sf.sum(gain).alias("utility"))
