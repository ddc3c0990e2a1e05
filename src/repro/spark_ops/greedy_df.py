"""Algorithm 2 as an iterative DataFrame program (Section V).

This is the paper's pseudo-code executed through Catalyst: the relation
``R`` carries a per-row deviation column (the distance between the
user's current expectation and the truth — initialized from the prior,
Definition 4); each iteration computes per-fact gains with the ``⋈_M``
join + grouped sum, selects the argmax fact, and rewrites the deviation
column via a join with that single fact (Line 11's ``Π_E(R ⋈_M f*)``).

Used to validate the relational formulation against the NumPy kernels;
the batch pre-processing pipeline uses the kernels inside its solve
job's tasks because its problems are many and small.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as sf

from .relational import (
    FACT_PREFIX,
    facts_dataframe,
    gains_against_expectation_df,
    scope_match,
)


@dataclass
class DFSpeech:
    """Outcome of the DataFrame-level greedy run."""

    facts: list[dict]  # each: {dim: value} scope (strings) + "value"
    utility: float
    prior_error: float

    @property
    def normalized(self) -> float:
        return 1.0 if self.prior_error <= 0 else self.utility / self.prior_error


def greedy_summary_df(
    spark: SparkSession,
    data: DataFrame,
    dims: list[str],
    target: str,
    m: int,
    prior: float | None = None,
    max_extra_dims: int = 2,
) -> DFSpeech:
    """Greedy speech construction entirely through DataFrame operators."""
    if prior is None:
        prior = data.agg(sf.avg(target)).collect()[0][0]
    facts = facts_dataframe(data, dims, target, max_extra_dims).cache()

    # R with the running deviation column (expectation starts at prior)
    t = sf.col(target)
    r = data.select(
        *[sf.col(d).cast("string").alias(d) for d in dims],
        t.alias(target),
        sf.abs(sf.lit(float(prior)) - t).alias("dev"),
    ).cache()

    prior_error = r.agg(sf.sum("dev")).collect()[0][0] or 0.0
    chosen: list[dict] = []
    for _ in range(m):
        gains = gains_against_expectation_df(r, facts, dims, target, "dev")
        top = gains.orderBy(sf.desc("utility"), sf.asc("fact_id")).limit(1).collect()
        if not top or top[0]["utility"] <= 0:
            break
        best_id = top[0]["fact_id"]
        best = facts.filter(sf.col("fact_id") == best_id)
        row = best.collect()[0]
        chosen.append(
            {
                "scope": {
                    d: row[FACT_PREFIX + d]
                    for d in dims
                    if row[FACT_PREFIX + d] is not None
                },
                "value": float(row["fact_value"]),
            }
        )
        # Line 11: recalculate expectations — rows in the fact's scope
        # keep the smaller of current deviation and |v_f - v_r|.
        joined = r.join(best, on=scope_match(dims), how="left")
        r_new = joined.select(
            *dims,
            target,
            sf.when(
                sf.col("fact_value").isNotNull(),
                sf.least(sf.col("dev"), sf.abs(sf.col("fact_value") - t)),
            )
            .otherwise(sf.col("dev"))
            .alias("dev"),
        ).cache()
        r.unpersist()
        r = r_new

    final_error = r.agg(sf.sum("dev")).collect()[0][0] or 0.0
    facts.unpersist()
    r.unpersist()
    return DFSpeech(
        facts=chosen, utility=prior_error - final_error, prior_error=prior_error
    )
