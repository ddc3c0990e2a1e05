"""Experiment harness shared by ``jobs/`` entrypoints and benchmarks.

Each function reproduces one table/figure of the evaluation section at
a laptop scale (the substrate is local Spark, not the paper's EC2 +
Postgres testbed): absolute numbers differ, the *shape* — who wins, by
what rough factor, where things blow up — is what EXPERIMENTS.md diffs
against the paper.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from . import datasets as ds
from .baseline.sampling import sampling_summary
from .core.facts import enumerate_facts
from .pipeline.config import Config, decode_key, encode_key
from .pipeline.lookup import SpeechIndex
from .pipeline.preprocess import preprocess_target, solve_subsets
from .pipeline.problems import build_plan

# ---------------------------------------------------------------- Fig. 3

#: The eight target cases of Figure 3 (scenario-target pairs) with the
#: scale factors used for the scaled-down reproduction. Paper fact
#: counts per whole-table problem: ACS 764, flights 1,300, SO 3,700.
FIG3_CASES = [
    ("F-C", "flights", "cancelled", 0.0004),
    ("F-D", "flights", "delay_minutes", 0.0004),
    ("A-H", "acs", "hearing_loss", 0.02),
    ("A-V", "acs", "visual_impairment", 0.02),
    ("A-C", "acs", "cognitive_impairment", 0.02),
    ("S-C", "stackoverflow", "competence", 0.0006),
    ("S-O", "stackoverflow", "optimism", 0.0006),
    ("S-S", "stackoverflow", "job_satisfaction", 0.0006),
]

METHODS = ("E", "G-B", "G-P", "G-O")


def scenario_config(dataset: str) -> Config:
    spec = ds.SPECS[dataset]
    return Config(dims=spec.dims, targets=spec.targets)


@dataclass
class MethodRun:
    """One (case, method) cell of Figure 3."""

    case: str
    method: str
    n_queries: int
    wall_seconds: float
    solver_seconds: float  # Σ per-problem solve time (excludes Spark overhead)
    avg_normalized: float  # utility scaled by D(∅) per instance
    avg_vs_exact: float | None  # utility relative to E (1.0 = optimal)
    rows_processed: int
    per_query: pd.DataFrame = field(repr=False, default=None)


def run_fig3_case(
    spark: SparkSession,
    case: str,
    dataset: str,
    target: str,
    sf: float,
    methods: tuple[str, ...] = METHODS,
    exact_timeout: float = 10.0,
) -> list[MethodRun]:
    """Run all methods over every query of one scenario-target case."""
    config = scenario_config(dataset)
    data = ds.load_spark(spark, dataset, sf=sf).cache()
    data.count()  # materialize before timing
    runs: dict[str, MethodRun] = {}
    for method in methods:
        t0 = time.perf_counter()
        pdf = preprocess_target(
            spark, data, config, target, method=method, exact_timeout=exact_timeout
        ).toPandas()
        wall = time.perf_counter() - t0
        runs[method] = MethodRun(
            case=case,
            method=method,
            n_queries=len(pdf),
            wall_seconds=wall,
            solver_seconds=float(pdf["solve_seconds"].sum()),
            avg_normalized=float(pdf["normalized"].mean()),
            avg_vs_exact=None,
            rows_processed=int(pdf["rows_processed"].sum()),
            per_query=pdf.set_index("query_key"),
        )
    if "E" in runs:
        e_util = runs["E"].per_query["utility"]
        for method, run in runs.items():
            ratio = (
                run.per_query["utility"].div(e_util).where(e_util > 0, 1.0)
            )
            run.avg_vs_exact = float(ratio.clip(upper=1.0).mean())
    data.unpersist()
    return [runs[m] for m in methods]


def run_fig3(
    spark: SparkSession,
    cases=FIG3_CASES,
    methods: tuple[str, ...] = METHODS,
    exact_timeout: float = 10.0,
) -> pd.DataFrame:
    rows = []
    for case, dataset, target, sf in cases:
        for run in run_fig3_case(
            spark, case, dataset, target, sf, methods, exact_timeout
        ):
            rows.append(
                {
                    "case": run.case,
                    "method": run.method,
                    "queries": run.n_queries,
                    "wall_s": round(run.wall_seconds, 2),
                    "solver_s": round(run.solver_seconds, 3),
                    "avg_norm_utility": round(run.avg_normalized, 4),
                    "utility_vs_exact": (
                        None
                        if run.avg_vs_exact is None
                        else round(run.avg_vs_exact, 4)
                    ),
                    "rows_processed": run.rows_processed,
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Fig. 4


def run_fig4(
    spark: SparkSession,
    dataset: str = "flights",
    target: str = "delay_minutes",
    sf: float = 0.002,  # large enough that cost-based pruning engages
    speech_lengths=(1, 3, 5),
    fact_dims=(1, 2, 3),
) -> pd.DataFrame:
    """Scaling in speech length m and dimensions-per-fact for G-B, G-P
    and G-O (Figure 4)."""
    spec = ds.SPECS[dataset]
    data = ds.load_spark(spark, dataset, sf=sf).cache()
    data.count()
    rows = []
    for m in speech_lengths:
        for method in ("G-B", "G-P", "G-O"):
            cfg = Config(dims=spec.dims, targets=(target,), speech_length=m)
            t0 = time.perf_counter()
            pdf = preprocess_target(spark, data, cfg, target, method=method).toPandas()
            rows.append(
                {
                    "sweep": "speech_length",
                    "value": m,
                    "method": method,
                    "wall_s": round(time.perf_counter() - t0, 2),
                    "solver_s": round(float(pdf["solve_seconds"].sum()), 3),
                }
            )
    for fd in fact_dims:
        for method in ("G-B", "G-P", "G-O"):
            cfg = Config(dims=spec.dims, targets=(target,), max_extra_dims=fd)
            t0 = time.perf_counter()
            pdf = preprocess_target(spark, data, cfg, target, method=method).toPandas()
            rows.append(
                {
                    "sweep": "fact_dims",
                    "value": fd,
                    "method": method,
                    "wall_s": round(time.perf_counter() - t0, 2),
                    "solver_s": round(float(pdf["solve_seconds"].sum()), 3),
                }
            )
    data.unpersist()
    return pd.DataFrame(rows)


# --------------------------------------------------------------- Fig. 10


@dataclass
class RuntimeComparison:
    dataset: str
    n_queries_total: int  # pre-generated speeches
    preprocess_seconds: float
    preprocess_per_query_ms: float
    lookup_latency_ms: float  # our approach: answer = index lookup
    baseline_latency_ms: float  # sampling: time to first fact
    baseline_total_ms: float  # sampling: full processing


def run_fig10(
    spark: SparkSession,
    datasets_sf=(("stackoverflow", 0.0006), ("flights", 0.0004), ("primaries", 0.01)),
    n_probe_queries: int = 25,
    seed: int = 0,
) -> pd.DataFrame:
    """Latency / processing-time comparison against the sampling
    baseline, plus per-query pre-processing overhead (Figure 10)."""
    rng = np.random.default_rng(seed)
    rows = []
    for dataset, sf in datasets_sf:
        spec = ds.SPECS[dataset]
        target = spec.targets[0]
        config = Config(dims=spec.dims, targets=(target,))
        data = ds.load_spark(spark, dataset, sf=sf).cache()
        pdf_full = ds.load_pandas(dataset, sf=sf)
        data.count()

        t0 = time.perf_counter()
        speeches = preprocess_target(spark, data, config, target, "G-O").toPandas()
        pre_s = time.perf_counter() - t0
        index = SpeechIndex(speeches)

        # probe with supported queries drawn from the stored keys
        keys = [k for k in speeches["query_key"] if k]
        probe = rng.choice(keys, size=min(n_probe_queries, len(keys)), replace=False)

        t0 = time.perf_counter()
        for key in probe:
            ans = index.query(target, decode_key(key))
            assert ans is not None
        lookup_ms = (time.perf_counter() - t0) / len(probe) * 1e3

        # the baseline runs on each probed problem's facts, cut from its
        # subset's batch
        plan = build_plan(pdf_full, config, (target,))
        probed = set(probe)
        lat, tot = [], []
        for subset in plan.subsets:
            predicates, batches = plan.cut(subset)
            hits = [i for i, p in enumerate(predicates) if encode_key(p) in probed]
            if not hits:
                continue
            fs = enumerate_facts(batches[target], plan.extra_dims(subset))
            for i in hits:
                own = fs.select(i)
                res = sampling_summary(own.problem, own, m=config.speech_length, seed=seed)
                lat.append(res.latency_seconds * 1e3)
                tot.append(res.total_seconds * 1e3)

        rows.append(
            RuntimeComparison(
                dataset=dataset,
                n_queries_total=len(speeches),
                preprocess_seconds=round(pre_s, 2),
                preprocess_per_query_ms=round(pre_s / len(speeches) * 1e3, 3),
                lookup_latency_ms=round(lookup_ms, 4),
                baseline_latency_ms=round(float(np.mean(lat)), 3),
                baseline_total_ms=round(float(np.mean(tot)), 3),
            ).__dict__
        )
        data.unpersist()
    return pd.DataFrame(rows)


# --------------------------------------------------------------- Table I


def run_table1(sf: float = 0.01) -> pd.DataFrame:
    """Dataset overview (Table I) for the synthetic stand-ins."""
    rows = []
    for name, spec in ds.SPECS.items():
        pdf = ds.load_pandas(name, sf=sf)
        rows.append(
            {
                "dataset": name,
                "sf": sf,
                "rows": len(pdf),
                "approx_mb": round(
                    pdf.memory_usage(deep=True).sum() / 2**20, 1
                ),
                "dims": len(spec.dims),
                "targets": len(spec.targets),
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------- local solve loop


def solve_problems_locally(
    pdf: pd.DataFrame,
    config: Config,
    target: str,
    method: str,
    exact_timeout: float | None = None,
) -> pd.DataFrame:
    """Single-process equivalent of the batch job (used by benchmarks to
    time solver work without Spark scheduling noise): the same query
    plan and per-subset batch solve as the Spark tasks."""
    plan = build_plan(pdf, config, (target,))
    return solve_subsets(plan, plan.subsets, (target,), method, exact_timeout).to_pandas()
