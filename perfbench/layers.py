"""Calls into each layer of the program, timed and counted.

Untraced and traced runs share :func:`load_data`, :func:`warm_up` and
:func:`run_pass`; the untraced run times lookups with
:func:`time_lookups`. The traced run adds :func:`spark_layers` (the
problem generator's shuffle and the solve job as their own Spark jobs),
:func:`replay` (every query solved in this process by the
``repro.core`` kernels) and :func:`lookup_layer`.
"""
from __future__ import annotations

import statistics
import time
from functools import reduce
from itertools import combinations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro import datasets
from repro.pipeline import lookup, preprocess, problems
from repro.pipeline.config import Config, decode_key, encode_key

from workloads import Workload

DATA_REPEATS = 3
PROBES_PER_ROUND = 1000


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten of ``n`` samples beyond it,
    capped at the 99th percentile."""
    return min(0.99, 1.0 - 10.0 / n) if n > 10 else 0.5


def load_data(spark, w: Workload, seed: int, tracer):
    """``load_spark`` + cache, repeated; returns the cached frame, the
    median wall time and the row count."""
    times, data = [], None
    for _ in range(DATA_REPEATS):
        if data is not None:
            data.unpersist(blocking=True)
        t0 = time.perf_counter()
        with tracer.span("datasets.load"):
            data = datasets.load_spark(spark, w.dataset, sf=w.sf, seed=seed).cache()
            rows = data.count()
        times.append(time.perf_counter() - t0)
    return data, statistics.median(times), rows


def warm_up(spark, data, w: Workload, out_dir) -> None:
    """One untimed pass over the full input: starts the Python workers,
    imports the solver and lets the JVM compile the job's hot paths. A
    warm-up on a few rows left the next two passes 10-30 % slower."""
    preprocess.preprocess_all(spark, data, w.config, method=w.method, output_path=str(out_dir))


def run_pass(spark, data, w: Workload, out_dir, group: str):
    """One timed ``preprocess_all`` from the cached input to the written
    Parquet table; returns the wall time and the table as pandas."""
    spark.sparkContext.setJobGroup(group, group)
    t0 = time.perf_counter()
    out = preprocess.preprocess_all(spark, data, w.config, method=w.method, output_path=str(out_dir))
    wall = time.perf_counter() - t0
    spark.sparkContext.setJobGroup("perfbench-untimed", "perfbench-untimed")
    return wall, out.toPandas()


def solve_stage_tasks(sc, group: str) -> int | None:
    """Task count of the stage that runs the ``applyInPandas`` solver:
    the final stage of the last job in ``group`` that read a shuffle
    (the job with more than one stage)."""
    st = sc.statusTracker()
    for job in sorted(st.getJobIdsForGroup(group), reverse=True):
        info = st.getJobInfo(job)
        if info is not None and len(info.stageIds) > 1:
            stage = st.getStageInfo(max(info.stageIds))
            return None if stage is None else stage.numTasks
    return None


def spark_layers(spark, data, w: Workload, tracer) -> dict[str, float]:
    """The problem generator's shuffle per target, then the solve job:
    the per-target jobs unioned as ``preprocess_all`` runs them, executed
    into Spark's ``noop`` sink instead of Parquet."""
    m: dict[str, float] = {"problems.exploded_rows": 0, "problems.queries": 0}
    for target in w.targets:
        with tracer.span("problems.explode_shuffle"):
            counts = (
                problems.explode_queries(data, w.config, target)
                .groupBy("query_key")
                .count()
                .collect()
            )
        m["problems.exploded_rows"] += sum(r["count"] for r in counts)
        m["problems.queries"] += len(counts)
    m["problems.explode_shuffle_s"] = tracer.total("problems.explode_shuffle")

    sc = spark.sparkContext
    sc.setJobGroup("solve", "solve")
    with tracer.span("preprocess.solve_job"):
        parts = [preprocess.preprocess_target(spark, data, w.config, t, w.method) for t in w.targets]
        reduce(DataFrame.unionByName, parts).write.format("noop").mode("overwrite").save()
    sc.setJobGroup("perfbench-untimed", "perfbench-untimed")
    m["preprocess.solve_job_s"] = tracer.total("preprocess.solve_job")
    m["preprocess.solve_stage_tasks"] = solve_stage_tasks(sc, "solve") or -1
    return m


def solve_metrics(table: pd.DataFrame, solve_job_s: float) -> dict[str, float]:
    """Per-problem solve time, from the speech table's ``solve_seconds``."""
    secs = table["solve_seconds"].to_numpy()
    busy = float(secs.sum())
    return {
        "preprocess.solve_busy_s": busy,
        "preprocess.solve_p50_ms": float(np.quantile(secs, 0.5)) * 1e3,
        "preprocess.solve_p99_ms": float(np.quantile(secs, tail_quantile(len(secs)))) * 1e3,
        "preprocess.solve_parallelism": busy / solve_job_s,
    }


# ---- in-process replay of the per-problem kernels ----------------------


class LayerAbsent(Exception):
    """A kernel could not be imported or called with the expected
    signature: the layer is reported absent, the run is not failed."""

    def __init__(self, layer: str, cause: Exception):
        super().__init__(f"{layer}: {type(cause).__name__}: {cause}")
        self.layer = layer


def _call(layer: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TypeError, AttributeError) as e:
        raise LayerAbsent(layer, e) from e


def _kernels() -> dict:
    out = {}
    for layer, module, name in [
        ("model", "repro.core.model", "Problem"),
        ("facts", "repro.core.facts", "enumerate_facts"),
        ("planner", "repro.core.planner", "opt_prune"),
        ("greedy", "repro.core.greedy", "greedy_summary"),
        ("exact", "repro.core.exact", "exact_summary"),
        ("speech", "repro.core.speech", "render_speech"),
    ]:
        try:
            out[layer] = getattr(__import__(module, fromlist=[name]), name)
        except (ImportError, AttributeError) as e:
            raise LayerAbsent(layer, e) from e
    return out


def _queries(pdf: pd.DataFrame, config: Config):
    """(query_key, subset) for every query, from the generated data."""
    for size in range(config.max_query_len + 1):
        for subset in combinations(config.dims, size):
            if not subset:
                yield "", pdf
                continue
            for vals, sub in pdf.groupby(list(subset), sort=True):
                vals = vals if isinstance(vals, tuple) else (vals,)
                yield encode_key(dict(zip(subset, map(str, vals)))), sub


def replay(pdf: pd.DataFrame, w: Workload, tracer) -> dict[tuple[str, str], tuple]:
    """Solve every query of the workload in this process, with a span
    around each kernel call; returns {(target, key): (scopes, speech)}."""
    k = _kernels()
    config = w.config
    data = pdf[list(config.dims) + list(w.targets)].copy()
    for d in config.dims:
        data[d] = data[d].astype(str)
    out = {}
    for target in w.targets:
        data[target] = data[target].astype(float)
        for key, sub in _queries(data, config):
            fixed = decode_key(key)
            free = [d for d in config.dims if d not in fixed]
            extra = min(config.max_extra_dims, len(free))
            with tracer.span("replay.query"):
                with tracer.span("model.from_pandas"):
                    # a fully-specified query has only the overall fact
                    dims = free or [config.dims[0]]
                    problem = _call("model", k["model"].from_pandas, sub, dims, target)
                with tracer.span("facts.enumerate"):
                    fs = _call("facts", k["facts"], problem, max_extra_dims=extra)
                tracer.count("facts.facts_total", fs.n_facts)
                res = _solve(k, w.method, problem, fs, config.speech_length, tracer)
                with tracer.span("speech.render"):
                    speech = _call("speech", k["speech"], res.facts, target, fixed)
            out[(target, key)] = ([list(f.scope) for f in res.facts], speech)
    return out


def _solve(k, method: str, problem, fs, m: int, tracer):
    if method == "E":
        with tracer.span("exact.solve"):
            res = _call("exact", k["exact"], problem, fs, m)
        tracer.count("exact.rows_processed", res.rows_processed)
        tracer.count("exact.facts_evaluated", res.facts_evaluated)
        return res
    if method != "G-O":
        raise ValueError(f"replay does not support method {method!r}")
    with tracer.span("planner.opt_prune"):
        plan = _call("planner", k["planner"], fs)
    with tracer.span("greedy.solve"):
        res = _call("greedy", k["greedy"], problem, fs, m, plan=plan)
    chosen = len(res.facts)
    iterations = chosen if chosen == m else chosen + 1  # +1: the stopping one
    tracer.count("greedy.rows_processed", res.rows_processed)
    tracer.count("greedy.facts_evaluated", res.facts_evaluated)
    tracer.count("greedy.facts_x_iterations", fs.n_facts * iterations)
    return res


KERNEL_METRICS = {
    "model.from_pandas_s": "model.from_pandas",
    "facts.enumerate_s": "facts.enumerate",
    "planner.opt_prune_s": "planner.opt_prune",
    "greedy.solve_s": "greedy.solve",
    "exact.solve_s": "exact.solve",
    "speech.render_s": "speech.render",
}
KERNEL_COUNTERS = (
    "facts.facts_total",
    "greedy.rows_processed",
    "greedy.facts_evaluated",
    "exact.rows_processed",
    "exact.facts_evaluated",
)


def replay_metrics(tracer) -> dict[str, float]:
    m = {name: tracer.total(span) for name, span in KERNEL_METRICS.items()}
    m.update({c: tracer.counters.get(c, 0) for c in KERNEL_COUNTERS})
    fx = tracer.counters.get("greedy.facts_x_iterations", 0)
    m["greedy.evaluated_share"] = m["greedy.facts_evaluated"] / fx if fx else 0.0
    return m


# ---- run-time lookup ---------------------------------------------------


def make_probes(table: pd.DataFrame, pdf: pd.DataFrame, w: Workload, seed: int):
    """``PROBES_PER_ROUND`` (target, predicates) probes, from ``seed``.

    ``exact``: stored (target, query) keys. ``fallback``: L + 2 predicates
    taken from one data row, so no probe is stored and each walks down
    to its most specific stored subset. All fallback probes have the
    same length: a mix of walk lengths puts the p50 on the boundary
    between two latency modes."""
    rng = np.random.default_rng(seed)
    if w.probes == "exact":
        pairs = table[["target", "query_key"]].sort_values(["target", "query_key"])
        pick = rng.integers(0, len(pairs), PROBES_PER_ROUND)
        return [(t, decode_key(k)) for t, k in pairs.to_numpy()[pick]]
    dims = list(w.config.dims)
    rows = pdf[dims].astype(str).to_numpy()
    out = []
    for _ in range(PROBES_PER_ROUND):
        row = rows[rng.integers(len(rows))]
        cols = sorted(rng.choice(len(dims), w.config.max_query_len + 2, replace=False))
        target = w.targets[int(rng.integers(len(w.targets)))]
        out.append((target, {dims[c]: row[c] for c in cols}))
    return out


def time_lookups(index, probes, rounds: int):
    """Closed loop, one client: each probe is issued when the previous
    one has returned. Returns every latency in ns (one row per round)
    and the answers of the last round."""
    query = index.query
    for t, p in probes:  # warm-up round
        query(t, p)
    ns = np.empty((rounds, len(probes)), dtype=np.int64)
    answers = [None] * len(probes)
    clock = time.perf_counter_ns
    for r in range(rounds):
        for i, (t, p) in enumerate(probes):
            t0 = clock()
            answers[i] = query(t, p)
            ns[r, i] = clock() - t0
    return ns, answers


class _CountingDict(dict):
    """A stored-speech dict that counts the lookups made against it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def lookup_layer(table: pd.DataFrame, probes, tracer):
    """Index build time, exact-hit share and dictionary probes per query,
    and the answers."""
    with tracer.span("lookup.index_build"):
        index = lookup.SpeechIndex(table)
    m = {"lookup.index_build_s": tracer.total("lookup.index_build")}
    try:
        tables = index._by_target
        counted = {t: _CountingDict(d) for t, d in tables.items()}
        index._by_target = counted
    except AttributeError as e:
        raise LayerAbsent("lookup", e) from e
    with tracer.span("lookup.probe_walk"):
        answers = [index.query(t, p) for t, p in probes]
    probes_made = sum(d.probes for d in counted.values())
    tracer.count("lookup.dict_probes", probes_made)
    m["lookup.exact_share"] = sum(bool(a and a.exact) for a in answers) / len(probes)
    m["lookup.probes_per_query"] = probes_made / len(probes)
    return m, answers

