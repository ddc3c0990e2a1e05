"""The repository's benchmark: batch pre-processing and run-time lookup.

    python3 perfbench/run.py --workload flights-exact --seed 2 --seconds 30 --trace 0

One run starts a local Spark session, loads the workload's data, runs
``preprocess_all`` from the cached input to a Parquet speech table
until ``--seconds`` is spent (at least three passes) and, between
passes, answers closed-loop voice-query probes with
``SpeechIndex.query``. It checks
every output and prints, as the last line of standard output, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). It exits non-zero when any check fails. See README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import sys
import time
import uuid

import numpy as np

import sparkenv

MIN_PASSES = 3
LOOKUP_ROUNDS_PER_PASS = 60

E2E_UNITS = {
    "setup_s": "s",
    "preprocess_s": "s",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "mean_utility_bound_ratio": "1",
}
LAYER_UNITS = {
    "datasets.load_s": "s",
    "datasets.rows": "count",
    "problems.explode_shuffle_s": "s",
    "problems.exploded_rows": "count",
    "problems.queries": "count",
    "preprocess.solve_job_s": "s",
    "preprocess.write_s": "s",
    "preprocess.solve_stage_tasks": "count",
    "preprocess.solve_busy_s": "s",
    "preprocess.solve_p50_ms": "ms",
    "preprocess.solve_p99_ms": "ms",
    "preprocess.solve_parallelism": "1",
    "model.from_pandas_s": "s",
    "facts.enumerate_s": "s",
    "facts.facts_total": "count",
    "planner.opt_prune_s": "s",
    "greedy.solve_s": "s",
    "greedy.rows_processed": "count",
    "greedy.facts_evaluated": "count",
    "greedy.evaluated_share": "1",
    "exact.solve_s": "s",
    "exact.rows_processed": "count",
    "exact.facts_evaluated": "count",
    "speech.render_s": "s",
    "speech.mean_normalized_utility": "1",
    "lookup.index_build_s": "s",
    "lookup.exact_share": "1",
    "lookup.probes_per_query": "count",
    "trace.overhead_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "1",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sf", type=float, default=None, help="override the workload's scale factor")
    ap.add_argument(
        "--inject",
        choices=("corrupt-speech", "drop-query", "inflate-utility"),
        default=None,
        help="damage the speech table before the checks (tests the checks)",
    )
    return ap.parse_args(argv)


def inject(table, how: str | None):
    """Damage the first row in (target, query_key) order."""
    if how is None:
        return table
    first = table.sort_values(["target", "query_key"]).index[0]
    if how == "drop-query":
        return table.drop(index=first)
    table = table.copy()
    if how == "inflate-utility":
        table.loc[first, "utility"] = 1e12
    else:
        table.loc[first, "speech"] = table.loc[first, "speech"] + " Corrupted."
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    sparkenv.configure()  # exits when the program's sources are absent

    from checks import (
        check_digest, check_lookup, check_queries, check_replay, expected_keys, speech_digest,
        utility_bounds, utility_ratios,
    )
    import layers
    from repro import datasets
    from repro.pipeline.lookup import SpeechIndex
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.sf is not None:
        w = dataclasses.replace(w, sf=args.sf)
    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}-{uuid.uuid4().hex[:8]}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    work = sparkenv.OUT / "work" / run_id
    failures: list[str] = []

    t0 = time.perf_counter()
    with tracer.span("setup.session"):
        spark = sparkenv.start_session()
    session_s = time.perf_counter() - t0
    try:
        sc = spark.sparkContext
        prov = sparkenv.provenance(spark)
        data, load_s, rows = layers.load_data(spark, w, args.seed, tracer)
        t0 = time.perf_counter()
        with tracer.span("setup.warm_up"):
            layers.warm_up(spark, data, w, work / "warm-up")
        setup_s = session_s + load_s + (time.perf_counter() - t0)

        pdf = datasets.load_pandas(w.dataset, sf=w.sf, seed=args.seed)
        keys = expected_keys(pdf, w.config)

        # ---- timed passes (untraced) ----
        # Lookup rounds run between passes, while Spark is idle, so they
        # are spread over the whole run (see README.md, "Run structure").
        walls, digests, lookup_ns = [], [], []
        probes = index = None
        start = time.perf_counter()

        def more_passes() -> bool:
            if len(walls) < MIN_PASSES:
                return True
            elapsed = time.perf_counter() - start
            return not args.trace and elapsed + elapsed / len(walls) <= args.seconds

        while more_passes():
            wall, table = layers.run_pass(spark, data, w, work / "speeches", f"pass-{len(walls)}")
            walls.append(wall)
            digests.append(speech_digest(table))
            if probes is None:
                probes = layers.make_probes(table, pdf, w, args.seed)
            if not args.trace:
                if index is None:
                    index = SpeechIndex(table)
                ns, answers = layers.time_lookups(index, probes, LOOKUP_ROUNDS_PER_PASS)
                lookup_ns.append(ns)
        solve_tasks = layers.solve_stage_tasks(sc, f"pass-{len(walls) - 1}")
        if len(set(digests)) != 1:
            failures.append(f"determinism: pass digests differ: {digests}")
        preprocess_s = statistics.median(walls)

        metrics: dict[str, float] = {}
        absent: list[str] = []
        if args.trace:
            with tracer.span("preprocess.preprocess_all"):
                traced_wall, table = layers.run_pass(spark, data, w, work / "speeches", "traced")
            metrics["trace.overhead_s"] = traced_wall - preprocess_s
            metrics["datasets.load_s"] = load_s
            metrics["datasets.rows"] = rows
            metrics.update(layers.spark_layers(spark, data, w, tracer))
            metrics.update(layers.solve_metrics(table, metrics["preprocess.solve_job_s"]))
            metrics["preprocess.write_s"] = traced_wall - metrics["preprocess.solve_job_s"]

        rss = sparkenv.peak_rss_mb()
    finally:
        sparkenv.stop_session(spark)
        shutil.rmtree(work, ignore_errors=True)

    # Spark is stopped: the checks and the replay run alone in this process.
    table = inject(table, args.inject)
    n_failed_queries, msgs = check_queries(table, w.config, keys)
    failures += msgs
    failures += check_digest(speech_digest(table), w.name, w.sf, args.seed)
    ratios, msgs = utility_ratios(table, utility_bounds(pdf, w.config))
    failures += msgs

    if args.trace:
        metrics["peak_rss_mb"] = rss
        metrics["speech.mean_normalized_utility"] = float(table["normalized"].mean())
        try:
            with tracer.span("replay"):
                replayed = layers.replay(pdf, w, tracer)
            failures += check_replay(table, replayed)
            metrics.update(layers.replay_metrics(tracer))
        except layers.LayerAbsent as e:
            absent.append(str(e))

    if args.trace:
        try:
            lookup_m, answers = layers.lookup_layer(table, probes, tracer)
            metrics.update(lookup_m)
        except layers.LayerAbsent as e:
            absent.append(str(e))
            answers = [SpeechIndex(table).query(t, p) for t, p in probes]
    by_key = dict(zip(zip(table["target"], table["query_key"]), table["speech"]))
    bad = [check_lookup(a, t, p, by_key, w.config.max_query_len) for a, (t, p) in zip(answers, probes)]
    bad = [b for b in bad if b is not None]
    failures += bad[:5] + ([f"lookup: {len(bad) - 5} more failed lookups"] if len(bad) > 5 else [])

    attempted = len(keys) * len(w.targets) + len(probes)
    failed = n_failed_queries + len(bad)
    per_round = []  # (p50, p99) in µs of each lookup round; untraced runs only
    if lookup_ns:
        lookup_us = np.concatenate(lookup_ns) / 1e3
        per_round = np.quantile(lookup_us, [0.5, 0.99], axis=1).T.tolist()
    if args.trace:
        metrics["failed_share"] = failed / attempted
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "preprocess_s": preprocess_s,
            # see README.md, "Run structure and noise"
            "lookup_p50_us": min(r[0] for r in per_round),
            "lookup_p99_us": float(np.quantile(lookup_us, layers.tail_quantile(lookup_us.size))),
            # see README.md, "Speech quality"
            "mean_utility_bound_ratio": float(np.mean(ratios)),
        }
        units = E2E_UNITS
    details = {
        "run_id": run_id,
        "workload": w.name,
        "seed": args.seed,
        "sf": w.sf,
        "method": w.method,
        "provenance": prov,
        "solve_stage_tasks": solve_tasks,
        "speech_digest": digests[-1],
        "pass_walls_s": walls,
        "setup_parts_s": {"session": session_s, "load_median": load_s},
        "lookup": {
            "clients": 1,
            "loop": "closed",
            "probes_per_round": len(probes),
            "rounds": len(per_round),
            "tail_quantile": layers.tail_quantile(sum(ns.size for ns in lookup_ns)),
        },
        "lookup_rounds_p50_p99_us": per_round,
        "absent_layers": absent,
        "failures": failures,
        "all_metrics": metrics,
    }
    if args.trace:
        details["solve_parallelism_base"] = (
            f"solve_busy_s / solve_job_s on local[{prov['k']}] of {prov['nproc']} cores"
        )
        tracer.write(sparkenv.OUT / f"trace-{run_id}.json", details)
    sparkenv.OUT.mkdir(parents=True, exist_ok=True)
    (sparkenv.OUT / f"result-{run_id}.json").write_text(json.dumps(details, indent=1))

    for msg in failures + [f"absent layer {a}" for a in absent]:
        print(f"perfbench: {msg}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "solve_stage_tasks": solve_tasks}))
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
