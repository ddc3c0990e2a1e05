"""Sampling-based run-time vocalization baseline (Section VIII-E).

Stand-in for the prior data-vocalization method ([25], [28] — CiceroDB):
instead of pre-computing speeches, it selects facts *at query time* by
estimating fact quality from progressively larger row samples. Facts
are committed one at a time, each as soon as its estimated gain
dominates every rival's confidence interval (or the sample budget is
exhausted); speaking can begin after the first commitment, so the
method's *latency* is the time to the first commit while *total
processing time* covers all ``m`` facts — exactly the two bars the
paper reports in Figure 10. Because typical values are themselves
estimated from samples, the baseline reports value *ranges*
(estimate ± CI) rather than exact averages, as the paper notes.

The selection loop mirrors the greedy algorithm but on sampled data:
per-row gain contributions are treated as i.i.d. draws, the population
gain estimate is ``n·mean(c)`` with a normal CI — the same statistical
machinery the prior work uses for its quality bounds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.facts import FactSet
from ..core.model import Fact, Problem
from ..core import utility as U


@dataclass
class SamplingResult:
    """Outcome of one run-time vocalization."""

    facts: list[Fact]
    value_ranges: list[tuple[float, float]]  # spoken as "between lo and hi"
    latency_seconds: float  # time until the first fact can be spoken
    total_seconds: float
    rows_sampled: int
    utility: float  # true utility of the selected facts (post-hoc)
    normalized: float
    extra: dict = field(default_factory=dict)


def _estimated_gains(
    factset: FactSet,
    sample_idx: np.ndarray,
    dev_sample: np.ndarray,
    n_total: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-fact gain estimate and CI half-width from the sample, plus
    per-fact sample value means/counts (for the spoken ranges).

    Each statistic is one ``bincount`` over the sampled columns of
    ``factset.row_to_fact``; a fact's sampled rows lie in its group's
    row, so they are still summed in sample order."""
    s = len(sample_idx)
    target_s = factset.problem.target[sample_idx]
    k = factset.n_facts
    r2f = factset.row_to_fact[:, sample_idx]  # (groups, s) global fact ids
    flat = r2f.ravel()
    # estimated typical value per fact from the sample
    cnt = np.bincount(flat, minlength=k).astype(float)
    sums = np.bincount(flat, weights=np.tile(target_s, r2f.shape[0]), minlength=k)
    means = np.divide(sums, cnt, out=np.zeros_like(sums), where=cnt > 0)
    contrib = np.maximum(dev_sample - np.abs(means[r2f] - target_s), 0.0)
    c_sum = np.bincount(flat, weights=contrib.ravel(), minlength=k)
    c_sq = np.bincount(flat, weights=(contrib**2).ravel(), minlength=k)
    # population estimate: each sampled row is one draw of the
    # row-contribution variable (zero outside scope)
    mean_c = c_sum / s
    var_c = np.maximum(c_sq / s - mean_c**2, 0.0)
    return n_total * mean_c, n_total * np.sqrt(var_c / s), means, cnt


def sampling_summary(
    problem: Problem,
    factset: FactSet,
    m: int,
    batch_fraction: float = 0.02,
    max_batches: int = 25,
    z: float = 2.0,
    seed: int = 0,
) -> SamplingResult:
    """Select up to ``m`` facts via iterative sampling at 'query time'."""
    rng = np.random.default_rng(seed)
    n = problem.n_rows
    batch = max(4, int(np.ceil(n * batch_fraction)))
    perm = rng.permutation(n)

    t_start = time.perf_counter()
    latency = None
    chosen: list[int] = []
    ranges: list[tuple[float, float]] = []
    sample_size = 0
    # deviations of *sampled* rows under the committed facts (the
    # baseline never touches unsampled rows before speaking)
    dev_full = problem.prior_deviation()

    for _ in range(min(m, factset.n_facts)):
        committed = None
        n_batches = 0
        while committed is None:
            n_batches += 1
            sample_size = min(n, sample_size + batch)
            idx = perm[:sample_size]
            dev_s = dev_full[idx]
            est, half, v_mean, v_cnt = _estimated_gains(
                factset, idx, dev_s, n
            )
            if chosen:
                est[np.array(chosen)] = -np.inf  # don't repeat facts
            order = np.argsort(-est)
            best = int(order[0])
            # a lone candidate has no rival to separate from
            separated = factset.n_facts == 1 or (
                est[best] - z * half[best] >= est[order[1]] + z * half[order[1]]
            )
            if separated or n_batches >= max_batches or sample_size >= n:
                committed = best
                v_est = v_mean[best]
                cnt = max(v_cnt[best], 1.0)
                spread = z * np.sqrt(
                    max(np.var(problem.target[idx]), 1e-12) / cnt
                )
                ranges.append((float(v_est - spread), float(v_est + spread)))
        chosen.append(committed)
        if latency is None:
            latency = time.perf_counter() - t_start
        # committed facts shift expectations (true fact value is used
        # from here on — the fact is now being spoken)
        dev_full = U.apply_fact(dev_full, problem.target, factset, committed)

    total = time.perf_counter() - t_start
    util = U.speech_utility(problem, factset, chosen)
    return SamplingResult(
        facts=[factset.fact(f) for f in chosen],
        value_ranges=ranges,
        latency_seconds=latency if latency is not None else total,
        total_seconds=total,
        rows_sampled=int(sample_size),
        utility=util,
        normalized=U.normalized(problem, util),
        extra={"fact_ids": chosen},
    )
