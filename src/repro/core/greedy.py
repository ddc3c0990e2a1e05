"""Algorithm 2 — greedy speech construction (G-B).

Iteratively adds the fact with maximal utility gain; by monotonicity and
submodularity of utility (Theorem 1) this is (1 - 1/e)-approximate
(Theorem 3). Each iteration computes gains under a pruning plan
(Algorithm 3), which skips fact groups whose upper bound is dominated.
The plan is supplied by the caller (naive plan → G-P, cost-optimized
plan → G-O); the default full plan prunes nothing (G-B). So this one
loop backs all three greedy variants in the paper's evaluation.
"""
from __future__ import annotations

import numpy as np

from .facts import FactSet
from .model import Problem, SpeechResult
from .pruning import PruningPlan, full_plan, pruned_gains
from . import utility as U


def greedy_summary(
    problem: Problem,
    factset: FactSet,
    m: int,
    plan: PruningPlan | None = None,
) -> SpeechResult:
    """Select up to ``m`` facts greedily; returns the speech plus cost
    counters. ``plan=None`` means the full plan: every fact's gain is
    computed each iteration (G-B). ``extra["first_gains"]`` keeps the
    first iteration's gain array (``-inf`` where the plan pruned); under
    the full plan it holds every fact's single-fact utility."""
    plan = plan or full_plan(factset)
    dev = problem.prior_deviation()
    prior_total = float(dev.sum())
    chosen: list[int] = []
    rows_processed = 0
    facts_evaluated = 0
    n = problem.n_rows
    first_gains = None
    for _ in range(m):
        gains, stats = pruned_gains(dev, problem.target, factset, plan)
        if first_gains is None:
            first_gains = gains
        rows_processed += stats.rows_processed
        facts_evaluated += stats.facts_evaluated
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break  # no fact improves the approximation further
        chosen.append(best)
        dev = U.apply_fact(dev, problem.target, factset, best)
        rows_processed += n
    util = prior_total - float(dev.sum())
    return SpeechResult(
        facts=[factset.fact(f) for f in chosen],
        utility=util,
        normalized=U.normalized(problem, util),
        rows_processed=rows_processed,
        facts_evaluated=facts_evaluated,
        extra={"fact_ids": chosen, "first_gains": first_gains},
    )
