"""Algorithm 2 — greedy speech construction (G-B).

Iteratively adds the fact with maximal utility gain; by monotonicity and
submodularity of utility (Theorem 1) this is (1 - 1/e)-approximate
(Theorem 3). Each iteration computes gains under a pruning plan
(Algorithm 3), which skips fact groups whose upper bound is dominated.
The plan comes from a planner (naive plan → G-P, cost-optimized plan →
G-O); the full plan prunes nothing (G-B). So one loop backs all three
greedy variants in the paper's evaluation.

The loop solves a batch of problems at once (see
:mod:`repro.core.facts`): each iteration is one gain kernel call for
every problem, then a segmented argmax picks each problem's fact — the
first maximum in the problem's own fact order, as ``np.argmax`` over
the problem alone would — and one vectorized update applies them all.
A problem whose best gain is ≤ 0 stops and leaves the batch, so its
rows are not scanned again. Priors, utilities and counters are kept
per problem, over its own rows, so every problem's result is the one
it gets solved alone, bit for bit. A problem whose plan prunes is
solved alone, as a batch of one, since a bound compares facts across
all the rows it is given. :func:`greedy_summary` is the batch of one.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .facts import FactSet
from .model import Problem, SpeechResult
from .pruning import PruningPlan, full_plan, kernel_blocks, pruned_gains


def greedy_summary(
    problem: Problem,
    factset: FactSet,
    m: int,
    plan: PruningPlan | None = None,
) -> SpeechResult:
    """Select up to ``m`` facts greedily; returns the speech plus cost
    counters. ``factset`` is ``problem``'s, from
    :func:`~repro.core.facts.enumerate_facts`; the gains are over
    ``problem``'s prior (:func:`_own_facts`). ``plan=None`` means the
    full plan: every fact's gain is computed each iteration (G-B).
    ``extra["first_gains"]`` keeps the first iteration's gain array
    (``-inf`` where the plan pruned); under the full plan it holds every
    fact's single-fact utility."""
    own = _own_facts(problem, factset)
    res = _greedy(own, m, plan or full_plan(factset), [0])[0]
    res.facts = [own.fact(f) for f in res.extra["fact_ids"]]
    return res


def _own_facts(problem: Problem, factset: FactSet) -> FactSet:
    """The facts of one problem, solved over ``problem``'s rows and
    prior, as the single-problem solvers run them. ``problem`` must have
    the rows and dimensions the facts were enumerated from; its prior
    may differ, since no fact depends on it. Raises ``ValueError``
    otherwise."""
    own = factset.problem
    if (
        own.n_problems != 1
        or not np.array_equal(problem.bounds, own.bounds)
        or problem.dim_names != own.dim_names
    ):
        raise ValueError("the facts were not enumerated from this problem")
    return replace(factset, problem=problem)


def greedy_batch(
    factset: FactSet,
    m: int,
    planner: Callable[[FactSet], PruningPlan] | None = None,
    candidates: Sequence[int] | None = None,
) -> list[SpeechResult]:
    """:func:`greedy_summary` for every problem of ``factset``'s batch,
    in problem order. ``planner`` (``naive_plan`` for G-P, ``opt_prune``
    for G-O) plans each problem of ``candidates`` (default: all) on its
    own facts; a problem whose plan has targets is solved alone under
    it. All others are solved together under the full plan."""
    n_problems = factset.problem.n_problems
    results: list[SpeechResult | None] = [None] * n_problems
    if planner is not None:
        for p in range(n_problems) if candidates is None else candidates:
            own = factset.select(p)
            plan = planner(own)
            if plan.targets:
                results[p] = _greedy(own, m, plan, [0])[0]
    rest = [p for p, res in enumerate(results) if res is None]
    if rest:
        for p, res in zip(rest, _greedy(factset, m, full_plan(factset), rest)):
            results[p] = res
    starts = factset.problem_offsets
    for p, res in enumerate(results):
        res.facts = [factset.fact(int(starts[p]) + f) for f in res.extra["fact_ids"]]
    return results


def _greedy(
    factset: FactSet, m: int, plan: PruningPlan, problems: Sequence[int]
) -> list[SpeechResult]:
    """The greedy loop over ``problems`` of the batch (ascending), all
    at once; returns their results in that order, each with its facts
    as ids only (``extra["fact_ids"]``, in the problem's own numbering)
    and ``facts`` empty: :func:`greedy_batch` and
    :func:`greedy_summary` label them, E's seeds need the ids alone. A
    plan with targets needs a batch of one."""
    batch = factset.problem
    if plan.targets and batch.n_problems > 1:
        raise ValueError("a pruning plan with targets applies to a batch of one problem")
    fact_bounds = factset.problem_offsets
    n_facts = np.diff(fact_bounds)
    sizes = batch.sizes
    problems = [int(p) for p in problems]
    active = np.array(problems, dtype=np.intp)
    bounds = batch.bounds
    dev, target, rows = batch.prior_deviation(), batch.target, factset.row_to_fact
    prior_total = {p: float(dev[bounds[p] : bounds[p + 1]].sum()) for p in problems}
    if active.shape[0] < batch.n_problems:
        keep = np.repeat(np.isin(np.arange(batch.n_problems), active), sizes)
        dev, target, rows = dev[keep], target[keep], rows[:, keep]
    blocks = kernel_blocks(factset, active)
    chosen: dict[int, list[int]] = {p: [] for p in problems}
    final_dev: dict[int, float] = {}  # each problem's deviation once it stops
    stopped: set[int] = set()  # problems whose best gain fell to ≤ 0
    # row passes and facts of the gain computations, summed by iteration;
    # every problem still in the batch takes part in each computation
    passes, facts = [0], [0]
    first_gains = None
    for _ in range(m):
        gains, stats = pruned_gains(dev, target, factset, plan, rows, blocks)
        if first_gains is None:
            first_gains = gains
        passes.append(passes[-1] + stats.rows_processed // dev.shape[0])
        facts.append(facts[-1] + stats.facts_evaluated)
        best_gain, best = _first_max(gains, fact_bounds)
        stop = best_gain[active] <= 0  # no fact improves the approximation further
        if stop.any():
            _record_deviation(final_dev, dev, active, sizes, stop)
            stopped.update(active[stop].tolist())
            keep = np.repeat(~stop, sizes[active])
            active = active[~stop]
            if not active.shape[0]:
                break
            dev, target, rows = dev[keep], target[keep], rows[:, keep]
            blocks = kernel_blocks(factset, active)
        picked = best[active]
        for p, f in zip(active.tolist(), picked.tolist()):
            chosen[p].append(f)
        # the paper's Line 11 for every problem at once: rows in the
        # scope of their problem's new fact take its value if closer
        per_row = np.repeat(picked, sizes[active])
        group = np.repeat(factset.group_of(picked), sizes[active])
        in_scope = rows[group, np.arange(per_row.shape[0])] == per_row
        closer = np.abs(factset.values[per_row] - target)
        dev = np.where(in_scope, np.minimum(dev, closer), dev)
    _record_deviation(final_dev, dev, active, sizes, np.ones(active.shape[0], dtype=bool))
    results = []
    for p in problems:
        total = prior_total[p]
        util = total - final_dev[p]
        k = len(chosen[p]) + (p in stopped)  # gain computations it took part in
        results.append(
            SpeechResult(
                facts=[],
                utility=util,
                normalized=1.0 if total <= 0 else util / total,
                # each gain pass and each applied fact scans the problem's rows
                rows_processed=int(sizes[p]) * (passes[k] + len(chosen[p])),
                facts_evaluated=facts[k] if plan.targets else int(n_facts[p]) * k,
                extra={
                    "fact_ids": [f - int(fact_bounds[p]) for f in chosen[p]],
                    "first_gains": (
                        None if first_gains is None
                        else first_gains[fact_bounds[p] : fact_bounds[p + 1]]
                    ),
                },
            )
        )
    return results


def _record_deviation(
    final_dev: dict[int, float],
    dev: np.ndarray,
    active: np.ndarray,
    sizes: np.ndarray,
    done: np.ndarray,
) -> None:
    """Record ``D(F)`` of each problem ``active[i]`` with ``done[i]``:
    the sum of its run of ``dev``, which holds the active problems' rows
    in order."""
    starts = np.concatenate(([0], np.cumsum(sizes[active])))
    for i in np.flatnonzero(done):
        final_dev[int(active[i])] = float(dev[starts[i] : starts[i + 1]].sum())


def _first_max(gains: np.ndarray, fact_bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segmented argmax: each problem's best gain and the id of its
    first fact with that gain, in the problem's own order, as
    ``np.argmax`` over the problem's run of ids gives it."""
    starts, n = fact_bounds[:-1], gains.shape[0]
    best_gain = np.maximum.reduceat(gains, starts)
    at_best = gains == np.repeat(best_gain, np.diff(fact_bounds))
    return best_gain, np.minimum.reduceat(np.where(at_best, np.arange(n), n), starts)
