"""Algorithm 1 — exact speech summarization (variant E).

Branch-and-bound over fact combinations, faithful to the paper's two
pruning rules (Section IV-B):

1. *Canonical order*: facts inside a speech are enumerated in
   decreasing single-fact utility, killing redundant permutations
   (``S.U_P ≥ F.U``).
2. *Bound pruning*: with ``S.U`` the sum of single-fact utilities of
   the chosen facts (an upper bound on the speech's utility, Lemma 2)
   and ``r`` the remaining expansions, an expansion by a fact with
   single-fact utility ``F.U`` is pruned when ``S.U + (r+1)·F.U < b``
   (Lemma 1 / Theorem 2) where ``b`` is a lower bound on the optimal
   utility — initialized by the greedy heuristic, as the paper does,
   and tightened whenever a better speech is found.

The paper executes this as iterative SQL self-joins; our kernel is an
equivalent depth-first enumeration (the candidate set after i
expansions is identical), which lets us tighten ``b`` as exact
utilities of complete speeches are discovered.
"""
from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .facts import FactSet
from .greedy import greedy_summary
from .model import Problem, SpeechResult
from .pruning import single_fact_utilities
from . import utility as U

_EPS = 1e-9


def exact_summary(
    problem: Problem,
    factset: FactSet,
    m: int,
    max_seconds: float | None = None,
) -> SpeechResult:
    """Guaranteed-optimal speech of up to ``m`` facts (Corollary 1).

    ``max_seconds`` mirrors the paper's per-scenario timeout (48 h on
    their testbed): when exceeded, the best speech found so far is
    returned with ``extra["timed_out"] = True`` (at least as good as
    greedy, but no optimality guarantee)."""
    n = problem.n_rows
    target = problem.target
    single = single_fact_utilities(problem, factset)
    rows_processed = n * len(factset.groups)  # Line 6: single-fact utilities
    facts_evaluated = factset.n_facts

    order = np.argsort(-single, kind="stable")
    u_sorted = single[order]

    seed = greedy_summary(problem, factset, m)
    rows_processed += seed.rows_processed
    facts_evaluated += seed.facts_evaluated
    b = seed.utility
    best_ids = list(seed.extra["fact_ids"])

    prior_dev = problem.prior_deviation()
    prior_total = float(prior_dev.sum())
    nodes = 0
    timed_out = False
    deadline = None if max_seconds is None else time.perf_counter() + max_seconds

    def dfs(start: int, chosen: list[int], s_u: float, dev: np.ndarray) -> None:
        nonlocal b, best_ids, nodes, rows_processed, timed_out
        if timed_out or (
            deadline is not None
            and nodes % 64 == 0
            and time.perf_counter() > deadline
        ):
            timed_out = True
            return
        depth = len(chosen)
        remaining = m - depth  # expansions still possible incl. this one
        for j in range(start, len(order)):
            if timed_out:
                return
            # Bound prune: S.U + (m - depth)·u_j upper-bounds any
            # completion through fact j; facts are sorted, so once it
            # fails every later sibling fails too.
            if s_u + remaining * u_sorted[j] < b - _EPS:
                break
            if u_sorted[j] <= 0:
                break  # worthless facts cannot improve any speech
            fid = int(order[j])
            new_dev = U.apply_fact(dev, target, factset, fid)
            rows_processed += n
            nodes += 1
            exact_u = prior_total - float(new_dev.sum())
            if exact_u > b + _EPS:
                b = exact_u
                best_ids = chosen + [fid]
            if depth + 1 < m:
                dfs(j + 1, chosen + [fid], s_u + u_sorted[j], new_dev)

    dfs(0, [], 0.0, prior_dev)

    util = U.speech_utility(problem, factset, best_ids)
    return SpeechResult(
        facts=[factset.fact(f) for f in best_ids],
        utility=util,
        normalized=U.normalized(problem, util),
        rows_processed=rows_processed,
        facts_evaluated=facts_evaluated,
        extra={"fact_ids": best_ids, "nodes_expanded": nodes, "timed_out": timed_out},
    )


def brute_force_summary(problem: Problem, factset: FactSet, m: int) -> SpeechResult:
    """Reference optimum by full enumeration of all ≤m-subsets — test
    oracle for :func:`exact_summary`; exponential, tiny inputs only."""
    best_u, best_ids = 0.0, []
    ids = range(factset.n_facts)
    for size in range(1, m + 1):
        for combo in combinations(ids, size):
            u = U.speech_utility(problem, factset, list(combo))
            if u > best_u + _EPS:
                best_u, best_ids = u, list(combo)
    return SpeechResult(
        facts=[factset.fact(f) for f in best_ids],
        utility=best_u,
        normalized=U.normalized(problem, best_u),
        extra={"fact_ids": best_ids},
    )
