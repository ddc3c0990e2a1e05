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

The single-fact utilities (Line 6) are the gains of the greedy seed's
first iteration, so they are computed once. For a batch of problems
(:func:`exact_batch`) the seeds come from one greedy loop over the
batch, which returns fact ids without labelling them; the
representatives and the DFS run per problem, on its own facts cut from
the batch's lattice (:meth:`~repro.core.facts.FactSet.select`).

*Representatives.* Utility depends on a fact only through its scope
rows and their mean (Definitions 4-6), so facts with equal row sets are
interchangeable. The DFS ranks one representative per distinct row set:
the lowest global id. This returns the same speech as ranking every
fact. Take any speech the full DFS visits and replace each duplicate by
its representative. Equal rows give bit-identical values, gains and
deviations, so the new speech has the same utility (or is a smaller one
of the same utility, if two facts shared a representative). The
representative has the same single-fact utility and a lower id, so the
stable order puts it earlier: the new speech's sorted position tuple is
component-wise ≤ the old one, and the DFS visits it first. The
utilities along that tuple are the same sequence, so every partial sum
``S.U`` and every bound test is the same, and the new speech survives
every test the old one survived. A speech that is not strictly better
than ``b`` never moves ``b``, so the full DFS's sequence of ``b``
updates, and hence ``fact_ids``, is unchanged.
"""
from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .facts import FactSet
from .greedy import _greedy, _own_facts
from .model import Problem, SpeechResult
from .pruning import full_plan
from . import utility as U

_EPS = 1e-9


def distinct_scopes(factset: FactSet) -> np.ndarray:
    """Lowest global id of each distinct scope row set, ascending.

    Every fact's rows become one bitmap (eight rows per byte), built
    from ``factset.row_to_fact`` and viewed as one opaque byte string;
    ``np.unique`` compares those exactly, and its stable sort returns
    the first, i.e. lowest, id of each class."""
    n = factset.row_to_fact.shape[1]
    member = np.zeros((factset.n_facts, n), dtype=bool)
    member[factset.row_to_fact, np.arange(n)] = True
    bitmaps = np.packbits(member, axis=1)
    _, first = np.unique(bitmaps.view(np.dtype((np.void, bitmaps.shape[1]))), return_index=True)
    return np.sort(first)


def exact_summary(
    problem: Problem,
    factset: FactSet,
    m: int,
    max_seconds: float | None = None,
) -> SpeechResult:
    """Guaranteed-optimal speech of up to ``m`` facts (Corollary 1).
    ``factset`` is ``problem``'s, from
    :func:`~repro.core.facts.enumerate_facts`; utilities are over
    ``problem``'s prior (:func:`~repro.core.greedy._own_facts`).

    ``max_seconds`` mirrors the paper's per-scenario timeout (48 h on
    their testbed): when exceeded, the best speech found so far is
    returned with ``extra["timed_out"] = True`` (at least as good as
    greedy, but no optimality guarantee).

    ``extra["representatives"]`` counts the distinct scope row sets the
    DFS ranks; ``extra["nodes_expanded"]`` the speeches it evaluated."""
    return exact_batch(_own_facts(problem, factset), m, max_seconds)[0]


def exact_batch(
    factset: FactSet, m: int, max_seconds: float | None = None
) -> list[SpeechResult]:
    """:func:`exact_summary` for every problem of ``factset``'s batch, in
    problem order; ``max_seconds`` caps each problem's search."""
    seeds = _greedy(factset, m, full_plan(factset), range(factset.problem.n_problems))
    return [_search(factset.select(p), m, seed, max_seconds) for p, seed in enumerate(seeds)]


def _search(
    factset: FactSet, m: int, seed: SpeechResult, max_seconds: float | None
) -> SpeechResult:
    """Algorithm 1's search for the one problem of ``factset``, from its
    greedy ``seed``."""
    problem = factset.problem
    n = problem.n_rows
    target = problem.target
    rows_processed = seed.rows_processed
    facts_evaluated = seed.facts_evaluated
    b = seed.utility
    best_ids = list(seed.extra["fact_ids"])

    reps = distinct_scopes(factset)
    rows_processed += n * len(factset.group_dims)  # the scan behind the bitmaps
    # Line 6: single-fact utilities, from greedy's first iteration (with
    # m = 0 there is none, and the all-zero ranking expands no node)
    single = seed.extra["first_gains"] if m > 0 else np.zeros(factset.n_facts)
    order = reps[np.argsort(-single[reps], kind="stable")]
    u_sorted = single[order]

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
        extra={
            "fact_ids": best_ids,
            "representatives": len(reps),
            "nodes_expanded": nodes,
            "timed_out": timed_out,
        },
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
