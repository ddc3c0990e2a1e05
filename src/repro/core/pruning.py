"""Algorithm 3 — fact-group pruning for greedy iterations (Section VI-B).

Facts are pruned at the granularity of *fact groups* (all facts
restricting the same subset of dimension columns). A pruning plan is a
pair ``<S, T>``: utilities of all facts in the *source* groups ``S`` are
computed first; the best realized gain ``m`` then prunes each *target*
group ``t ∈ T`` whose upper gain bound (summed current deviation per
value combination, a cheap group-by without the fact join) is below
``m``. A pruned target drags down all its *specializations* — groups
restricting a strict superset of its dimension columns — because a
specialized fact's scope is contained in some target fact's scope.

Soundness: the returned argmax over computed gains equals the true
argmax over *all* facts, so greedy keeps its (1 - 1/e) guarantee.

The full plan ``<all groups, ∅>`` prunes nothing: under it one call is
one iteration of plain G-B, and on the prior deviation it gives every
fact's single-fact utility.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .facts import FactSet
from .model import Problem
from . import utility as U


@dataclass(frozen=True)
class PruningPlan:
    """Pruning strategy ``<S, T>`` over fact-group indices.

    ``sources``: groups whose fact utilities are always computed.
    ``targets``: groups to try to prune, in order. Groups in neither
    list are computed unless eliminated as a specialization of a pruned
    target.
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]


@dataclass
class PruneStats:
    rows_processed: int = 0
    facts_evaluated: int = 0
    groups_pruned: int = 0
    bounds_computed: int = 0


def source_order(factset: FactSet) -> list[int]:
    """Group indices by ascending fact count, ties by dimensions: the
    order in which Algorithm 4 adds sources. Groups with few facts cover
    more rows each and so promise higher per-fact utility."""
    groups = factset.groups
    return sorted(range(len(groups)), key=lambda g: (groups[g].n_facts, groups[g].dims))


def full_plan(factset: FactSet) -> PruningPlan:
    """Every group a source, no targets: G-B, and the trivial candidate
    of OPTPRUNE."""
    return PruningPlan(sources=tuple(source_order(factset)), targets=())


def naive_plan(factset: FactSet) -> PruningPlan:
    """The simple strategy behind algorithm G-P in the evaluation: the
    first group of :func:`source_order` is the single source; every
    other group is a pruning target, in that order."""
    order = source_order(factset)
    return PruningPlan(sources=(order[0],), targets=tuple(order[1:]))


def pruned_gains(
    dev: np.ndarray,
    target: np.ndarray,
    factset: FactSet,
    plan: PruningPlan,
) -> tuple[np.ndarray, PruneStats]:
    """One greedy iteration's gain computation under a pruning plan
    (replaces Line 7 of Algorithm 2, per Algorithm 3). Returns a global
    gain array where facts in pruned groups are ``-inf``."""
    stats = PruneStats()
    n = dev.shape[0]
    groups = factset.groups
    gains = np.full(factset.n_facts, -np.inf, dtype=np.float64)

    def compute(g: int) -> float:
        lo, hi = int(factset.offsets[g]), int(factset.offsets[g + 1])
        gains[lo:hi] = U.group_gains(dev, target, groups[g])
        stats.rows_processed += n
        stats.facts_evaluated += groups[g].n_facts
        return float(gains[lo:hi].max())

    best_so_far = -np.inf
    for s in plan.sources:
        best_so_far = max(best_so_far, compute(s))

    alive = np.ones(len(groups), dtype=bool)
    alive[list(plan.sources)] = False
    for t in plan.targets:
        if not alive[t]:
            continue  # already pruned as a specialization
        bound = float(U.group_deviation_bounds(dev, groups[t]).max())
        stats.rows_processed += n
        stats.bounds_computed += 1
        if best_so_far > bound:
            victims = factset.contains[t] & alive
            alive &= ~victims
            stats.groups_pruned += int(victims.sum())

    for g in np.flatnonzero(alive):
        best_so_far = max(best_so_far, compute(int(g)))
    return gains, stats


def single_fact_utilities(problem: Problem, factset: FactSet) -> np.ndarray:
    """Single-fact utility of every candidate fact (global id order):
    the gains of greedy's first iteration."""
    gains, _ = pruned_gains(problem.prior_deviation(), problem.target, factset, full_plan(factset))
    return gains
