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
    sizes, dims = factset.group_sizes, factset.group_dims
    return sorted(range(len(dims)), key=lambda g: (sizes[g], dims[g]))


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
    gain array where facts in pruned groups are ``-inf``.

    The gains of all sources come from one ``bincount`` over their rows
    of ``factset.row_to_fact``, then those of all surviving groups from
    one more; under the full plan an iteration is a single call. Each
    fact's rows lie in one group's row, so ``bincount`` still sums them
    in row order and the gains are those of a per-group count, bit for
    bit."""
    stats = PruneStats()
    n = dev.shape[0]
    gains = np.full(factset.n_facts, -np.inf, dtype=np.float64)
    group_sizes = factset.group_sizes

    def compute(selected: np.ndarray) -> float:
        """Fill in the gains of the groups flagged in ``selected``;
        returns their maximum."""
        if not selected.any():
            return -np.inf
        rows = factset.row_to_fact if selected.all() else factset.row_to_fact[selected]
        # Gain of fact f = Σ_{r in scope} max(0, dev_r - |v_f - v_r|):
        # the one (groups, n) float temporary, updated in place.
        contrib = factset.values[rows]
        contrib -= target
        np.abs(contrib, out=contrib)
        np.subtract(dev, contrib, out=contrib)
        np.maximum(contrib, 0.0, out=contrib)
        sums = np.bincount(rows.ravel(), weights=contrib.ravel(), minlength=factset.n_facts)
        facts = np.repeat(selected, group_sizes)
        gains[facts] = sums[facts]
        stats.rows_processed += n * rows.shape[0]
        stats.facts_evaluated += int(group_sizes[selected].sum())
        return float(gains[facts].max())

    sources = np.zeros(len(group_sizes), dtype=bool)
    sources[list(plan.sources)] = True
    best_so_far = compute(sources)

    alive = ~sources
    for t in plan.targets:
        if not alive[t]:
            continue  # already pruned as a specialization
        bound = float(U.group_deviation_bounds(dev, factset, t).max())
        stats.rows_processed += n
        stats.bounds_computed += 1
        if best_so_far > bound:
            victims = factset.contains[t] & alive
            alive &= ~victims
            stats.groups_pruned += int(victims.sum())

    compute(alive)
    return gains, stats


def single_fact_utilities(problem: Problem, factset: FactSet) -> np.ndarray:
    """Single-fact utility of every candidate fact (global id order):
    the gains of greedy's first iteration."""
    gains, _ = pruned_gains(problem.prior_deviation(), problem.target, factset, full_plan(factset))
    return gains
