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


#: Row × group cells the gain kernel aggregates per step: its float64
#: temporary (512 KB) then stays in a core's L2 cache. On
#: flights-large-go (seed 2, 4 vCPU Xeon) a pass's ``preprocess_s`` was
#: 0.453 s in such steps and 0.500 s in one step per call (medians of 10
#: alternating benchmark runs, 10/10 faster); flights-exact, whose
#: 580-row subsets fit in one step, did not move (0.384 against 0.370
#: s, 5/10).
BLOCK_CELLS = 1 << 16


def kernel_blocks(factset: FactSet, problems: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Split the stacked rows of ``problems`` (ascending) into runs of
    whole problems, as ``(first row, end row, first fact id, end fact
    id)``, so a fact's rows always lie in one run. A run ends with the
    first problem whose rows reach the next multiple of a step of
    :data:`BLOCK_CELLS` cells: it exceeds a step by at most its last
    problem, and a problem larger than a step may share its run with
    smaller ones before it."""
    sizes = factset.problem.sizes[problems]
    step = max(1, BLOCK_CELLS // factset.n_groups)
    facts = factset.problem_offsets
    ends = np.cumsum(sizes)
    # each run ends with the problem that reaches the next multiple of step
    last = np.unique(np.searchsorted(ends, np.arange(step, ends[-1], step)))
    last = np.append(last[last < len(problems) - 1], len(problems) - 1)
    first = np.concatenate(([0], last[:-1] + 1))
    starts = np.concatenate(([0], ends[:-1]))
    return [
        (int(starts[i]), int(ends[j]), int(facts[problems[i]]), int(facts[problems[j] + 1]))
        for i, j in zip(first.tolist(), last.tolist())
    ]


def pruned_gains(
    dev: np.ndarray,
    target: np.ndarray,
    factset: FactSet,
    plan: PruningPlan,
    row_to_fact: np.ndarray | None = None,
    blocks: list[tuple[int, int, int, int]] | None = None,
) -> tuple[np.ndarray, PruneStats]:
    """One greedy iteration's gain computation under a pruning plan
    (replaces Line 7 of Algorithm 2, per Algorithm 3). Returns a global
    gain array where facts in pruned groups are ``-inf``.

    ``row_to_fact`` and ``blocks`` default to every problem's rows
    (``factset.row_to_fact``) and their :func:`kernel_blocks`; a batch
    whose finished problems have left passes the columns of the rows
    still solved, which ``dev`` and ``target`` cover, and their blocks.
    The facts of the problems that left then gain 0.

    The gains of all sources come from one ``bincount`` per block over
    their rows of ``row_to_fact``, then those of all surviving groups
    from one more; under the full plan an iteration is a single pass.
    Each fact's rows lie in one group's row of one block, so
    ``bincount`` still sums them in row order and the gains are those of
    a per-group count over the problem alone, bit for bit. Only the full
    plan applies to a batch of more than one problem: a bound compares
    facts across all the rows it is given."""
    if row_to_fact is None:
        row_to_fact = factset.row_to_fact
        blocks = kernel_blocks(factset, np.arange(factset.problem.n_problems))
    stats = PruneStats()
    n = dev.shape[0]
    gains = np.full(factset.n_facts, -np.inf, dtype=np.float64)
    sums = np.zeros(factset.n_facts)
    group_sizes = factset.group_sizes

    def compute(selected: np.ndarray) -> float:
        """Fill in the gains of the groups flagged in ``selected``;
        returns their maximum."""
        if not selected.any():
            return -np.inf
        rows = row_to_fact if selected.all() else row_to_fact[selected]
        for a, b, lo, hi in blocks:
            ids = rows[:, a:b] if lo == 0 else rows[:, a:b] - np.int32(lo)
            # Gain of fact f = Σ_{r in scope} max(0, dev_r - |v_f - v_r|):
            # one (groups, rows) float temporary, updated in place.
            contrib = factset.values[lo:hi][ids]
            contrib -= target[a:b]
            np.abs(contrib, out=contrib)
            np.subtract(dev[a:b], contrib, out=contrib)
            np.maximum(contrib, 0.0, out=contrib)
            sums[lo:hi] = np.bincount(ids.ravel(), weights=contrib.ravel(), minlength=hi - lo)
        facts = selected[factset.fact_groups]
        gains[facts] = sums[facts]
        stats.rows_processed += n * rows.shape[0]
        stats.facts_evaluated += int(group_sizes[selected].sum())
        return float(gains[facts].max())

    sources = np.zeros(factset.n_groups, dtype=bool)
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
