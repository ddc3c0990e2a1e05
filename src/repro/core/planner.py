"""OPTPRUNE — cost-based pruning-plan selection (Sections VI-C and VI-D).

Estimated cost of one greedy iteration of Algorithm 3 under plan
``<S, T>`` (Section VI-C):

    Σ_{s∈S} C_U(s)  +  Σ_{t∈T} C_D(t)  +  Σ_{g∉S} Pr(¬P_g)·C_U(g)

``C_U(g)`` is the cost of the fact join + aggregation computing the
utilities of group ``g``; ``C_D(g)`` the cost of the join-free group-by
computing its gain bounds. The paper reads both from the Postgres
optimizer, where a join is far more expensive than a scan. Here both
are NumPy kernels and the gain kernel does ~3x the per-row work of the
bound kernel, so ``C_U(g) = n + M(g)`` and
``C_D(g) = BOUND_COST_RATIO·n`` in the same units.

``Pr(P_{s→t})``, the probability that source ``s`` prunes target ``t``,
follows the paper's normal approximation: per-fact utility is a sum of
i.i.d. per-row contributions over rows assumed uniform across dimension
values, so a group's per-fact mean scales as ``1/M(g)`` with fixed
variance ``σ²``. The paper further assumes the *bound* of a target
follows the distribution of a *gain*; the bound (total deviation in
scope) upper-bounds the gain, so the target mean is scaled by
``BOUND_SCALE ≥ 1`` (1 recovers the paper's formula):

    Pr(P_{s→t}) = Φ( (1/M(s) - BOUND_SCALE/M(t)) / (σ·√2) )

A group ``g`` survives (``¬P_g``) unless some source prunes some target
whose dimensions it contains; the pairs are taken as independent.

Algorithm 4 generates the candidates. Sources are prefixes of
:func:`~repro.core.pruning.source_order` (ascending member count M(g):
the pseudo-code's condition "no group outside S has fewer facts than a
group inside S"). For each source set, targets are chosen greedily by

    H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}|

— the expected number of groups eliminated by bounding ``t`` — and each
⟨S, T-prefix⟩ is a candidate. The trivial plan ⟨all groups, ∅⟩ (plain
G-B) is always a candidate, so the optimizer can decide pruning does not
pay. OPTPRUNE returns the first candidate of minimal estimated cost.
"""
from __future__ import annotations

import math

import numpy as np

from .facts import FactSet
from .pruning import PruningPlan, full_plan, source_order

#: Standard deviation of a per-fact utility in the normal approximation.
SIGMA = 0.5
#: Factor by which a target's gain bound is taken to exceed a gain, in
#: means (1 recovers the paper's formula).
BOUND_SCALE = 3.0
#: Per-row cost of a bound scan relative to a gain (utility) scan.
BOUND_COST_RATIO = 0.35
#: Plan search is itself a cost (hundreds of candidate evaluations).
#: Below this much estimated no-pruning work (row-units per greedy
#: iteration) pruning cannot recoup the optimizer's own overhead, so
#: OPTPRUNE short-circuits to the trivial plan — the same cost-based
#: reasoning of Section VI applied to the optimizer itself.
PLANNING_THRESHOLD = 250_000

_erf = np.vectorize(math.erf, otypes=[np.float64])


def prune_probability(m_source, m_target, sigma: float, bound_scale: float = 1.0):
    """``Pr(P_{s→t})`` for source/target groups with ``M(s)``/``M(t)``
    facts (Section VI-C's two-normal comparison). Broadcasts over
    arrays of member counts."""
    inv_s = 1.0 / np.asarray(m_source, dtype=np.float64)
    inv_t = 1.0 / np.asarray(m_target, dtype=np.float64)
    z = (inv_s - bound_scale * inv_t) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))


def trivial_cost(n_rows, n_groups: int, n_facts):
    """Estimated cost of one iteration under the trivial plan,
    Σ_g (n + M(g)) = n·groups + facts. Broadcasts over problems."""
    return n_rows * n_groups + n_facts


def needs_planning(factset: FactSet) -> np.ndarray:
    """Per problem of the batch: whether OPTPRUNE searches for a plan,
    i.e. the trivial plan's cost reaches :data:`PLANNING_THRESHOLD`.
    Decided for every problem at once from its rows, groups and facts;
    the others get the trivial plan without being cut from the batch."""
    n_facts = np.diff(factset.problem_offsets)
    cost = trivial_cost(factset.problem.sizes, factset.n_groups, n_facts)
    return cost >= PLANNING_THRESHOLD


def opt_prune(factset: FactSet) -> PruningPlan:
    """OPTPRUNE: the minimum-estimated-cost plan among the candidates
    generated by Algorithm 4 (this is what makes variant G-O), for the
    one problem of ``factset``."""
    n, k = factset.problem.n_rows, len(factset.group_dims)
    best_cost = trivial_cost(n, k, factset.n_facts)
    if best_cost < PLANNING_THRESHOLD:
        return full_plan(factset)
    order = source_order(factset)
    m = factset.group_sizes.astype(np.float64)
    cu = n + m
    log_keep = np.log(
        np.clip(1.0 - prune_probability(m[:, None], m, SIGMA, BOUND_SCALE), 1e-300, 1.0)
    )
    contains = factset.contains  # pruning t also prunes every g it contains
    # cum[i-1, t] = Σ_{s in the first i sources} log(1 - Pr(P_{s→t}))
    cum = np.cumsum(log_keep[order], axis=0)
    source_cost = np.cumsum(cu[order])
    best = (k, ())
    for i in range(1, k):
        outside = np.zeros(k, dtype=bool)
        outside[order[i:]] = True
        cu_out = cu[outside]
        p_t = 1.0 - np.exp(cum[i - 1])  # Pr(P_t) for every group as target
        alive = outside.copy()
        log_surv = np.zeros(k)
        targets: list[int] = []
        while alive.any():
            h = np.where(alive, p_t * (contains & alive).sum(axis=1), -np.inf)
            t = int(np.argmax(h))
            targets.append(t)
            alive &= ~contains[t]
            log_surv += contains[t] * cum[i - 1, t]
            cost = (
                float(source_cost[i - 1])
                + BOUND_COST_RATIO * n * len(targets)
                + float((np.exp(log_surv[outside]) * cu_out).sum())
            )
            if cost < best_cost - 1e-12:
                best_cost, best = cost, (i, tuple(targets))
    i, targets = best
    return PruningPlan(sources=tuple(order[:i]), targets=targets)
