"""Utility / deviation kernels (Definitions 4-6).

The user-expectation model: after hearing facts ``F``, the expected
value for row ``r`` is the member of ``{prior} ∪ {v_f : r in scope(f)}``
closest to the true value ``v_r`` (Definition 4, validated against real
users in the paper's Fig. 7). Consequently the per-row deviation under a
speech is ``min(|prior - v_r|, min_f |v_f - v_r|)`` over in-scope facts,
and adding a fact can only shrink deviation — utility is monotone and
submodular (Theorem 1).

All kernels operate on a per-row *current deviation* array ``dev`` and
count the rows they scan (``rows_processed``) as a machine-independent
cost proxy mirroring the paper's SQL processing costs.
"""
from __future__ import annotations

import numpy as np

from .facts import FactSet
from .model import Problem


def group_deviation_bounds(dev: np.ndarray, factset: FactSet, g: int) -> np.ndarray:
    """Upper bound on the gain of any fact in group ``g`` (Algorithm 3,
    Line 15) of the one problem of ``factset``: summed current deviation
    per value combination — a fact can at most zero out error inside its
    scope. Every fact of the group covers a row, so the count ends with
    the group's last fact."""
    return np.bincount(factset.row_to_fact[g], weights=dev)[factset.offsets[g] :]


def apply_fact(
    dev: np.ndarray, target: np.ndarray, factset: FactSet, fact_id: int
) -> np.ndarray:
    """Return deviations after the user also hears fact ``fact_id``
    (the paper's Line 11, ``Π_E(R ⋈_M f*)``). Pure: input untouched."""
    in_scope = factset.row_to_fact[factset.group_of(fact_id)] == fact_id
    return np.where(in_scope, np.minimum(dev, np.abs(factset.values[fact_id] - target)), dev)


def speech_deviation(problem: Problem, factset: FactSet, fact_ids: list[int]) -> np.ndarray:
    """Per-row deviation under a complete speech, from scratch."""
    dev = problem.prior_deviation()
    for fid in fact_ids:
        dev = apply_fact(dev, problem.target, factset, fid)
    return dev


def speech_utility(problem: Problem, factset: FactSet, fact_ids: list[int]) -> float:
    """Exact utility ``U(F) = D(∅) - D(F)`` of a speech (Definition 6)."""
    prior_total = float(problem.prior_deviation().sum())
    return prior_total - float(speech_deviation(problem, factset, fact_ids).sum())


def normalized(problem: Problem, utility: float) -> float:
    """Scale utility to one per problem instance (Section VIII-B):
    1.0 = all prior error removed. Degenerate zero-error problems
    (already perfectly described by the prior) normalize to 1.0."""
    denom = float(problem.prior_deviation().sum())
    return 1.0 if denom <= 0 else utility / denom
