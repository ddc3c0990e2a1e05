"""Candidate-fact enumeration (Section III).

The system considers one fact per data subset defined by the query
predicates plus *up to* ``max_extra_dims`` additional equality
predicates on the dimensions (default two, as in the paper). Within one
summarization problem the query predicates are implicit — every row of
the problem's relation already satisfies them — so a candidate fact is
identified by a *fact group* (the subset of dimension columns it
additionally restricts) and one combination of values appearing in the
data for those columns.

Facts are stored group-wise: within a group every row is within scope
of exactly one fact, so utility aggregation per group is a single
``bincount`` — the NumPy specialisation of the paper's
``Γ_{ΣU,F}(R ⋈_M F)`` join-then-aggregate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import Fact, Problem


@dataclass
class FactGroup:
    """All facts restricting the same subset of dimension columns."""

    dims: tuple[int, ...]  # restricted dimension indices (sorted); () = overall
    row_to_fact: np.ndarray  # (n,) int32 — local fact index of each row
    fact_values: np.ndarray  # (n_facts,) float64 — typical values (avg target)
    fact_codes: np.ndarray  # (n_facts, len(dims)) int32 — dim value codes
    fact_counts: np.ndarray  # (n_facts,) int64 — rows within scope
    _fact_rows: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_facts(self) -> int:
        return self.fact_values.shape[0]

    def rows_of_fact(self, local_idx: int) -> np.ndarray:
        """Row indices within scope of the ``local_idx``-th fact."""
        if self._fact_rows is None:
            order = np.argsort(self.row_to_fact, kind="stable")
            bounds = np.searchsorted(self.row_to_fact[order], np.arange(self.n_facts + 1))
            self._fact_rows = [order[bounds[i] : bounds[i + 1]] for i in range(self.n_facts)]
        return self._fact_rows[local_idx]


@dataclass
class FactSet:
    """All candidate facts of a problem, grouped by restricted dims."""

    problem: Problem
    groups: list[FactGroup]
    offsets: np.ndarray  # (len(groups)+1,) — global id = offset[g] + local

    @property
    def n_facts(self) -> int:
        return int(self.offsets[-1])

    def group_of(self, fact_id: int) -> tuple[int, int]:
        """Map a global fact id to ``(group_index, local_index)``."""
        g = int(np.searchsorted(self.offsets, fact_id, side="right")) - 1
        return g, fact_id - int(self.offsets[g])

    def fact(self, fact_id: int) -> Fact:
        """Materialize a global fact id as a labelled :class:`Fact`."""
        g, local = self.group_of(fact_id)
        grp = self.groups[g]
        p = self.problem
        scope = tuple(
            sorted(
                (p.dim_names[d], str(p.dim_labels[d][grp.fact_codes[local, j]]))
                for j, d in enumerate(grp.dims)
            )
        )
        return Fact(scope=scope, value=float(grp.fact_values[local]))

    def fact_scope_rows(self, fact_id: int) -> np.ndarray:
        g, local = self.group_of(fact_id)
        return self.groups[g].rows_of_fact(local)

    def fact_value(self, fact_id: int) -> float:
        g, local = self.group_of(fact_id)
        return float(self.groups[g].fact_values[local])


def enumerate_facts(problem: Problem, max_extra_dims: int = 2) -> FactSet:
    """Enumerate all candidate facts with up to ``max_extra_dims``
    additional equality predicates (all value combinations appearing in
    the data, as in Section III). The empty group — the overall average
    of the problem's subset — is always included.

    Groups form the cube lattice: group ``(d1, …, dk)`` is built from
    its parent ``(d1, …, dk-1)`` by the mixed-radix key
    ``parent_fact · card[dk] + code[dk]`` and one ``bincount`` — no row
    sort. The key is ordered like the tuple ``(d1, …, dk)``, so facts
    come out in the lexicographic order of their value codes.
    """
    dm = problem.dim_matrix
    n, d = dm.shape
    card = dm.max(axis=0, initial=-1).astype(np.intp) + 1
    built: dict[tuple[int, ...], FactGroup] = {}
    for size in range(0, max_extra_dims + 1):
        for dims in combinations(range(d), size):
            if size == 0:
                row_to_fact = np.zeros(n, dtype=np.int32)
                fact_codes = np.zeros((1, 0), dtype=np.int32)
            else:
                parent, c = built[dims[:-1]], card[dims[-1]]
                key = parent.row_to_fact.astype(np.intp) * c + dm[:, dims[-1]]
                cells = np.flatnonzero(np.bincount(key, minlength=parent.n_facts * c))
                # cell -> local fact id; only entries at ``cells`` are read
                remap = np.empty(parent.n_facts * c, dtype=np.int32)
                remap[cells] = np.arange(cells.shape[0], dtype=np.int32)
                row_to_fact = remap[key]
                fact_codes = np.empty((cells.shape[0], size), dtype=np.int32)
                fact_codes[:, :-1] = parent.fact_codes[cells // c]
                fact_codes[:, -1] = cells % c
            k = fact_codes.shape[0]
            sums = np.bincount(row_to_fact, weights=problem.target, minlength=k)
            counts = np.bincount(row_to_fact, minlength=k).astype(np.int64)
            built[dims] = FactGroup(
                dims=dims,
                row_to_fact=row_to_fact,
                fact_values=sums / counts,
                fact_codes=fact_codes,
                fact_counts=counts,
            )
    groups = list(built.values())
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    for i, g in enumerate(groups):
        offsets[i + 1] = offsets[i] + g.n_facts
    return FactSet(problem=problem, groups=groups, offsets=offsets)
