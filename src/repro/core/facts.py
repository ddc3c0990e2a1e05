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
of exactly one fact. ``FactSet.row_to_fact`` stacks every group's
row→fact map as one ``(groups, n)`` array of *global* fact ids, so the
utility aggregation over any set of groups is a single ``bincount`` —
the NumPy specialisation of the paper's ``Γ_{ΣU,F}(R ⋈_M F)``
join-then-aggregate. It is the one scope representation: fact ``f``
covers exactly the rows where its group's row equals ``f``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import Fact, Problem


@dataclass
class FactGroup:
    """All facts restricting the same subset of dimension columns."""

    dims: tuple[int, ...]  # restricted dimension indices (sorted); () = overall
    row_to_fact: np.ndarray  # (n,) int32 — global fact id of each row (a view)
    fact_values: np.ndarray  # (n_facts,) float64 — typical values (a view)
    fact_codes: np.ndarray  # (n_facts, len(dims)) int32 — dim value codes
    fact_counts: np.ndarray  # (n_facts,) int64 — rows within scope

    @property
    def n_facts(self) -> int:
        return self.fact_values.shape[0]


@dataclass
class FactSet:
    """All candidate facts of a problem, grouped by restricted dims.

    ``contains[t, g]`` is the lattice order: group ``g`` specializes
    group ``t`` (restricts a superset of its dimensions, ``t`` itself
    included), so every fact of ``g`` lies within the scope of one fact
    of ``t``. Algorithm 3 prunes and the §VI-C cost model reasons by it.

    Group ``g``'s ``row_to_fact`` and ``fact_values`` are views of
    ``row_to_fact[g]`` and ``values[offsets[g]:offsets[g+1]]``, not
    copies.
    """

    problem: Problem
    groups: list[FactGroup]
    offsets: np.ndarray  # (len(groups)+1,) — global id = offset[g] + local
    contains: np.ndarray  # (len(groups), len(groups)) bool
    row_to_fact: np.ndarray  # (len(groups), n) int32 — global fact id per row
    values: np.ndarray  # (n_facts,) float64 — typical value per global id

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


def enumerate_facts(problem: Problem, max_extra_dims: int = 2) -> FactSet:
    """Enumerate all candidate facts with up to ``max_extra_dims``
    additional equality predicates (all value combinations appearing in
    the data, as in Section III). The empty group — the overall average
    of the problem's subset — is always included.

    Groups form the cube lattice: group ``(d1, …, dk)`` is built from
    its parent ``(d1, …, dk-1)`` by the mixed-radix key
    ``parent_fact · card[dk] + code[dk]`` and one ``bincount`` — no row
    sort. The key is ordered like the tuple ``(d1, …, dk)``, so facts
    come out in the lexicographic order of their value codes. Global
    ids follow the groups in ``combinations`` order, then that order.
    Each group's row is written with local ids into the stacked array,
    which is shifted to global ids once the lattice is complete.
    """
    dm = problem.dim_matrix
    n, d = dm.shape
    card = dm.max(axis=0, initial=-1).astype(np.intp) + 1
    lattice = [
        dims for size in range(max_extra_dims + 1) for dims in combinations(range(d), size)
    ]
    stacked = np.empty((len(lattice), n), dtype=np.int32)
    built: dict[tuple[int, ...], FactGroup] = {}
    for row_to_fact, dims in zip(stacked, lattice):
        size = len(dims)
        if size == 0:
            row_to_fact[:] = 0
            fact_codes = np.zeros((1, 0), dtype=np.int32)
        else:
            parent, c = built[dims[:-1]], card[dims[-1]]
            key = parent.row_to_fact.astype(np.intp) * c + dm[:, dims[-1]]
            cells = np.flatnonzero(np.bincount(key, minlength=parent.n_facts * c))
            # cell -> local fact id; only entries at ``cells`` are read
            remap = np.empty(parent.n_facts * c, dtype=np.int32)
            remap[cells] = np.arange(cells.shape[0], dtype=np.int32)
            np.take(remap, key, out=row_to_fact)
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
    offsets[1:] = np.cumsum([g.n_facts for g in groups])
    stacked += offsets[:-1, None].astype(np.int32)
    values = np.concatenate([g.fact_values for g in groups])
    for g, lo, hi in zip(groups, offsets[:-1], offsets[1:]):
        g.fact_values = values[lo:hi]
    masks = np.array([sum(1 << j for j in g.dims) for g in groups], dtype=np.int64)
    contains = (masks[:, None] & masks[None, :]) == masks[:, None]
    return FactSet(
        problem=problem,
        groups=groups,
        offsets=offsets,
        contains=contains,
        row_to_fact=stacked,
        values=values,
    )
