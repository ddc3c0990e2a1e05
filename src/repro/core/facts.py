"""Candidate-fact enumeration (Section III).

The system considers one fact per data subset defined by the query
predicates plus *up to* ``max_extra_dims`` additional equality
predicates on the dimensions (default two, as in the paper). Within one
summarization problem the query predicates are implicit — every row of
the problem's relation already satisfies them — so a candidate fact is
identified by a *fact group* (the subset of dimension columns it
additionally restricts) and one combination of values appearing in the
data for those columns.

:class:`FactSet` is the paper's fact relation ``F`` as flat arrays
indexed by global fact id: ``values`` holds each fact's typical value
and ``codes`` its value code per dimension, -1 where the fact does not
restrict that dimension — the kernel form of ``F``'s nullable columns.
A group's facts have contiguous ids. Within a group every row is within
scope of exactly one fact, so ``row_to_fact`` stacks every group's
row→fact map as one ``(groups, n)`` array of global ids, and the
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
class FactSet:
    """All candidate facts of a problem, grouped by restricted dims.

    ``contains[t, g]`` is the lattice order: group ``g`` specializes
    group ``t`` (restricts a superset of its dimensions, ``t`` itself
    included), so every fact of ``g`` lies within the scope of one fact
    of ``t``. Algorithm 3 prunes and the §VI-C cost model reasons by it.
    """

    problem: Problem
    group_dims: list[tuple[int, ...]]  # restricted dims per group (sorted); () = overall
    offsets: np.ndarray  # (groups+1,) — group g's facts are offsets[g]:offsets[g+1]
    contains: np.ndarray  # (groups, groups) bool
    row_to_fact: np.ndarray  # (groups, n) int32 — global fact id per row
    values: np.ndarray  # (n_facts,) float64 — typical value per global id
    codes: np.ndarray  # (n_facts, d) int32 — value code per dim, -1 = unrestricted

    @property
    def n_facts(self) -> int:
        return int(self.offsets[-1])

    @property
    def group_sizes(self) -> np.ndarray:
        """Facts per group: the paper's member count M(g)."""
        return np.diff(self.offsets)

    def group_of(self, fact_id: int) -> int:
        """The group holding global fact id ``fact_id``."""
        return int(np.searchsorted(self.offsets, fact_id, side="right")) - 1

    def fact(self, fact_id: int) -> Fact:
        """Materialize a global fact id as a labelled :class:`Fact`."""
        p = self.problem
        scope = tuple(
            sorted(
                (p.dim_names[d], str(p.dim_labels[d][code]))
                for d, code in enumerate(self.codes[fact_id])
                if code >= 0
            )
        )
        return Fact(scope=scope, value=float(self.values[fact_id]))


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
    values, codes = [], []
    built: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}  # local rows, codes
    for row_to_fact, dims in zip(stacked, lattice):
        if not dims:
            row_to_fact[:] = 0
            group_codes = np.full((1, d), -1, dtype=np.int32)
        else:
            (parent_rows, parent_codes), c = built[dims[:-1]], card[dims[-1]]
            key = parent_rows.astype(np.intp) * c + dm[:, dims[-1]]
            n_cells = parent_codes.shape[0] * c
            cells = np.flatnonzero(np.bincount(key, minlength=n_cells))
            # cell -> local fact id; only entries at ``cells`` are read
            remap = np.empty(n_cells, dtype=np.int32)
            remap[cells] = np.arange(cells.shape[0], dtype=np.int32)
            np.take(remap, key, out=row_to_fact)
            group_codes = parent_codes[cells // c]
            group_codes[:, dims[-1]] = cells % c
        k = group_codes.shape[0]
        sums = np.bincount(row_to_fact, weights=problem.target, minlength=k)
        values.append(sums / np.bincount(row_to_fact, minlength=k))
        codes.append(group_codes)
        built[dims] = row_to_fact, group_codes
    offsets = np.zeros(len(lattice) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([v.shape[0] for v in values])
    stacked += offsets[:-1, None].astype(np.int32)
    masks = np.array([sum(1 << j for j in dims) for dims in lattice], dtype=np.int64)
    contains = (masks[:, None] & masks[None, :]) == masks[:, None]
    return FactSet(
        problem=problem,
        group_dims=lattice,
        offsets=offsets,
        contains=contains,
        row_to_fact=stacked,
        values=np.concatenate(values),
        codes=np.concatenate(codes),
    )
