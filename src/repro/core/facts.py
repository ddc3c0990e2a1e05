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
A problem's facts of one group have contiguous ids. Within a group
every row is within scope of exactly one fact, so ``row_to_fact``
stacks every group's row→fact map as one ``(groups, n)`` array of
global ids, and the utility aggregation over any set of groups is a
single ``bincount`` — the NumPy specialisation of the paper's
``Γ_{ΣU,F}(R ⋈_M F)`` join-then-aggregate. It is the one scope representation: fact ``f``
covers exactly the rows where its group's row equals ``f``.

A :class:`~repro.core.model.Problem` that batches problems over the
same dimensions is enumerated as one lattice whose root is the problem:
the ``()`` group has one fact per problem. These are the cells of
``S ∪ G`` for the dimensions ``S`` the batch's queries fix (Section
III's cube). Global ids run by problem, then group, then codes, so each
problem's facts are one contiguous run, in the order the problem
enumerated alone gives them; their values are bit-identical to it,
since each fact's rows are the same rows in the same order. A single
problem is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .model import Fact, Problem


@dataclass
class FactSet:
    """All candidate facts of a batch of problems, grouped by restricted
    dims.

    Problem ``p``'s facts of group ``g`` have the ids
    ``offsets[p·G + g] : offsets[p·G + g + 1]`` for ``G`` groups; for a
    single problem ``offsets`` is just the groups' bounds.
    ``contains[t, g]`` is the lattice order: group ``g`` specializes
    group ``t`` (restricts a superset of its dimensions, ``t`` itself
    included), so every fact of ``g`` lies within the scope of one fact
    of ``t``. Algorithm 3 prunes and the §VI-C cost model reason by it.
    """

    problem: Problem
    group_dims: list[tuple[int, ...]]  # restricted dims per group (sorted); () = overall
    offsets: np.ndarray  # (problems·groups + 1,) — see the class docstring
    contains: np.ndarray  # (groups, groups) bool
    row_to_fact: np.ndarray  # (groups, n) int32 — global fact id per row
    values: np.ndarray  # (n_facts,) float64 — typical value per global id
    codes: np.ndarray  # (n_facts, d) int32 — value code per dim, -1 = unrestricted

    @property
    def n_facts(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_groups(self) -> int:
        return len(self.group_dims)

    @cached_property
    def group_sizes(self) -> np.ndarray:
        """Facts per group, over the batch: the paper's member count M(g)
        for a single problem."""
        return np.diff(self.offsets).reshape(-1, self.n_groups).sum(axis=0)

    @cached_property
    def problem_offsets(self) -> np.ndarray:
        """``(problems+1,)``: problem ``p``'s facts are
        ``problem_offsets[p]:problem_offsets[p+1]``."""
        return self.offsets[:: self.n_groups]

    @cached_property
    def fact_groups(self) -> np.ndarray:
        """``(n_facts,)``: the group of each global fact id."""
        runs = np.tile(np.arange(self.n_groups), self.problem.n_problems)
        return np.repeat(runs, np.diff(self.offsets))

    def group_of(self, fact_id):
        """The group holding global fact id(s) ``fact_id``."""
        return self.fact_groups[fact_id]

    def select(self, p: int) -> "FactSet":
        """Problem ``p``'s facts alone, exactly as enumerating the problem
        by itself gives them: its run of ids less the run's start, and
        ``row_to_fact`` over its own rows, over the problem cut from its
        rows with its prior. A batch of one is returned as it is."""
        pr = self.problem
        if pr.n_problems == 1:
            return self
        g = self.n_groups
        offsets = self.offsets[p * g : (p + 1) * g + 1]
        lo, hi = int(offsets[0]), int(offsets[-1])
        a, b = pr.bounds[p], pr.bounds[p + 1]
        own = Problem(
            pr.dim_names, pr.dim_matrix[a:b], pr.dim_labels, pr.target[a:b],
            pr.prior[p], pr.target_name,
        )
        return FactSet(
            problem=own,
            group_dims=self.group_dims,
            offsets=offsets - lo,
            contains=self.contains,
            row_to_fact=self.row_to_fact[:, a:b] - np.int32(lo),
            values=self.values[lo:hi],
            codes=self.codes[lo:hi],
        )

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
    the data, as in Section III) for every problem of ``problem``.
    The empty group — the overall average of each problem's subset — is
    always included.

    Groups form the cube lattice, rooted at the problem: the ``()``
    group maps each row to its problem's fact, and group
    ``(d1, …, dk)`` is built from its parent ``(d1, …, dk-1)`` by the
    mixed-radix key ``parent_fact · card[dk] + code[dk]`` and one
    ``bincount`` — no row sort. The key is ordered like the tuple
    ``(problem, d1, …, dk)``, so a group's facts come out by problem,
    then in the lexicographic order of their value codes. Each group's
    row is written with local ids into the stacked array; once the
    lattice is complete, one shift per (group, problem) moves them to
    the global ids, which run by problem, then group (in
    ``combinations`` order), then that order.
    """
    dm = problem.dim_matrix
    n, d = dm.shape
    n_problems = problem.n_problems
    card = dm.max(axis=0, initial=-1).astype(np.intp) + 1
    lattice = [
        dims for size in range(max_extra_dims + 1) for dims in combinations(range(d), size)
    ]
    stacked = np.empty((len(lattice), n), dtype=np.int32)
    values, codes, owners = [], [], []
    # local rows, codes and problem per fact of each group
    built: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for row_to_fact, dims in zip(stacked, lattice):
        if not dims:
            row_to_fact[:] = np.repeat(np.arange(n_problems, dtype=np.int32), problem.sizes)
            group_codes = np.full((n_problems, d), -1, dtype=np.int32)
            owner = np.arange(n_problems)
        else:
            (parent_rows, parent_codes, parent_owner), c = built[dims[:-1]], card[dims[-1]]
            key = parent_rows.astype(np.intp) * c + dm[:, dims[-1]]
            n_cells = parent_codes.shape[0] * c
            cells = np.flatnonzero(np.bincount(key, minlength=n_cells))
            # cell -> local fact id; only entries at ``cells`` are read
            remap = np.empty(n_cells, dtype=np.int32)
            remap[cells] = np.arange(cells.shape[0], dtype=np.int32)
            np.take(remap, key, out=row_to_fact)
            parent = cells // c
            group_codes = parent_codes[parent]
            group_codes[:, dims[-1]] = cells % c
            owner = parent_owner[parent]
        k = group_codes.shape[0]
        sums = np.bincount(row_to_fact, weights=problem.target, minlength=k)
        values.append(sums / np.bincount(row_to_fact, minlength=k))
        codes.append(group_codes)
        owners.append(owner)
        built[dims] = row_to_fact, group_codes, owner
    counts = np.array([np.bincount(o, minlength=n_problems) for o in owners]).T
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(counts)  # by problem, then group
    # global id = local id + shift[problem, group]: the start of the
    # problem's run of the group less the start of its facts in the group
    shift = offsets[:-1].reshape(counts.shape) - (np.cumsum(counts, axis=0) - counts)
    stacked += np.repeat(shift.T.astype(np.int32), problem.sizes, axis=1)
    ids = np.concatenate([np.arange(o.shape[0]) + shift[o, g] for g, o in enumerate(owners)])
    all_values = np.empty(ids.shape[0])
    all_values[ids] = np.concatenate(values)
    all_codes = np.empty((ids.shape[0], d), dtype=np.int32)
    all_codes[ids] = np.concatenate(codes)
    masks = np.array([sum(1 << j for j in dims) for dims in lattice], dtype=np.int64)
    contains = (masks[:, None] & masks[None, :]) == masks[:, None]
    return FactSet(
        problem=problem,
        group_dims=lattice,
        offsets=offsets,
        contains=contains,
        row_to_fact=stacked,
        values=all_values,
        codes=all_codes,
    )
