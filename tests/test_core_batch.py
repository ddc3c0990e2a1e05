"""Solving the queries of one dimension subset as one batch gives every
problem exactly what solving it alone gives.

A subset's problems are cut from random coded tables by
``QueryPlan.cut`` and solved together by the pipeline's batch solver;
each problem is then rebuilt from its own rows and solved by itself
with ``greedy_summary`` / ``exact_summary``. Fact ids, rows processed
and facts evaluated must be equal and utilities bit-equal, for G-B,
G-P, G-O (with planning forced, so it prunes) and E, and the greedy
variants' first-iteration gains bit-equal.
"""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import planner
from repro.core.exact import exact_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import naive_plan
from repro.pipeline.config import Config
from repro.pipeline.preprocess import make_solver
from repro.pipeline.problems import QueryPlan

METHODS = ("G-B", "G-P", "G-O", "E")


def coded_plan(codes: np.ndarray, y: np.ndarray, max_extra_dims: int) -> QueryPlan:
    """A plan over integer codes as they are (labels are the codes as
    strings, so codes may have gaps) with every subset a query may fix."""
    d = codes.shape[1]
    config = Config(
        dims=tuple(f"d{j}" for j in range(d)),
        targets=("y",),
        max_query_len=d,
        max_extra_dims=max_extra_dims,
    )
    labels = [np.arange(codes[:, j].max() + 1).astype(str) for j in range(d)]
    subsets = [s for size in range(d + 1) for s in combinations(range(d), size)]
    return QueryPlan(config, codes.astype(np.int32), labels, {"y": y}, subsets)


def solve_alone(plan: QueryPlan, subset, predicates, method: str, m: int):
    """The problem of one query, built from its own rows in input order,
    solved by the single-problem solvers."""
    dims = plan.config.dims
    mask = np.ones(plan.codes.shape[0], dtype=bool)
    for d, v in predicates.items():
        mask &= plan.labels[dims.index(d)][plan.codes[:, dims.index(d)]] == v
    free = plan.free_dims(subset)
    y = plan.targets["y"][mask]
    problem = Problem(
        [dims[j] for j in free],
        plan.codes[mask][:, free],
        [plan.labels[j] for j in free],
        y,
        prior=float(np.mean(y)),
    )
    fs = enumerate_facts(problem, plan.extra_dims(subset))
    if method == "E":
        return fs, exact_summary(problem, fs, m)
    plan_ = {"G-B": None, "G-P": naive_plan, "G-O": planner.opt_prune}[method]
    return fs, greedy_summary(problem, fs, m, plan=plan_ and plan_(fs))


def outcome(res):
    return res.extra["fact_ids"], res.utility, res.rows_processed, res.facts_evaluated


def assert_batch_equals_alone(plan: QueryPlan, m: int) -> list[int]:
    """Checks every subset and method; returns the number of facts each
    problem chose under G-B, so callers can see early stops."""
    chosen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "PLANNING_THRESHOLD", 0)
        for subset in plan.subsets:
            predicates, batches = plan.cut(subset)
            fs = enumerate_facts(batches["y"], plan.extra_dims(subset))
            for method in METHODS:
                results = make_solver(method)(fs, m)
                assert len(results) == len(predicates)
                for i, (preds, res) in enumerate(zip(predicates, results)):
                    own, alone = solve_alone(plan, subset, preds, method, m)
                    assert outcome(res) == outcome(alone), (subset, preds, method)
                    assert [f.scope for f in res.facts] == [f.scope for f in alone.facts]
                    assert [f.value for f in res.facts] == [f.value for f in alone.facts]
                    if method == "E":
                        assert res.extra["nodes_expanded"] == alone.extra["nodes_expanded"]
                    elif m > 0:  # every gain of the first iteration, bit for bit
                        np.testing.assert_array_equal(
                            res.extra["first_gains"], alone.extra["first_gains"]
                        )
                    if method == "G-B":
                        chosen.append(len(res.extra["fact_ids"]))
                        cut = fs.select(i)
                        np.testing.assert_array_equal(cut.row_to_fact, own.row_to_fact)
                        np.testing.assert_array_equal(cut.values, own.values)
                        np.testing.assert_array_equal(cut.codes, own.codes)
                        np.testing.assert_array_equal(cut.offsets, own.offsets)
                        # the problem cut from the batch is the problem alone
                        np.testing.assert_array_equal(cut.problem.dim_matrix, own.problem.dim_matrix)
                        np.testing.assert_array_equal(cut.problem.target, own.problem.target)
                        assert cut.problem.prior == own.problem.prior
                        for a, b in zip(cut.problem.dim_labels, own.problem.dim_labels, strict=True):
                            np.testing.assert_array_equal(a, b)
    return chosen


@st.composite
def tables(draw):
    """1-3 dimensions of 1-4 values (some constant), codes with gaps, and
    a target of few distinct values, so gains tie within and across
    problems; 1-40 rows, so many problems have one row. The values are
    not binary fractions, so sums depend on their order, and a kernel
    that adds in another order than the problem alone shows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    card = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    gap = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    codes = np.array(
        draw(st.lists(st.tuples(*[st.integers(0, c - 1) for c in card]), min_size=n, max_size=n))
    ).reshape(n, d) * np.array(gap)
    y = np.array(draw(st.lists(st.sampled_from([0.1, 0.7, 1.3, 2.9]), min_size=n, max_size=n)))
    return codes, y, draw(st.integers(0, 3)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(tables())
@example((np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0]]), np.array([0.1, 0.7, 0.1, 0.7, 2.9]), 2, 3))
def test_batch_equals_each_problem_alone(table):
    codes, y, max_extra_dims, m = table
    assert_batch_equals_alone(coded_plan(codes, y, max_extra_dims), m)


def test_one_row_constant_and_tied_problems_stop_early():
    """One-row problems and a problem with a constant target stop before
    any fact, problems of two rows after two, and two problems with the
    same rows tie fact for fact; each still equals its solve alone."""
    codes = np.array([[0, 0], [1, 0], [1, 1], [2, 0], [2, 1], [3, 0], [3, 1], [3, 0], [3, 1]])
    y = np.array([0.4, 0.1, 0.3, 0.1, 0.3, 0.5, 0.5, 0.5, 0.5])
    chosen = assert_batch_equals_alone(coded_plan(codes, y, 2), 3)
    assert 0 in chosen and 2 in chosen and 3 in chosen


def test_gapped_codes_and_constant_column():
    rng = np.random.default_rng(3)
    codes = np.column_stack([rng.integers(0, 3, 40) * 2, np.zeros(40, int), rng.integers(0, 4, 40)])
    y = np.round(rng.gamma(2.0, 5.0, 40))
    assert_batch_equals_alone(coded_plan(codes, y, 2), 3)


def test_single_problem_solvers_solve_the_given_problem():
    """``greedy_summary`` and ``exact_summary`` solve over the problem
    they are given: facts enumerated with one prior, solved with
    another, give what facts enumerated with the other give. Facts of
    other rows are rejected."""
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 3, (30, 2))
    y = np.round(rng.gamma(2.0, 5.0, 30))
    labels = [np.arange(3).astype(str)] * 2
    problem = Problem(["a", "b"], codes, labels, y, prior=float(np.mean(y)))
    shifted = Problem(["a", "b"], codes, labels, y, prior=problem.prior + 3.0)
    fewer = Problem(["a", "b"], codes[:-1], labels, y[:-1], prior=problem.prior)
    fs = enumerate_facts(problem, 2)
    for solve in (greedy_summary, exact_summary):
        res = solve(shifted, fs, 2)
        assert outcome(res) == outcome(solve(shifted, enumerate_facts(shifted, 2), 2))
        assert res.utility != solve(problem, fs, 2).utility
        with pytest.raises(ValueError, match="not enumerated from this problem"):
            solve(fewer, fs, 2)
