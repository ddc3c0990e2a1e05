"""Tests for Algorithm 1 (exact, E): optimality (Corollary 1) against a
brute-force oracle, that both pruning rules keep it sound, and that
ranking one representative per distinct row set returns the speech of
the DFS over every fact."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import _EPS, brute_force_summary, exact_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import single_fact_utilities
from repro.core import utility as U


def rand_problem(seed, n=14, dims=("a", "b")):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({d: rng.choice(list("xyz"), n) for d in dims})
    df["t"] = np.round(rng.random(n) * 100, 1)
    return Problem.from_pandas(df, list(dims), "t")


def grid():
    df = pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )
    return Problem.from_pandas(df, ["region", "season"], "delay", prior=0.0)


def reference_exact(problem, factset, m):
    """Algorithm 1 as it ran before facts were collapsed: the same DFS
    and bound tests, over every fact in single-utility order. Returns
    ``(fact_ids, utility)``."""
    single = single_fact_utilities(problem, factset)
    order = np.argsort(-single, kind="stable")
    u_sorted = single[order]
    seed = greedy_summary(problem, factset, m)
    b, best_ids = seed.utility, list(seed.extra["fact_ids"])
    prior_total = float(problem.prior_deviation().sum())

    def dfs(start, chosen, s_u, dev):
        nonlocal b, best_ids
        remaining = m - len(chosen)
        for j in range(start, len(order)):
            if s_u + remaining * u_sorted[j] < b - _EPS or u_sorted[j] <= 0:
                break
            fid = int(order[j])
            new_dev = U.apply_fact(dev, problem.target, factset, fid)
            exact_u = prior_total - float(new_dev.sum())
            if exact_u > b + _EPS:
                b, best_ids = exact_u, chosen + [fid]
            if len(chosen) + 1 < m:
                dfs(j + 1, chosen + [fid], s_u + u_sorted[j], new_dev)

    dfs(0, [], 0.0, problem.prior_deviation())
    return best_ids, U.speech_utility(problem, factset, best_ids)


@st.composite
def duplicate_rich_problems(draw):
    """Problems whose facts often share row sets: besides random
    columns, a copy of the first column, a function of it, and a
    constant column; 1-row problems have a single distinct row set."""
    n = draw(st.integers(1, 24))
    base = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    kinds = draw(
        st.lists(
            st.sampled_from(["random", "copy", "function", "constant"]), min_size=0, max_size=3
        )
    )
    columns = [base]
    for kind in kinds:
        if kind == "random":
            col = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        elif kind == "copy":
            col = base
        elif kind == "function":
            col = (base * 5 + 1) % 3  # coarser: merges some base values
        else:
            col = np.full(n, 7)
        columns.append(np.asarray(col))
    codes = np.stack(columns, axis=1)
    noise = np.array(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)), dtype=float)
    # A prior far below the data makes the overall fact greedy's first
    # pick, where a pair of disjoint facts is often better: the DFS then
    # improves on greedy's speech.
    far = draw(st.booleans())
    target = 100.0 * far + draw(st.integers(0, 60)) * (base % 2) + noise
    prior = 0.0 if far else float(target.mean())
    labels = [np.arange(codes[:, j].max() + 1).astype(str) for j in range(codes.shape[1])]
    problem = Problem([f"d{j}" for j in range(codes.shape[1])], codes, labels, target, prior)
    return problem, draw(st.integers(0, 3))


def distinct_row_sets(fs):
    return len(
        {
            tuple(np.flatnonzero(fs.row_to_fact[fs.group_of(fid)] == fid))
            for fid in range(fs.n_facts)
        }
    )


class TestRepresentatives:
    @given(duplicate_rich_problems(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_dfs_over_every_fact(self, case, m):
        problem, extra = case
        fs = enumerate_facts(problem, max_extra_dims=extra)
        res = exact_summary(problem, fs, m)
        ids, utility = reference_exact(problem, fs, m)
        assert res.extra["fact_ids"] == ids
        assert res.utility == utility

    @given(duplicate_rich_problems())
    @settings(max_examples=100, deadline=None)
    def test_representatives_count_distinct_row_sets(self, case):
        problem, extra = case
        fs = enumerate_facts(problem, max_extra_dims=extra)
        assert exact_summary(problem, fs, 2).extra["representatives"] == distinct_row_sets(fs)

    def test_one_row_problem_has_one_representative(self):
        codes = np.array([[2, 0, 5]])
        labels = [np.arange(c + 1).astype(str) for c in codes[0]]
        p = Problem(["a", "b", "c"], codes, labels, np.array([4.0]), prior=0.0)
        fs = enumerate_facts(p, max_extra_dims=3)
        res = exact_summary(p, fs, 3)
        assert fs.n_facts == 8 and res.extra["representatives"] == 1
        assert res.extra["fact_ids"] == [0] and res.extra["nodes_expanded"] == 1

    def test_copied_column_keeps_lowest_ids(self):
        """``b`` copies ``c``: with the prior far below the data the
        optimum pairs ``c=p`` with ``c=q`` and beats greedy, and E must
        name those facts, not their copies ``b=p`` and ``b=q``."""
        rng = np.random.default_rng(4)
        c = rng.choice(["p", "q"], 40)
        df = pd.DataFrame({"c": c, "b": c, "a": rng.choice(list("wxyz"), 40)})
        df["t"] = np.where(c == "p", 100.0, 140.0) + rng.integers(0, 3, 40)
        p = Problem.from_pandas(df, ["c", "b", "a"], "t", prior=0.0)
        fs = enumerate_facts(p)
        res = exact_summary(p, fs, 2)
        assert res.utility > greedy_summary(p, fs, 2).utility + 1.0
        assert res.extra["representatives"] < fs.n_facts
        assert sorted(res.extra["fact_ids"]) == [1, 2]  # group (c,)
        assert res.extra["fact_ids"] == reference_exact(p, fs, 2)[0]


class TestExact:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        p = rand_problem(seed)
        fs = enumerate_facts(p)
        for m in (1, 2):
            assert exact_summary(p, fs, m).utility == pytest.approx(
                brute_force_summary(p, fs, m).utility
            )

    def test_matches_brute_force_m3(self):
        for seed in range(6):
            p = rand_problem(seed, n=10)
            fs = enumerate_facts(p, max_extra_dims=1)
            assert exact_summary(p, fs, 3).utility == pytest.approx(
                brute_force_summary(p, fs, 3).utility
            )

    def test_at_least_greedy(self):
        for seed in range(10):
            p = rand_problem(seed, n=20, dims=("a", "b", "c"))
            fs = enumerate_facts(p)
            g = greedy_summary(p, fs, 3).utility
            e = exact_summary(p, fs, 3).utility
            assert e >= g - 1e-9

    def test_grid_optimum(self):
        """On the running-example grid the optimal 2-fact speech pairs a
        season fact with a region fact: the greedy sequence (40 + gain)
        is optimal here and exact must equal it."""
        p = grid()
        fs = enumerate_facts(p)
        e = exact_summary(p, fs, 2)
        b = brute_force_summary(p, fs, 2)
        assert e.utility == pytest.approx(b.utility)

    def test_pruning_reduces_nodes(self):
        """With the greedy seed bound, branch-and-bound must expand far
        fewer nodes than the full combination count."""
        p = rand_problem(11, n=30, dims=("a", "b", "c"))
        fs = enumerate_facts(p)
        res = exact_summary(p, fs, 3)
        k = fs.n_facts
        full = k + k * (k - 1) // 2 + k * (k - 1) * (k - 2) // 6
        assert res.extra["nodes_expanded"] < full

    def test_m_one(self):
        p = rand_problem(3)
        fs = enumerate_facts(p)
        singles = single_fact_utilities(p, fs)
        assert exact_summary(p, fs, 1).utility == pytest.approx(singles.max())

    def test_zero_error_problem(self):
        df = pd.DataFrame({"a": ["x", "x"], "t": [5.0, 5.0]})
        p = Problem.from_pandas(df, ["a"], "t")
        fs = enumerate_facts(p)
        res = exact_summary(p, fs, 2)
        assert res.utility == pytest.approx(0.0)
        assert res.normalized == 1.0

    def test_counters_populated(self):
        p = rand_problem(5)
        fs = enumerate_facts(p)
        res = exact_summary(p, fs, 2)
        assert res.rows_processed > 0 and res.facts_evaluated > 0


class TestBruteForce:
    def test_considers_smaller_speeches(self):
        # "up to m" semantics: brute force over sizes 1..m
        p = rand_problem(9, n=8)
        fs = enumerate_facts(p)
        b1 = brute_force_summary(p, fs, 1).utility
        b2 = brute_force_summary(p, fs, 2).utility
        assert b2 >= b1 - 1e-12
