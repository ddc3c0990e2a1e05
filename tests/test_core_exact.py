"""Tests for Algorithm 1 (exact, E): optimality (Corollary 1) against a
brute-force oracle, and that both pruning rules keep it sound."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import brute_force_summary, exact_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import single_fact_utilities


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
