"""Tests for Algorithm 2 (greedy, G-B) including the (1 - 1/e) bound."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import brute_force_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import single_fact_utilities
from repro.core import utility as U


def grid(prior=0.0):
    df = pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )
    return Problem.from_pandas(df, ["region", "season"], "delay", prior=prior)


def rand_problem(seed, n=30, dims=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({d: rng.choice(list("xyzw"), n) for d in dims})
    df["t"] = np.round(rng.random(n) * 100, 1)
    return Problem.from_pandas(df, list(dims), "t")


class TestGreedy:
    def test_first_fact_has_max_single_utility(self):
        p = grid()
        fs = enumerate_facts(p)
        res = greedy_summary(p, fs, 1)
        singles = single_fact_utilities(p, fs)
        assert res.utility == pytest.approx(singles.max())

    def test_utility_consistent_with_recomputation(self):
        p = rand_problem(1)
        fs = enumerate_facts(p)
        res = greedy_summary(p, fs, 3)
        assert res.utility == pytest.approx(
            U.speech_utility(p, fs, res.extra["fact_ids"])
        )

    def test_m_zero_gives_empty_speech(self):
        p = grid()
        res = greedy_summary(p, enumerate_facts(p), 0)
        assert res.facts == [] and res.utility == 0.0

    def test_utility_monotone_in_m(self):
        p = rand_problem(2)
        fs = enumerate_facts(p)
        utilities = [greedy_summary(p, fs, m).utility for m in range(5)]
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_stops_early_when_no_gain(self):
        # Two distinct values, a dim separating them perfectly: after two
        # cell facts error is zero; further facts add nothing.
        df = pd.DataFrame({"a": ["x", "y"], "t": [1.0, 9.0]})
        p = Problem.from_pandas(df, ["a"], "t")
        res = greedy_summary(p, enumerate_facts(p), 5)
        assert len(res.facts) <= 2
        assert res.normalized == pytest.approx(1.0)

    def test_greedy_on_paper_style_example(self):
        """On the running-example grid (prior 0) the single best fact is
        the overall average 15: every 20-cell improves by 15 and every
        10-cell by 5, totalling 4*15 + 4*5 = 80. Greedy must find it."""
        p = grid()
        fs = enumerate_facts(p)
        res = greedy_summary(p, fs, 1)
        assert res.utility == pytest.approx(80.0)
        assert res.facts[0].scope == ()

    def test_rows_processed_counted(self):
        p = rand_problem(3)
        fs = enumerate_facts(p)
        res = greedy_summary(p, fs, 3)
        assert res.rows_processed > 0
        assert res.facts_evaluated >= fs.n_facts  # at least one full pass

    def test_deterministic(self):
        p = rand_problem(4)
        fs = enumerate_facts(p)
        r1 = greedy_summary(p, fs, 3)
        r2 = greedy_summary(p, fs, 3)
        assert r1.extra["fact_ids"] == r2.extra["fact_ids"]

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_approximation_guarantee(self, seed):
        """Theorem 3: greedy utility >= (1 - 1/e) * optimal utility."""
        p = rand_problem(seed, n=14, dims=("a", "b"))
        fs = enumerate_facts(p)
        m = 2
        g = greedy_summary(p, fs, m).utility
        opt = brute_force_summary(p, fs, m).utility
        assert g >= (1 - 1 / np.e) * opt - 1e-6

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_greedy_near_optimal_in_practice(self, seed):
        """The paper observes >= 98% of optimal on real data; random
        small instances should also be far above the worst-case bound."""
        p = rand_problem(seed, n=12, dims=("a", "b"))
        fs = enumerate_facts(p)
        g = greedy_summary(p, fs, 2).utility
        opt = brute_force_summary(p, fs, 2).utility
        if opt > 0:
            assert g / opt >= 0.8
