"""Tests for the sampling-based run-time vocalization baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baseline.sampling import sampling_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem


def problem(seed=0, n=400):
    rng = np.random.default_rng(seed)
    a = rng.choice(["x", "y", "z"], n)
    df = pd.DataFrame(
        {
            "a": a,
            "b": rng.choice(["u", "v"], n),
            "t": np.where(a == "x", 40.0, 10.0) + rng.normal(0, 2.0, n),
        }
    )
    return Problem.from_pandas(df, ["a", "b"], "t")


class TestSamplingBaseline:
    def test_returns_m_facts(self):
        p = problem()
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=3, seed=1)
        assert len(res.facts) == 3
        assert len(res.value_ranges) == 3

    def test_no_repeated_facts(self):
        p = problem()
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=3, seed=2)
        assert len(set(res.extra["fact_ids"])) == 3

    def test_latency_below_total(self):
        p = problem()
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=3, seed=3)
        assert 0 < res.latency_seconds <= res.total_seconds

    def test_utility_reasonable_vs_greedy(self):
        """Sampling approximates greedy: with a strong signal it should
        reach a large fraction of greedy's utility."""
        p = problem()
        fs = enumerate_facts(p)
        g = greedy_summary(p, fs, 3).utility
        s = sampling_summary(p, fs, m=3, seed=4).utility
        assert s >= 0.6 * g

    def test_value_ranges_bracket_estimates(self):
        p = problem()
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=2, seed=5)
        for lo, hi in res.value_ranges:
            assert lo < hi

    def test_rows_sampled_bounded(self):
        p = problem(n=500)
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=2, batch_fraction=0.05, seed=6)
        assert 0 < res.rows_sampled <= p.n_rows

    def test_deterministic_given_seed(self):
        p = problem()
        fs = enumerate_facts(p)
        r1 = sampling_summary(p, fs, m=3, seed=7)
        r2 = sampling_summary(p, fs, m=3, seed=7)
        assert r1.extra["fact_ids"] == r2.extra["fact_ids"]

    def test_strong_signal_found_early(self):
        """With one dominant fact, the CI test should separate fast —
        far fewer rows sampled than exist."""
        p = problem(n=5000)
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=1, batch_fraction=0.01, seed=8)
        assert res.rows_sampled < p.n_rows

    def test_normalized_in_bounds(self):
        p = problem()
        fs = enumerate_facts(p)
        res = sampling_summary(p, fs, m=3, seed=9)
        assert 0.0 <= res.normalized <= 1.0 + 1e-9

    def test_one_fact_problem(self):
        """With no extra dimensions the only fact is the overall average;
        it is committed without a rival to separate from."""
        df = pd.DataFrame({"a": ["x"], "t": [7.0]})
        p = Problem.from_pandas(df, ["a"], "t")
        fs = enumerate_facts(p, max_extra_dims=0)
        assert fs.n_facts == 1
        res = sampling_summary(p, fs, m=2, seed=0)
        assert res.extra["fact_ids"] == [0]
        assert res.facts[0].scope == () and res.facts[0].value == 7.0
        assert len(res.value_ranges) == 1
