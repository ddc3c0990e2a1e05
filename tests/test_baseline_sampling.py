"""Tests for the sampling-based run-time vocalization baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baseline.sampling import _estimated_gains, sampling_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.utility import apply_fact


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


def reference_estimated_gains(factset, sample_idx, dev_sample, n_total):
    """One ``bincount`` per statistic per group over the group's local
    fact ids: the loop the stacked estimator replaced."""
    s = len(sample_idx)
    target_s = factset.problem.target[sample_idx]
    k = factset.n_facts
    est, half, v_mean, v_count = np.zeros(k), np.zeros(k), np.zeros(k), np.zeros(k)
    for g, size in enumerate(factset.group_sizes):
        lo, hi = int(factset.offsets[g]), int(factset.offsets[g + 1])
        r2f = factset.row_to_fact[g][sample_idx] - lo
        cnt = np.bincount(r2f, minlength=size).astype(float)
        sums = np.bincount(r2f, weights=target_s, minlength=size)
        means = np.divide(sums, cnt, out=np.zeros_like(sums), where=cnt > 0)
        contrib = np.maximum(dev_sample - np.abs(means[r2f] - target_s), 0.0)
        c_sum = np.bincount(r2f, weights=contrib, minlength=size)
        c_sq = np.bincount(r2f, weights=contrib**2, minlength=size)
        mean_c = c_sum / s
        var_c = np.maximum(c_sq / s - mean_c**2, 0.0)
        est[lo:hi] = n_total * mean_c
        half[lo:hi] = n_total * np.sqrt(var_c / s)
        v_mean[lo:hi] = means
        v_count[lo:hi] = cnt
    return est, half, v_mean, v_count


def assert_estimates_match_reference(p, fs, seed, sample_size, applied=2):
    rng = np.random.default_rng(seed)
    dev = p.prior_deviation()
    for fid in rng.integers(0, fs.n_facts, applied):
        dev = apply_fact(dev, p.target, fs, int(fid))
    idx = rng.permutation(p.n_rows)[:sample_size]
    got = _estimated_gains(fs, idx, dev[idx], p.n_rows)
    want = reference_estimated_gains(fs, idx, dev[idx], p.n_rows)
    for name, g, w in zip(("est", "half", "means", "counts"), got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


class TestEstimatedGains:
    """The stacked estimator is bit-identical to the per-group loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_group_loop(self, seed):
        p = problem(seed, n=300)
        fs = enumerate_facts(p)
        # a small sample leaves some facts unsampled (count 0)
        for sample_size in (5, 40, 300):
            assert_estimates_match_reference(p, fs, seed, sample_size)

    def test_constant_columns(self):
        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "a": ["x"] * 60,
                "b": rng.choice(["u", "v", "w"], 60),
                "c": ["k"] * 60,
                "t": rng.normal(10.0, 3.0, 60),
            }
        )
        p = Problem.from_pandas(df, ["a", "b", "c"], "t")
        fs = enumerate_facts(p, max_extra_dims=3)
        for seed, sample_size in [(0, 4), (1, 30), (2, 60)]:
            assert_estimates_match_reference(p, fs, seed, sample_size)

    def test_one_fact_problem(self):
        df = pd.DataFrame({"a": ["x", "y", "x"], "t": [7.0, 1.0, 4.0]})
        p = Problem.from_pandas(df, ["a"], "t")
        fs = enumerate_facts(p, max_extra_dims=0)
        assert fs.n_facts == 1
        for sample_size in (1, 3):
            assert_estimates_match_reference(p, fs, 0, sample_size, applied=0)


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
