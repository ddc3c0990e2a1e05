"""Tests for Algorithm 3 fact-group pruning (G-P) and its soundness:
pruning never changes which fact greedy selects."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import planner
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import PruningPlan, full_plan, naive_plan, pruned_gains
from repro.core import utility as U


def rand_problem(seed, n=40, dims=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({d: rng.choice(list("xyzuv"), n) for d in dims})
    df["t"] = np.round(rng.random(n) * 100, 1)
    return Problem.from_pandas(df, list(dims), "t")


def reference_gains(dev, target, fs):
    """Every fact's gain from one ``bincount`` per group over the
    group's local fact ids: the kernel the batched one replaced."""
    out = []
    for rows, lo, size in zip(fs.row_to_fact, fs.offsets, fs.group_sizes):
        local = rows - lo
        contrib = np.maximum(dev - np.abs(fs.values[lo : lo + size][local] - target), 0.0)
        out.append(np.bincount(local, weights=contrib, minlength=size))
    return np.concatenate(out)


def forced_opt_prune(fs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "PLANNING_THRESHOLD", 0)
        return planner.opt_prune(fs)


class TestNaivePlan:
    def test_source_is_smallest_group(self):
        p = rand_problem(0)
        fs = enumerate_facts(p)
        plan = naive_plan(fs)
        src = plan.sources[0]
        assert fs.group_sizes[src] == fs.group_sizes.min()

    def test_all_groups_covered(self):
        p = rand_problem(1)
        fs = enumerate_facts(p)
        plan = naive_plan(fs)
        assert sorted(plan.sources + plan.targets) == list(range(len(fs.group_dims)))

    def test_targets_ordered_by_size(self):
        p = rand_problem(2)
        fs = enumerate_facts(p)
        plan = naive_plan(fs)
        sizes = [fs.group_sizes[t] for t in plan.targets]
        assert sizes == sorted(sizes)


class TestPrunedGains:
    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_max_gain_preserved(self, seed):
        """Soundness: the argmax over pruned gains equals the true max
        gain — the greedy guarantee survives pruning."""
        p = rand_problem(seed)
        fs = enumerate_facts(p)
        dev = p.prior_deviation()
        full = reference_gains(dev, p.target, fs)
        pruned, _ = pruned_gains(dev, p.target, fs, naive_plan(fs))
        assert pruned.max() == pytest.approx(full.max())

    def test_max_gain_preserved_mid_speech(self):
        """Also sound after facts have been added (dev != prior dev)."""
        p = rand_problem(5)
        fs = enumerate_facts(p)
        dev = p.prior_deviation()
        # apply the globally best fact first
        full = reference_gains(dev, p.target, fs)
        dev = U.apply_fact(dev, p.target, fs, int(np.argmax(full)))
        full2 = reference_gains(dev, p.target, fs)
        pruned, _ = pruned_gains(dev, p.target, fs, naive_plan(fs))
        assert pruned.max() == pytest.approx(full2.max())

    def test_pruned_entries_are_minus_inf(self):
        # A constructed case where pruning definitely fires: one dim
        # explains everything, the other is pure noise with many values.
        rng = np.random.default_rng(0)
        n = 200
        a = rng.choice(["lo", "hi"], n)
        df = pd.DataFrame(
            {
                "a": a,
                "b": rng.choice([f"v{i}" for i in range(50)], n),
                "t": np.where(a == "lo", 0.0, 100.0),
            }
        )
        p = Problem.from_pandas(df, ["a", "b"], "t")
        fs = enumerate_facts(p)
        gains, stats = pruned_gains(
            p.prior_deviation(), p.target, fs, naive_plan(fs)
        )
        # soundness regardless of whether pruning fired
        assert np.isfinite(gains.max())

    def test_stats_counters(self):
        p = rand_problem(3)
        fs = enumerate_facts(p)
        _, stats = pruned_gains(
            p.prior_deviation(), p.target, fs, naive_plan(fs)
        )
        assert stats.rows_processed > 0
        assert stats.bounds_computed >= 0

    def test_specialization_pruning(self):
        """If group {a} is pruned, {a,b} and {a,c} must not be computed
        when listed after it — verified via the facts_evaluated count."""
        rng = np.random.default_rng(1)
        n = 300
        b = rng.choice(["x", "y"], n)
        df = pd.DataFrame(
            {
                "a": rng.choice([f"u{i}" for i in range(60)], n),
                "b": b,
                "c": rng.choice([f"w{i}" for i in range(40)], n),
                "t": np.where(b == "x", 0.0, 50.0),
            }
        )
        p = Problem.from_pandas(df, ["a", "b", "c"], "t")
        fs = enumerate_facts(p)
        gains, stats = pruned_gains(
            p.prior_deviation(), p.target, fs, naive_plan(fs)
        )
        if stats.groups_pruned > 0:
            assert stats.facts_evaluated < fs.n_facts
        # and still correct
        full = reference_gains(p.prior_deviation(), p.target, fs)
        assert gains.max() == pytest.approx(full.max())


class TestBatchedKernel:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 200),
        st.integers(0, 3),
        st.integers(0, 2),
        st.sampled_from(["full", "naive", "opt"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_gains_equal_per_group_bincount(self, seed, d, n, extra, applied, plan_name):
        """The one-``bincount`` gains equal a per-group ``bincount``
        exactly on every group the plan computes, mid-speech too; pruned
        groups read ``-inf``, and the counters count what was scanned."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, rng.integers(1, 6, d), (n, d)) * rng.integers(1, 3, d)
        target = np.round(rng.gamma(2.0, 10.0, n) + 50 * (codes[:, 0] > 0), 1)
        labels = [np.arange(codes[:, j].max() + 1).astype(str) for j in range(d)]
        p = Problem([f"d{j}" for j in range(d)], codes, labels, target, float(target.mean()))
        fs = enumerate_facts(p, max_extra_dims=extra)
        dev = p.prior_deviation()
        for fid in rng.integers(0, fs.n_facts, applied):
            dev = U.apply_fact(dev, p.target, fs, int(fid))
        plan = {"full": full_plan, "naive": naive_plan, "opt": forced_opt_prune}[plan_name](fs)
        gains, stats = pruned_gains(dev, p.target, fs, plan)
        want = reference_gains(dev, p.target, fs)
        computed = np.isfinite(gains)
        assert np.array_equal(gains[computed], want[computed])
        assert np.all(gains[~computed] == -np.inf)
        if plan_name == "full":
            assert computed.all()
        groups_computed = 0
        for g in range(len(fs.group_dims)):
            block = computed[fs.offsets[g] : fs.offsets[g + 1]]
            assert block.all() or not block.any()  # whole groups only
            groups_computed += int(block.all())
        assert stats.facts_evaluated == int(computed.sum())
        assert stats.rows_processed == n * (groups_computed + stats.bounds_computed)
        assert gains.max() == want.max()


class TestGreedyWithPruning:
    @given(st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_gp_equals_gb_utility(self, seed):
        """G-P must produce speeches with the same utility as G-B."""
        p = rand_problem(seed)
        fs = enumerate_facts(p)
        gb = greedy_summary(p, fs, 3)
        gp = greedy_summary(p, fs, 3, plan=naive_plan(fs))
        assert gp.utility == pytest.approx(gb.utility)

    def test_empty_targets_plan_is_gb(self):
        p = rand_problem(4)
        fs = enumerate_facts(p)
        trivial = PruningPlan(sources=tuple(range(len(fs.group_dims))), targets=())
        gb = greedy_summary(p, fs, 3)
        gt = greedy_summary(p, fs, 3, plan=trivial)
        assert gt.extra["fact_ids"] == gb.extra["fact_ids"]
        assert gt.facts_evaluated == gb.facts_evaluated
