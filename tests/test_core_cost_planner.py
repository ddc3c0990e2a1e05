"""Tests for the Section VI-C cost model and Algorithm 4 / OPTPRUNE."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import planner
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.planner import opt_prune, prune_probability
from repro.core.pruning import PruningPlan, naive_plan, source_order


def rand_problem(seed, n=60, dims=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "a": rng.choice(list("xy"), n),
            "b": rng.choice([f"v{i}" for i in range(8)], n),
            "c": rng.choice([f"w{i}" for i in range(15)], n),
        }
    )
    df["t"] = np.round(rng.random(n) * 100, 1)
    return Problem.from_pandas(df, list(dims), "t")


def prunable_problem():
    """One coarse dim explains the target; two dims have many noise
    values."""
    rng = np.random.default_rng(0)
    n = 500
    a = rng.choice(["lo", "hi"], n)
    df = pd.DataFrame(
        {
            "a": a,
            "b": rng.choice([f"v{i}" for i in range(80)], n),
            "c": rng.choice([f"w{i}" for i in range(60)], n),
            "t": np.where(a == "lo", 0.0, 100.0) + rng.normal(0, 1, n),
        }
    )
    return Problem.from_pandas(df, ["a", "b", "c"], "t")


@st.composite
def problems(draw):
    """Random problems over 1-4 dimensions of 1-12 values each."""
    cards = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    df = pd.DataFrame({f"d{j}": rng.integers(0, c, n) for j, c in enumerate(cards)})
    # the first dimension shifts the target, so some groups are prunable
    df["t"] = np.round(rng.gamma(2.0, 10.0, n) * (1 + df["d0"] % 3), draw(st.integers(0, 2)))
    return Problem.from_pandas(df, list(df.columns[:-1]), "t")


def forced_opt_prune(fs):
    """OPTPRUNE with the small-problem short-circuit switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "PLANNING_THRESHOLD", 0)
        return opt_prune(fs)


# ---- reference: the per-plan cost model and candidate enumeration ------
# ``opt_prune`` costs Algorithm 4's candidates incrementally as it
# builds them. The reference builds every candidate as a plan and costs
# each one anew with the Section VI-C formula.


class RefCostModel:
    def __init__(self, factset):
        sigma, bound_scale, bound_cost_ratio = 0.5, 3.0, 0.35
        n = factset.problem.n_rows
        self.M = np.diff(factset.offsets).astype(np.float64)
        dimsets = [frozenset(dims) for dims in factset.group_dims]
        k = len(self.M)
        inv = 1.0 / self.M
        z = (inv[:, None] - bound_scale * inv[None, :]) / (sigma * math.sqrt(2.0))
        P = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        self.log1mP = np.log(np.clip(1.0 - P, 1e-300, 1.0))
        self.contains = np.zeros((k, k), dtype=bool)
        for t in range(k):
            for g in range(k):
                self.contains[t, g] = dimsets[t] <= dimsets[g]
        self.cu = n + self.M
        self.cd = np.full(k, bound_cost_ratio * n)

    def survival(self, plan):
        if not plan.sources or not plan.targets:
            return np.ones(len(self.M))
        S = np.fromiter(plan.sources, dtype=int)
        T = np.fromiter(plan.targets, dtype=int)
        w = self.log1mP[S][:, T].sum(axis=0)
        return np.exp(self.contains[T].T.astype(float) @ w)

    def plan_cost(self, plan):
        cost = float(self.cu[list(plan.sources)].sum()) if plan.sources else 0.0
        if plan.targets:
            cost += float(self.cd[list(plan.targets)].sum())
        surv = self.survival(plan)
        mask = np.ones(len(self.M), dtype=bool)
        mask[list(plan.sources)] = False
        return cost + float((surv[mask] * self.cu[mask]).sum())


def ref_candidate_plans(factset, cm):
    order = source_order(factset)
    k = len(order)
    cum = np.cumsum(cm.log1mP[order, :], axis=0)
    plans = [PruningPlan(sources=tuple(order), targets=())]
    for i in range(1, k):
        S = tuple(order[:i])
        p_t = 1.0 - np.exp(cum[i - 1])
        alive = np.zeros(k, dtype=bool)
        alive[order[i:]] = True
        T = []
        while alive.any():
            counts = (cm.contains & alive[None, :]).sum(axis=1)
            t = int(np.argmax(np.where(alive, p_t * counts, -np.inf)))
            T.append(t)
            plans.append(PruningPlan(sources=S, targets=tuple(T)))
            alive &= ~cm.contains[t]
    return plans


def ref_opt_prune(factset):
    """The first candidate cheaper than every earlier one by > 1e-12."""
    cm = RefCostModel(factset)
    best, best_cost = None, math.inf
    for plan in ref_candidate_plans(factset, cm):
        cost = cm.plan_cost(plan)
        if cost < best_cost - 1e-12:
            best, best_cost = plan, cost
    return best


class TestPruneProbability:
    def test_small_source_beats_large_target(self):
        # fewer facts in source -> larger per-fact mean -> likely prune
        assert prune_probability(1, 100, sigma=0.1) > 0.99

    def test_symmetric_at_equal_sizes(self):
        assert prune_probability(10, 10, sigma=0.5) == pytest.approx(0.5)

    def test_monotone_in_target_size(self):
        ps = [prune_probability(2, mt, 0.2) for mt in (2, 5, 20, 100)]
        assert ps == sorted(ps)

    def test_sigma_flattens(self):
        sharp = prune_probability(1, 50, sigma=0.05)
        flat = prune_probability(1, 50, sigma=5.0)
        assert sharp > flat > 0.5


class TestCostModel:
    def test_no_prune_plan_cost_is_all_utilities(self, monkeypatch):
        """The short-circuit compares the trivial plan's cost,
        Σ_g C_U(g) = Σ_g (n + M(g)), against the threshold."""
        p = prunable_problem()
        fs = enumerate_facts(p)
        trivial_cost = sum(p.n_rows + m for m in np.diff(fs.offsets))
        planned = forced_opt_prune(fs)
        assert planned.targets
        monkeypatch.setattr(planner, "PLANNING_THRESHOLD", trivial_cost)
        assert opt_prune(fs) == planned
        monkeypatch.setattr(planner, "PLANNING_THRESHOLD", trivial_cost + 1)
        assert opt_prune(fs) == PruningPlan(sources=tuple(source_order(fs)), targets=())


class TestPlanner:
    def test_trivial_plan_always_candidate(self):
        # one row: every group has one fact, so no source is likely to
        # prune anything and no bound scan pays for itself
        df = pd.DataFrame({"a": ["x"], "b": ["y"], "c": ["z"], "t": [1.0]})
        fs = enumerate_facts(Problem.from_pandas(df, ["a", "b", "c"], "t"))
        plan = forced_opt_prune(fs)
        assert plan == ref_opt_prune(fs)
        assert plan == PruningPlan(sources=tuple(source_order(fs)), targets=())

    def test_sources_are_prefixes_by_size(self):
        for seed in range(5):
            fs = enumerate_facts(rand_problem(seed))
            plan = forced_opt_prune(fs)
            assert plan.targets
            # Algorithm 4's source condition: no outside group has fewer
            # facts than a group inside S
            max_src = max(fs.group_sizes[s] for s in plan.sources)
            outside = set(range(len(fs.group_dims))) - set(plan.sources)
            assert all(fs.group_sizes[g] >= max_src for g in outside)

    def test_targets_disjoint_from_sources(self):
        for seed in range(5):
            plan = forced_opt_prune(enumerate_facts(rand_problem(seed)))
            assert plan.targets
            assert not (set(plan.sources) & set(plan.targets))

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_opt_prune_returns_min_cost_candidate(self, p):
        fs = enumerate_facts(p)
        plan = forced_opt_prune(fs)
        assert plan == ref_opt_prune(fs)
        assert plan.sources == tuple(source_order(fs)[: len(plan.sources)])

    def test_opt_prune_short_circuits_tiny_problems(self):
        p = rand_problem(8)
        fs = enumerate_facts(p)
        plan = opt_prune(fs)  # default threshold ≫ this problem's work
        assert plan.targets == ()
        assert sorted(plan.sources) == list(range(len(fs.group_dims)))

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_go_equals_gb_utility(self, seed):
        """G-O (cost-optimized pruning) must not change speech quality."""
        p = rand_problem(seed)
        fs = enumerate_facts(p)
        plan = forced_opt_prune(fs)
        assert plan.targets
        gb = greedy_summary(p, fs, 3)
        go = greedy_summary(p, fs, 3, plan=plan)
        assert go.utility == pytest.approx(gb.utility)

    def test_go_skips_work_on_prunable_data(self):
        """On data where one coarse dim explains the target and another
        dim has many noise values, the chosen plan should avoid
        computing utilities for every noise fact."""
        p = prunable_problem()
        fs = enumerate_facts(p)
        plan = forced_opt_prune(fs)
        assert plan.targets
        gb = greedy_summary(p, fs, 3)
        go = greedy_summary(p, fs, 3, plan=plan)
        assert go.utility == pytest.approx(gb.utility)
        assert go.facts_evaluated < gb.facts_evaluated

    @given(problems(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_pruned_variants_choose_gb_facts(self, p, m):
        """Pruning is sound: G-P and G-O pick G-B's facts, in order."""
        fs = enumerate_facts(p)
        gb = greedy_summary(p, fs, m)
        for plan in (naive_plan(fs), forced_opt_prune(fs)):
            assert greedy_summary(p, fs, m, plan=plan).extra["fact_ids"] == gb.extra["fact_ids"]
