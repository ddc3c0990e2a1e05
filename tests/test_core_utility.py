"""Tests for the utility model (Definitions 4-6) including hand-computed
values on a running-example-style grid and property-based checks of
monotonicity and submodularity (Theorem 1)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.facts import enumerate_facts
from repro.core.model import Problem
from repro.core.pruning import full_plan, pruned_gains, single_fact_utilities
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


def fid_by_scope(fs, scope: dict):
    """Find the global fact id with exactly the given scope."""
    for fid in range(fs.n_facts):
        if fs.fact(fid).scope_dict == scope:
            return fid
    raise KeyError(scope)


class TestHandComputedUtilities:
    """With prior 0, accumulated prior error is 4*20 + 4*10 = 120 (the
    paper's Example 4 structure)."""

    def test_prior_error(self):
        p = grid()
        assert p.prior_deviation().sum() == pytest.approx(120.0)

    def test_cell_fact_utility_equals_cell_value(self):
        p, fs = grid(), enumerate_facts(grid())
        fid = fid_by_scope(fs, {"region": "South", "season": "Summer"})
        # exact fact on a 20-delay cell removes its full error
        assert U.speech_utility(p, fs, [fid]) == pytest.approx(20.0)

    def test_winter_fact_utility(self):
        p, fs = grid(), enumerate_facts(grid())
        fid = fid_by_scope(fs, {"season": "Winter"})
        # winter avg 15; winter cells are (20,10,20,10): per-row new dev 5
        # vs prior dev (20,10,...): gain per row = dev - 5
        assert fs.fact(fid).value == pytest.approx(15.0)
        assert U.speech_utility(p, fs, [fid]) == pytest.approx(
            (20 - 5) + (10 - 5) + (20 - 5) + (10 - 5)
        )

    def test_user_keeps_prior_when_closer(self):
        # prior equals the true value of summer cells with delay 10;
        # a coarse fact proposing 15 must not increase their deviation.
        p = grid(prior=10.0)
        fs = enumerate_facts(p)
        fid = fid_by_scope(fs, {"season": "Winter"})
        dev = U.speech_deviation(p, fs, [fid])
        summer_10 = [0, 3]  # North/West Summer rows (delay 10)
        np.testing.assert_allclose(dev[summer_10], 0.0)

    def test_two_fact_speech_deviation(self):
        p, fs = grid(), enumerate_facts(grid())
        winter = fid_by_scope(fs, {"season": "Winter"})
        north = fid_by_scope(fs, {"region": "North"})
        # North avg = (10 + 20)/2 = 15
        assert fs.fact(north).value == pytest.approx(15.0)
        dev = U.speech_deviation(p, fs, [winter, north])
        # winter rows: |15-v| = 5 each; North Summer: min(10, |15-10|) = 5;
        # S/E/W Summer keep prior dev 20, 20, 10
        assert dev.sum() == pytest.approx(4 * 5 + 5 + 20 + 20 + 10)

    def test_expectation_picks_closest_among_facts(self):
        p, fs = grid(), enumerate_facts(grid())
        winter = fid_by_scope(fs, {"season": "Winter"})
        east_winter = fid_by_scope(fs, {"region": "East", "season": "Winter"})
        dev = U.speech_deviation(p, fs, [winter, east_winter])
        # East Winter row (value 20): facts propose 15 and 20 -> picks 20
        assert dev[6] == pytest.approx(0.0)

    def test_order_invariance(self):
        p, fs = grid(), enumerate_facts(grid())
        a = fid_by_scope(fs, {"season": "Winter"})
        b = fid_by_scope(fs, {"region": "North"})
        assert U.speech_utility(p, fs, [a, b]) == pytest.approx(
            U.speech_utility(p, fs, [b, a])
        )

    def test_utility_of_empty_speech_is_zero(self):
        p, fs = grid(), enumerate_facts(grid())
        assert U.speech_utility(p, fs, []) == pytest.approx(0.0)

    def test_duplicate_fact_adds_nothing(self):
        p, fs = grid(), enumerate_facts(grid())
        a = fid_by_scope(fs, {"season": "Winter"})
        assert U.speech_utility(p, fs, [a, a]) == pytest.approx(
            U.speech_utility(p, fs, [a])
        )


class TestKernels:
    def test_group_gains_match_speech_utility(self):
        p, fs = grid(), enumerate_facts(grid())
        gains, _ = pruned_gains(p.prior_deviation(), p.target, fs, full_plan(fs))
        for fid in range(fs.n_facts):
            assert gains[fid] == pytest.approx(U.speech_utility(p, fs, [fid]))

    def test_single_fact_utilities_vector(self):
        p, fs = grid(), enumerate_facts(grid())
        vec = single_fact_utilities(p, fs)
        assert vec.shape == (fs.n_facts,)
        for fid in range(fs.n_facts):
            assert vec[fid] == pytest.approx(U.speech_utility(p, fs, [fid]))

    def test_deviation_bounds_dominate_gains(self):
        """Algorithm 3's bound: summed deviation per scope upper-bounds
        any fact's gain in that group."""
        p, fs = grid(), enumerate_facts(grid())
        dev = p.prior_deviation()
        gains, _ = pruned_gains(dev, p.target, fs, full_plan(fs))
        for g, size in enumerate(fs.group_sizes):
            bounds = U.group_deviation_bounds(dev, fs, g)
            assert bounds.shape == (size,)
            assert np.all(gains[fs.offsets[g] : fs.offsets[g + 1]] <= bounds + 1e-9)

    def test_apply_fact_is_pure(self):
        p, fs = grid(), enumerate_facts(grid())
        dev = p.prior_deviation()
        before = dev.copy()
        U.apply_fact(dev, p.target, fs, 0)
        np.testing.assert_array_equal(dev, before)

    def test_normalized_bounds(self):
        p, fs = grid(), enumerate_facts(grid())
        u = U.speech_utility(p, fs, list(range(3)))
        assert 0.0 <= U.normalized(p, u) <= 1.0

    def test_normalized_degenerate_problem(self):
        df = pd.DataFrame({"a": ["x", "y"], "t": [5.0, 5.0]})
        p = Problem.from_pandas(df, ["a"], "t")  # prior = 5 -> zero error
        assert U.normalized(p, 0.0) == 1.0


@st.composite
def random_problem(draw):
    n = draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    df = pd.DataFrame(
        {
            "a": rng.choice(list("xyz"), n),
            "b": rng.choice(list("uv"), n),
            "t": np.round(rng.random(n) * 100, 1),
        }
    )
    return Problem.from_pandas(df, ["a", "b"], "t")


class TestTheorem1Properties:
    @given(random_problem(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, p, data):
        fs = enumerate_facts(p)
        ids = data.draw(
            st.lists(st.integers(0, fs.n_facts - 1), min_size=0, max_size=3)
        )
        extra = data.draw(st.integers(0, fs.n_facts - 1))
        assert U.speech_utility(p, fs, ids + [extra]) >= U.speech_utility(
            p, fs, ids
        ) - 1e-9

    @given(random_problem(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_submodular(self, p, data):
        """f(S1 + s) - f(S1) >= f(S2 + s) - f(S2) for S1 ⊆ S2."""
        fs = enumerate_facts(p)
        s1 = data.draw(st.lists(st.integers(0, fs.n_facts - 1), max_size=2))
        s2_extra = data.draw(st.lists(st.integers(0, fs.n_facts - 1), max_size=2))
        s2 = s1 + s2_extra
        f = data.draw(st.integers(0, fs.n_facts - 1))
        gain1 = U.speech_utility(p, fs, s1 + [f]) - U.speech_utility(p, fs, s1)
        gain2 = U.speech_utility(p, fs, s2 + [f]) - U.speech_utility(p, fs, s2)
        assert gain1 >= gain2 - 1e-9
