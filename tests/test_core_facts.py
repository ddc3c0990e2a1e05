"""Unit tests for candidate-fact enumeration (Section III fact model)."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facts import enumerate_facts
from repro.core.model import Problem
from repro.core.utility import apply_fact


@pytest.fixture()
def grid_problem():
    # 4 regions x 2 seasons, one row per cell, delays chosen so facts differ.
    df = pd.DataFrame(
        {
            "region": ["North", "South", "East", "West"] * 2,
            "season": ["Summer"] * 4 + ["Winter"] * 4,
            "delay": [10.0, 20.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
        }
    )
    return Problem.from_pandas(df, ["region", "season"], "delay", prior=0.0)


class TestEnumeration:
    def test_group_count_two_dims(self, grid_problem):
        fs = enumerate_facts(grid_problem, max_extra_dims=2)
        # {}, {region}, {season}, {region,season}
        assert fs.group_dims == [(), (0,), (1,), (0, 1)]

    def test_group_count_limited_to_one_dim(self, grid_problem):
        fs = enumerate_facts(grid_problem, max_extra_dims=1)
        assert fs.group_dims == [(), (0,), (1,)]

    def test_total_fact_count(self, grid_problem):
        fs = enumerate_facts(grid_problem, max_extra_dims=2)
        # 1 overall + 4 regions + 2 seasons + 8 cells
        assert fs.n_facts == 1 + 4 + 2 + 8

    def test_overall_fact_value_is_mean(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        assert fs.values[0] == pytest.approx(15.0)

    def test_single_dim_fact_values(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        season = slice(fs.offsets[2], fs.offsets[3])
        vals = dict(
            zip(
                (grid_problem.dim_labels[1][c] for c in fs.codes[season, 1]),
                fs.values[season],
            )
        )
        assert vals["Summer"] == pytest.approx(15.0)
        assert vals["Winter"] == pytest.approx(15.0)

    def test_group_counts_sum_to_rows(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        for rows, lo, size in zip(fs.row_to_fact, fs.offsets, fs.group_sizes):
            counts = np.bincount(rows - lo, minlength=size)
            assert counts.shape == (size,) and counts.min() > 0
            assert counts.sum() == grid_problem.n_rows

    def test_rows_of_fact_partition(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        for rows, lo, size in zip(fs.row_to_fact, fs.offsets, fs.group_sizes):
            seen = np.concatenate([np.flatnonzero(rows == lo + i) for i in range(size)])
            assert sorted(seen) == list(range(grid_problem.n_rows))

    def test_row_to_fact_consistent_with_rows_of_fact(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        dims = list(fs.group_dims[3])
        codes = grid_problem.dim_matrix[:, dims]
        for fid in range(fs.offsets[3], fs.offsets[4]):
            in_scope = (codes == fs.codes[fid, dims]).all(axis=1)
            assert np.array_equal(fs.row_to_fact[3] == fid, in_scope)

    def test_global_id_roundtrip(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        for fid in range(fs.n_facts):
            g = fs.group_of(fid)
            assert fs.offsets[g] <= fid < fs.offsets[g + 1]

    def test_fact_materialization_labels(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        f = fs.fact(0)
        assert f.scope == ()
        # some two-dim fact carries both dim names
        f2 = fs.fact(fs.n_facts - 1)
        assert {d for d, _ in f2.scope} == {"region", "season"}

    def test_fact_value_matches_subset_mean(self, grid_problem):
        fs = enumerate_facts(grid_problem)
        for fid in range(fs.n_facts):
            rows = fs.row_to_fact[fs.group_of(fid)] == fid
            assert fs.fact(fid).value == pytest.approx(
                grid_problem.target[rows].mean()
            )

    def test_only_observed_combinations_enumerated(self):
        # sparse data: only 3 of 4 possible (a, b) combos appear
        df = pd.DataFrame(
            {"a": ["x", "x", "y"], "b": ["1", "2", "1"], "t": [1.0, 2.0, 3.0]}
        )
        p = Problem.from_pandas(df, ["a", "b"], "t")
        fs = enumerate_facts(p)
        assert fs.group_sizes[fs.group_dims.index((0, 1))] == 3

    def test_zero_extra_dims(self, grid_problem):
        fs = enumerate_facts(grid_problem, max_extra_dims=0)
        assert fs.n_facts == 1 and fs.group_dims == [()]

    def test_three_dims_group_count(self):
        rng = np.random.default_rng(0)
        df = pd.DataFrame(
            {
                "a": rng.choice(list("pq"), 30),
                "b": rng.choice(list("rs"), 30),
                "c": rng.choice(list("tu"), 30),
                "t": rng.random(30),
            }
        )
        p = Problem.from_pandas(df, ["a", "b", "c"], "t")
        fs = enumerate_facts(p, max_extra_dims=2)
        # C(3,0)+C(3,1)+C(3,2) = 1+3+3 groups
        assert len(fs.group_dims) == 7


# ---- differential test against a sort-based reference ------------------


def reference_groups(problem, max_extra_dims):
    """Facts per group as ``np.unique(axis=0)`` row sorts find them:
    (dims, local row_to_fact, codes of the restricted dims, values,
    rows per fact)."""
    n, d = problem.dim_matrix.shape
    out = []
    for size in range(max_extra_dims + 1):
        for dims in combinations(range(d), size):
            if size == 0:
                inverse = np.zeros(n, dtype=np.int32)
                uniques = np.zeros((1, 0), dtype=np.int32)
            else:
                uniques, inverse = np.unique(
                    problem.dim_matrix[:, dims], axis=0, return_inverse=True
                )
                inverse = inverse.reshape(-1).astype(np.int32)
                uniques = uniques.astype(np.int32)
            k = uniques.shape[0]
            sums = np.bincount(inverse, weights=problem.target, minlength=k)
            counts = np.bincount(inverse, minlength=k).astype(np.int64)
            out.append((dims, inverse, uniques, sums / counts, counts))
    return out


def coded_problem(codes, target):
    """A problem built directly from a code matrix (codes need not be
    dense: labels cover every code up to the column maximum)."""
    codes = np.asarray(codes, dtype=np.int32)
    d = codes.shape[1]
    labels = [np.arange(int(codes[:, j].max()) + 1).astype(str) for j in range(d)]
    return Problem([f"d{j}" for j in range(d)], codes, labels, target, prior=0.0)


def assert_matches_reference(problem, max_extra_dims):
    fs = enumerate_facts(problem, max_extra_dims=max_extra_dims)
    ref = reference_groups(problem, max_extra_dims)
    dims, row_to_fact, codes, values, counts = zip(*ref)
    assert fs.group_dims == list(dims)
    sizes = np.array([c.shape[0] for c in codes], dtype=np.int64)
    lo = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int32)
    # the reference's codes padded to every dimension, -1 = unrestricted
    padded = []
    for group_dims, group_codes in zip(dims, codes):
        full = np.full((group_codes.shape[0], problem.dim_matrix.shape[1]), -1, np.int32)
        full[:, list(group_dims)] = group_codes
        padded.append(full)
    for name, got, want in [
        ("row_to_fact", fs.row_to_fact, np.stack(row_to_fact) + lo[:, None]),
        ("values", fs.values, np.concatenate(values)),
        ("group_sizes", fs.group_sizes, sizes),
        ("codes", fs.codes, np.concatenate(padded)),
        ("counts", np.bincount(fs.row_to_fact.ravel()), np.concatenate(counts)),
    ]:
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert fs.n_facts == sizes.sum()


@st.composite
def coded_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        # a small set of codes per column; sparse sets such as {0, 7}
        # leave gaps below the column maximum
        values = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    target = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, width=32), min_size=n, max_size=n
        )
    )
    extra = draw(st.integers(0, d + 2))
    return coded_problem(np.array(columns).T, np.array(target)), extra


class TestAgainstSortReference:
    @settings(max_examples=200, deadline=None)
    @given(coded_problems())
    def test_random_problems(self, case):
        problem, extra = case
        assert_matches_reference(problem, extra)

    def test_one_row(self):
        assert_matches_reference(coded_problem([[3, 0, 5]], [2.5]), 3)

    def test_constant_columns(self):
        codes = np.array([[4, 0, 1], [4, 0, 0], [4, 0, 1], [4, 0, 1]])
        assert_matches_reference(coded_problem(codes, [1.0, 2.0, 3.0, 4.0]), 3)

    @pytest.mark.parametrize("extra", [0, 1, 2, 3, 4, 6])
    def test_extra_dims_range(self, grid_problem, extra):
        # beyond n_dims the lattice simply ends at the full group
        assert_matches_reference(grid_problem, extra)

    def test_gapped_codes(self):
        codes = np.array([[0, 7], [7, 0], [7, 7], [0, 7], [7, 0]])
        problem = coded_problem(codes, np.arange(5.0))
        fs = enumerate_facts(problem, max_extra_dims=2)
        assert fs.codes[fs.offsets[1] : fs.offsets[2]].tolist() == [[0, -1], [7, -1]]
        assert_matches_reference(problem, 2)

    def test_three_dims_with_200_values(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 200, size=(3000, 3))
        problem = coded_problem(codes, rng.normal(size=3000))
        assert_matches_reference(problem, 3)


# ---- the fact lattice every kernel reads ---------------------------------


class TestScopesAndContainment:
    @settings(max_examples=100, deadline=None)
    @given(coded_problems(), st.integers(0, 2**32 - 1))
    def test_row_to_fact_is_the_labelled_scope(self, case, seed):
        """Each fact's ``row_to_fact == fact_id`` rows are the rows its
        labelled scope selects; its value is their mean target, and
        ``apply_fact`` lowers deviation on exactly those rows."""
        problem, extra = case
        fs = enumerate_facts(problem, max_extra_dims=extra)
        dev = np.random.default_rng(seed).random(problem.n_rows) * 100
        labels = {
            name: problem.dim_labels[j][problem.dim_matrix[:, j]]
            for j, name in enumerate(problem.dim_names)
        }
        for fid in range(fs.n_facts):
            fact = fs.fact(fid)
            in_scope = np.ones(problem.n_rows, dtype=bool)
            for name, value in fact.scope:
                in_scope &= labels[name] == value
            assert np.array_equal(fs.row_to_fact[fs.group_of(fid)] == fid, in_scope)
            assert fact.value == pytest.approx(problem.target[in_scope].mean())
            rows = np.flatnonzero(in_scope)
            want = dev.copy()
            want[rows] = np.minimum(dev[rows], np.abs(fact.value - problem.target[rows]))
            assert np.array_equal(apply_fact(dev, problem.target, fs, fid), want)

    @settings(max_examples=100, deadline=None)
    @given(coded_problems())
    def test_contains_is_dimension_set_containment(self, case):
        problem, extra = case
        fs = enumerate_facts(problem, max_extra_dims=extra)
        dimsets = [frozenset(dims) for dims in fs.group_dims]
        want = [[t <= g for g in dimsets] for t in dimsets]
        assert fs.contains.dtype == bool
        assert fs.contains.tolist() == want
